"""The mutation tables and the one runner of `tests/mutants.py`, which also
runs the sampled mutants of `tests/mutation_sample.py`."""

import json
import os
import subprocess
from pathlib import Path

import pytest

import mutants
import mutation_sample

SRC = Path(mutants.ROOT, "src")


def test_every_snippet_is_in_its_file_once():
    for m in mutants.MUTANTS:
        assert (SRC / m["path"]).read_text().count(m["old"]) == 1, m["name"]


def test_entry_names_are_unique():
    names = [m["name"] for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)


def test_every_equivalent_id_is_a_current_site():
    with open(mutation_sample.EQUIVALENT) as f:
        listed = [e["id"] for e in json.load(f)]
    current = {mutant for _, _, mutant in mutation_sample.sites()}
    assert [i for i in listed if i not in current] == []


def test_a_seed_keeps_its_draw_of_the_sites_that_stay():
    every = mutation_sample.sites()
    drawn = mutation_sample.draw(every, 1, 60)
    assert len(drawn) == 60 and drawn != mutation_sample.draw(every, 2, 60)
    # dropping sites that were not drawn leaves the draw as it was
    kept = [site for site in every if site in drawn or site[0] != "partitions.py"]
    assert mutation_sample.draw(kept, 1, 60) == drawn


def test_a_timeout_kills_the_whole_process_group(tmp_path, monkeypatch):
    (tmp_path / "test_sleeps.py").write_text("import time\n\ndef test_sleeps():\n    time.sleep(30)\n")
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self.pid)

    monkeypatch.setattr(mutants, "TIMEOUT_S", 2)
    monkeypatch.setattr(mutants.subprocess, "Popen", Recorded)
    assert mutants.run_selection(str(tmp_path), [str(tmp_path)]) == ("killed", 2, "(timeout)")
    # the runner started the group's leader, so its pid is the group id
    with pytest.raises(ProcessLookupError):
        os.killpg(started[0], 0)


def test_a_broken_import_is_an_error_under_the_table_and_a_kill_under_the_sampler(tmp_path):
    (tmp_path / "bkpq").mkdir()
    (tmp_path / "bkpq" / "__init__.py").write_text("raise ImportError('broken on purpose')\n")
    (tmp_path / "test_imports.py").write_text("import bkpq\n\ndef test_imports():\n    pass\n")
    test = str(tmp_path / "test_imports.py")
    assert mutants.run_selection(str(tmp_path), [test])[0] == "error 2"
    assert mutants.run_selection(str(tmp_path), ["--continue-on-collection-errors", test])[0] == "killed"


def test_the_harness_refuses_a_bkpq_not_imported_from_the_copy(tmp_path):
    mutants._check_imports_from(str(SRC))
    with pytest.raises(SystemExit, match="not imported from the copy"):
        mutants._check_imports_from(str(tmp_path))
