"""The demos print the same bytes as when their digests were recorded."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bkpq

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout, recorded on Python 3.11
DEMO_SHA256 = {
    "01_q_functions.py": "c71a23f1ff02c72f170765d19a0830b7675c3c32956de30fb804e575b48e332f",
    "02_tau_identities.py": "2a9291594110af37b1c87d982a96384da48cf5bec2a7ea89ffd17900260cbc7a",
    "03_pfaffians.py": "a7eb214c3858f112624401b8b113239d3ecdb4933d45c63d85ce03582bfadf96",
    "04_operators_and_cli.py": "65a067c005b62f0fa0c6fb55b571a53435e1635b0bfc751c039fc3d5e1b2d76a",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_stdout_digest(name):
    # the bkpq under test, which a mutation run puts on PYTHONPATH
    src = os.path.dirname(os.path.dirname(os.path.abspath(bkpq.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_SHA256[name]
