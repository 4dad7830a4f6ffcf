"""One Hypothesis profile for every property test under tests/: derandomized,
so a run draws the same examples each time, and with no deadline, since
exact-arithmetic examples vary widely in time.  Each test sets only its
max_examples."""

from hypothesis import settings

settings.register_profile("bkpq", derandomize=True, deadline=None)
settings.load_profile("bkpq")
