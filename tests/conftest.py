"""One hypothesis profile for every suite: examples are derived from each
test's own code rather than drawn afresh, so a run repeats the last one
exactly; no example database is kept and no per-example deadline applies.
Each test's ``max_examples`` still holds."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, deadline=None, database=None)
settings.load_profile("derandomized")
