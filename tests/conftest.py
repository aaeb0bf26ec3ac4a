"""Hypothesis profiles of the test suite.

"tier1", loaded unless --hypothesis-profile names another, draws every
property test's examples from a seed fixed by the test itself and keeps no
example database, so that two runs give the same verdict.  "explore" draws
fresh examples, from --hypothesis-seed where one is given, to look for new
failures; a derandomized profile ignores that seed:

    python -m pytest tests/test_hypergeom.py --hypothesis-profile explore --hypothesis-seed 8

A failing draw found that way is pinned as an @example of its test.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)


def pytest_configure(config):
    if not config.getoption("--hypothesis-profile"):
        settings.load_profile("tier1")
