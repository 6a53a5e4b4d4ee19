import pytest

from nnscontrol import controllability


@pytest.fixture(autouse=True)
def fresh_analysis_memo():
    """Start and end every test with no memoized analysis, so call counts
    and monkeypatched eigen-solvers never see an earlier test's pair."""
    controllability._analysis.cache_clear()
    yield
    controllability._analysis.cache_clear()
