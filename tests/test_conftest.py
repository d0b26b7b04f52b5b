"""The session setup of conftest.py: a failing hypothesis test is reported."""

FAILING_GIVEN_TEST = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n != n


def test_runs_after_the_failure():
    pass
"""


def test_a_failing_given_test_is_reported_not_an_internal_error(pytester):
    # the same warning filter as pyproject.toml
    pytester.makeini("[pytest]\nfilterwarnings = error\n")
    pytester.makepyfile(FAILING_GIVEN_TEST)
    result = pytester.runpytest("-p", "no:cacheprovider")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1, passed=1)
