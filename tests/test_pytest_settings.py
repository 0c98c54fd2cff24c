"""The repository's pytest settings, run on a throwaway project."""

from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_hypothesis_test_fails_alone(pytester):
    # Hypothesis' failure report must not turn into an internal error that
    # stops the run: under the repository's warning filters the failing
    # test fails, the next one still runs, and pytest exits 1, not 3.  A
    # fresh interpreter, because the report's warning fires on first import.
    pytester.makepyprojecttoml(PYPROJECT.read_text(encoding="utf-8"))
    pytester.mkdir("tests")
    (pytester.path / "tests" / "test_given.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n"
        "\n"
        "def test_passes():\n"
        "    pass\n", encoding="utf-8")
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert result.ret == 1
