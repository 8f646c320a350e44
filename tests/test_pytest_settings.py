"""The project's pytest settings let a failing property test report its example."""

from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_reports_its_falsifying_example(pytester):
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    pytester.makepyfile(test_failing="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 10
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_failing.py")
    out = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    result.assert_outcomes(failed=1)
