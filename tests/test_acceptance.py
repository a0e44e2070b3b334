"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion (printed through the shared acceptance module)."""

import pytest

from gwp1 import acceptance


@pytest.mark.parametrize("criterion", acceptance.ALL_CRITERIA,
                         ids=[fn.__name__ for fn in acceptance.ALL_CRITERIA])
def test_criterion(criterion):
    result = criterion()
    print(result.line())
    failing = [name for name, ok in result.checks if not ok]
    assert result.passed, f"{result.name}: {result.detail or failing}"


def test_run_all_echoes_each_criterion_in_order(monkeypatch):
    stubs = [acceptance._criterion(f"stub {i}")(lambda i=i: (i != 1, "", []))
             for i in range(3)]
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", stubs)
    lines = []
    results = acceptance.run_all(echo=lines.append)
    assert [r.name for r in results] == ["stub 0", "stub 1", "stub 2"]
    assert [r.passed for r in results] == [True, False, True]
    assert lines == [r.line() for r in results]
