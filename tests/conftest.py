"""Fixtures shared by the test modules."""

import pytest

from schwarzian import vvmf


@pytest.fixture
def build_counts(monkeypatch):
    """Calls of vvmf.minimal_form and vvmf.raise_weight made during the test."""
    calls = {"minimal_form": 0, "raise_weight": 0}
    for name in calls:
        original = getattr(vvmf, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(vvmf, name, counted)
    return calls
