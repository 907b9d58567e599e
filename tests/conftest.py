"""Fixtures shared by the test modules."""

import pytest

from schwarzian import forms, hypergeometric, vvmf
from schwarzian.series import QSeries


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


@pytest.fixture
def construction_counts(monkeypatch):
    """Calls of hypergeometric.base_forms, forms.delta, forms.j_inverse and
    QSeries.compose made during the test."""
    targets = {
        "base_forms": hypergeometric,
        "delta": forms,
        "j_inverse": forms,
        "compose": QSeries,
    }
    calls = dict.fromkeys(targets, 0)
    for name, owner in targets.items():
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls
