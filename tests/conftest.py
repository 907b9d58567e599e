"""Fixtures shared by the test modules."""

import pytest

from schwarzian import forms, series, vvmf
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
def compose_counts(monkeypatch):
    """Calls of forms.j_inverse, and the series._iconv calls made inside each
    QSeries.compose call, in call order, during the test."""
    counts = {"j_inverse": 0, "compose_iconv": []}
    j_inverse, iconv, compose = forms.j_inverse, series._iconv, QSeries.compose
    composing = []

    def counted_j_inverse(*args):
        counts["j_inverse"] += 1
        return j_inverse(*args)

    def counted_iconv(*args):
        if composing:
            counts["compose_iconv"][-1] += 1
        return iconv(*args)

    def counted_compose(self, inner):
        counts["compose_iconv"].append(0)
        composing.append(self)
        try:
            return compose(self, inner)
        finally:
            composing.pop()

    monkeypatch.setattr(forms, "j_inverse", counted_j_inverse)
    monkeypatch.setattr(series, "_iconv", counted_iconv)
    monkeypatch.setattr(QSeries, "compose", counted_compose)
    return counts
