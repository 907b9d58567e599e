"""Fixtures shared by the test modules."""

import pytest

from schwarzian import forms, hypergeometric, vvmf
from schwarzian.series import QSeries

# captured before any fixture can replace the module attribute
_BASE_FORMS = hypergeometric.base_forms


@pytest.fixture(autouse=True)
def cold_base_forms():
    """Every test starts and ends with an empty base_forms cache, so a
    test that counts or corrupts the level-one builds sees them run."""
    _BASE_FORMS.cache_clear()
    yield
    _BASE_FORMS.cache_clear()


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
