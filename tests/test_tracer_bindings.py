"""The benchmark's stage tracer still finds every layer it wraps.

``perfbench/tracer.py`` wraps each function named in its ``FUNCTIONS`` and
each class attribute named in its ``METHODS``; a name that no longer
resolves makes ``perfbench/run.py --trace 1`` crash.  The tracer is loaded
here by path, unchanged.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

from schwarzian import numeric, solver

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_functions_resolve():
    tracer = load_tracer()
    for layer, names in tracer.FUNCTIONS.items():
        module = importlib.import_module(f"schwarzian.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"schwarzian.{layer}.{name}"


def test_tracer_methods_are_class_attributes():
    tracer = load_tracer()
    series = importlib.import_module("schwarzian.series")
    for cls_name, ops in tracer.METHODS.items():
        cls = getattr(series, cls_name)
        for attrs in ops.values():
            for attr in attrs:
                assert attr in cls.__dict__, f"{cls_name}.{attr}"


def test_tracer_records_a_traced_solve():
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        solver.solve(7, 9, 6)
    finally:
        tracer.uninstall()
    calls = Counter(tracer.names[span[0]] for span in tracer.spans)
    assert {
        "solver.solve",
        "series.QSeries.mul",
        "hypergeometric.component_series",
        "forms.eisenstein",
    } <= set(calls)
    assert all(span[4] for span in tracer.spans)
    assert tracer.bits["hypergeometric.component_series"] > 0
    # one E2, E4 and E6 per form, shared by both components and proved
    # without Delta or a power of eta; nothing is composed and no 1728/j
    # is built.  Only the second component is raised, outside raise_weight,
    # and h is read from it with one rational power, b**-2
    assert calls["forms.eisenstein"] == 3 * calls["vvmf.minimal_form"] == 3
    assert calls["forms.delta"] == calls["forms.eta_power"] == 0
    assert calls["vvmf.raise_weight"] == 0
    assert calls["series.QSeries.pow_rational"] == 1
    assert calls["hypergeometric.component_series"] == 2
    assert calls["series.QSeries.compose"] == calls["forms.j_inverse"] == 0


def test_tracer_records_a_traced_evaluation():
    # the benchmark's traced numeric-eval run: z comes from E4 and Delta/q,
    # built once per length and shared by both precisions and every call
    numeric._z_factors.cache_clear()
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        for n_terms in (30, 60):
            for precision in (None, 200, None, 200):
                numeric.eval_h_hypergeometric(7, 1, 1.2j, n_terms, precision=precision)
    finally:
        tracer.uninstall()
    calls = Counter(tracer.names[span[0]] for span in tracer.spans)
    assert all(span[4] for span in tracer.spans)
    assert calls["numeric.eval_h_hypergeometric"] == 8
    assert calls["forms.j_inverse"] == calls["forms.delta"] == 0
    assert calls["forms.eta_power"] == calls["forms.eisenstein"] == 2
