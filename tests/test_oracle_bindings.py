"""The benchmark's own output checks still read a solve's bundle.

``perfbench/oracles.py`` checks every bundle a solve workload returns
through the attributes it reads (``h``, ``schwarz_constant``,
``ode_parameter``, ``wronskians``), against references it computes
without this package.  The module is loaded here by path, unchanged.
"""

import importlib.util
from pathlib import Path

import pytest

from schwarzian import solve

ORACLES = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"


def load_oracles():
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("m, n, order", [(7, 1, 20), (9, 38, 12), (7, 16, 10)])
def test_benchmark_oracle_accepts_a_solve(m, n, order):
    assert load_oracles().check_solution(solve(m, n, order), m, n, order) == []
