"""The package's record types are NamedTuples, and importing it loads
neither ``dataclasses`` nor ``inspect``.

Every record is immutable and has no per-instance ``__dict__``.  The three
that validate (``HypergeomParams``, ``ReprData`` and ``VectorForm``) check
their fields in ``__new__``, so a record built by its constructor is
checked and one built by ``_replace`` or ``_make`` is not.
"""

import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from schwarzian import acceptance, hypergeometric, numeric, solver, vvmf
from schwarzian.errors import InternalMismatch, InvalidC, InvalidParameters

RECORDS = {
    "HypergeomParams": lambda: hypergeometric.HypergeomParams(1, 2, 3),
    "ComponentRecipe": lambda: hypergeometric.ComponentRecipe(7, 2),
    "BaseForms": lambda: hypergeometric.base_forms(4),
    "ReprData": lambda: vvmf.ReprData(7, 2),
    "VectorForm": lambda: vvmf.minimal_form(vvmf.ReprData(7, 2), 4),
    "SolutionBundle": lambda: solver.solve(7, 1, 4),
    "EvalReport": lambda: numeric.cross_check(7, 1, 2j, 8),
    "CheckResult": lambda: acceptance.CheckResult("name", True, "detail"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_a_named_tuple_without_a_dict(name):
    # a held SolutionBundle costs its tuple and nothing per instance more
    record = RECORDS[name]()
    assert type(record).__name__ == name
    assert isinstance(record, tuple) and record._fields
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("name", RECORDS)
def test_record_refuses_attribute_assignment(name):
    record = RECORDS[name]()
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


REFUSALS = [
    (lambda: hypergeometric.HypergeomParams(1, 2, 0), InvalidC,
     "lower parameter c = 0 is a nonpositive integer"),
    (lambda: hypergeometric.HypergeomParams(F(1, 2), 1, "-2/1"), InvalidC,
     "lower parameter c = -2 is a nonpositive integer"),
    (lambda: vvmf.ReprData(7.0, 1), InvalidParameters, "m and n' must be integers"),
    (lambda: vvmf.ReprData(7, True), InvalidParameters, "m and n' must be integers"),
    (lambda: vvmf.ReprData(6, 1), InvalidParameters, "m must be >= 7, got 6"),
    (lambda: vvmf.ReprData(7, 7), InvalidParameters,
     "n' must satisfy 0 < n' < m, got n'=7, m=7"),
    (lambda: vvmf.ReprData(8, 2), InvalidParameters, "m=8 and n'=2 must be coprime"),
]


@pytest.mark.parametrize("build, error, message", REFUSALS)
def test_parameter_constructors_refuse_bad_input(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize(
    "changes, message",
    [
        # a zero component is named before the exponents it also misses
        (lambda f: {"second": f.second * 0, "level": 1},
         "level 1: a component vanishes to working order"),
        (lambda f: {"level": 1}, "level 1: exponents 9/14, 5/14, expected 23/14, 5/14"),
    ],
    ids=["vanishing", "exponents"],
)
def test_vector_form_constructor_refuses_a_bad_shape(changes, message):
    form = vvmf.minimal_form(vvmf.ReprData(7, 2), 8)
    with pytest.raises(InternalMismatch) as info:
        vvmf.VectorForm(**{**form._asdict(), **changes(form)})
    assert str(info.value) == message
    assert info.value.index == 0


def test_package_builds_no_record_with_replace_or_make():
    # both skip __new__, so a validating record built so is unchecked
    assert vvmf.ReprData(7, 2)._replace(m=6) == (6, 2)
    assert hypergeometric.HypergeomParams(1, 2, 3)._replace(c=0).c == 0
    package = Path(vvmf.__file__).parent
    built = re.compile(r"\._replace\(|(HypergeomParams|ReprData|VectorForm)\._make\(")
    assert [p.name for p in package.glob("*.py") if built.search(p.read_text())] == []


def test_hypergeom_params_are_fractions():
    params = hypergeometric.HypergeomParams(1, "1/2", 0.25)
    assert params == (F(1), F(1, 2), F(1, 4))
    assert all(type(x) is F for x in params)


def test_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter without site, so that only the package's imports
    # are seen; the CLI module is imported on its own second
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "def loaded(): return sorted({'dataclasses', 'inspect'} & set(sys.modules))\n"
        "import schwarzian\n"
        "print(loaded())\n"
        "import schwarzian.cli\n"
        "print(loaded())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]
