"""CLI contract tests: JSON schema, exit codes, text output, selftest.

Most invocations go through ``main(argv)`` in-process so stdout/stderr and
exit codes can be asserted cheaply; two subprocess tests run the CLI end to
end, one through ``python -m schwarzian`` on the source tree and one
through the installed console script.
"""

import ast
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from schwarzian import (
    NotProportionalToDeltaPower,
    NumericOverflow,
    PuiseuxSeries,
    QSeries,
    cli,
    forms,
    numeric,
    solver,
    vvmf,
)
from schwarzian.cli import main
from test_solver import raise_component_with_de4_coefficient_2


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "m, n, terms, n_prime, raises, weight, schwarz, ode",
    [
        (7, 1, 8, 1, 0, 5, "-1/98", "-1/196"),
        (7, 9, 8, 2, 1, 11, "-81/98", "-81/196"),
    ],
    ids=["minimal", "raised"],
)
def test_solve_json_contract(
    capsys, m, n, terms, n_prime, raises, weight, schwarz, ode
):
    code, out, err = run_cli(
        capsys, "solve", "--m", str(m), "--n", str(n), "--terms", str(terms),
        "--format", "json",
    )
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["command"] == "solve"
    assert payload["params"] == {"m": m, "n": n, "terms": terms}
    results = payload["results"]
    assert results["offset"] == f"{n}/{m}"
    assert results["n_prime"] == n_prime
    assert results["raises"] == raises
    assert results["weight"] == weight
    assert results["schwarz_constant"] == schwarz
    assert results["ode_parameter"] == ode
    assert results["h_coefficients"][0] == "1"
    assert len(results["h_coefficients"]) == terms
    levels = results["wronskians"]
    assert [lvl["level"] for lvl in levels] == list(range(raises + 1))
    assert [lvl["delta_power"] for lvl in levels] == list(range(1, raises + 2))
    assert levels[0] == {"constant": f"{n_prime}/{m}", "delta_power": 1, "level": 0}
    assert all(c["pass"] for c in payload["checks"])
    # a raised h is read from the raised second component alone
    assert ("reduction of order" in payload["checks"][0]["detail"]) == bool(raises)


def test_solve_json_roundtrips_byte_identical(capsys):
    _, out, _ = run_cli(
        capsys, "solve", "--m", "7", "--n", "2", "--terms", "6", "--format", "json"
    )
    payload = json.loads(out)
    assert json.dumps(payload, indent=2, sort_keys=True) == out.strip()


def test_solve_text_output(capsys):
    code, out, _ = run_cli(capsys, "solve", "--m", "7", "--n", "1", "--terms", "6")
    assert code == 0
    assert "offset: 1/7" in out
    assert "schwarz_constant: -1/98" in out
    assert "[PASS] solution-verification" in out


def test_vvmf_raised_weight_and_ratios(capsys):
    code, out, _ = run_cli(
        capsys, "vvmf", "--m", "7", "--n", "9", "--terms", "8", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    results = payload["results"]
    assert results["n_prime"] == 2
    assert results["raises"] == 1
    assert results["weight"] == 11
    assert results["raising"]["second_ratio"] == "24/19"
    assert results["raising"]["second_ratio_closed_form"] == "24/19"
    assert results["raising"]["first_ratio"] == "-752"
    assert results["raising"]["first_ratio_closed_form"] == "-752"
    assert [lvl["weight"] for lvl in results["levels"]] == [5, 11]
    assert all(c["pass"] for c in payload["checks"])


def test_verify_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--m", "7", "--n", "2", "--terms", "10", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    names = [c["name"] for c in payload["checks"]]
    assert "minimal-form-shape" in names
    assert "wronskian-delta-power" in names
    assert "schwarzian-proportionality" in names
    assert all(c["pass"] for c in payload["checks"])


def test_verify_builds_each_form_once(capsys, build_counts):
    code, out, _ = run_cli(
        capsys, "verify", "--m", "7", "--n", "9", "--terms", "10", "--format", "json"
    )
    assert code == 0
    assert build_counts == {"minimal_form": 1, "raise_weight": 1}
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == [
        "minimal-form-shape",
        "wronskian-delta-power",
        "schwarzian-proportionality",
        "ode-solutions",
    ]
    assert all(c["pass"] for c in checks)
    # each check states its order: W at every level through terms, as the
    # second component is built at terms; {h} and h y2 through terms too
    _, wronskians, schwarzian, ode = (c["detail"] for c in checks)
    assert "level 0: c=2/7, Delta^1 through 10 terms" in wronskians
    assert "level 1: c=-162432/133, Delta^2 through 10 terms" in wronskians
    assert schwarzian.endswith("E4 through 10 terms")
    assert ode.endswith("so h = y1/y2, through 10 terms")


def test_vvmf_raises_each_level_once(capsys, build_counts):
    # the level-1 form gives both the raising constants and level 1
    code, out, _ = run_cli(
        capsys, "vvmf", "--m", "7", "--n", "9", "--terms", "10", "--format", "json"
    )
    assert code == 0
    assert build_counts == {"minimal_form": 1, "raise_weight": 1}
    payload = json.loads(out)
    assert payload["results"]["raising"]["second_ratio"] == "24/19"
    wronskians = payload["checks"][0]["detail"]
    assert "level 0: c=2/7, Delta^1 through 10 terms" in wronskians
    assert "level 1: c=-162432/133, Delta^2 through 10 terms" in wronskians


@pytest.mark.parametrize("command", ["verify", "vvmf"])
def test_wronskian_verdict_is_the_battery_predicate(capsys, monkeypatch, command):
    # level 0 must give exactly n'/m, as criterion 3 requires, and a level
    # whose check raises is named with the error; verify calls this literal
    # check itself, and its literal {h} and ODE checks of the raised form
    # still run
    original = vvmf.wronskian_check

    def off(form):
        c, e = original(form)
        if form.level == 0:
            return c + 1, e
        raise NotProportionalToDeltaPower("seeded", index=3)

    monkeypatch.setattr(vvmf, "wronskian_check", off)
    code, out, _ = run_cli(
        capsys, command, "--m", "7", "--n", "9", "--terms", "10", "--format", "json"
    )
    assert code == 1
    [check] = [c for c in json.loads(out)["checks"] if c["name"] == "wronskian-delta-power"]
    assert check["pass"] is False
    assert "level 0 gave c=9/7, e=1, expected c=2/7, e=1" in check["detail"]
    assert "level 1: NotProportionalToDeltaPower: seeded" in check["detail"]
    if command == "verify":
        literal = {c["name"]: c["pass"] for c in json.loads(out)["checks"]}
        assert literal["schwarzian-proportionality"] is True
        assert literal["ode-solutions"] is True


def test_failed_wronskian_below_r_does_not_stop_verify(capsys, monkeypatch):
    # a failed W check at level 1 < r = 2 is that level's verdict alone:
    # level 2 is still built and checked, and {h} and h y2 are computed
    # literally from it
    original = vvmf.wronskian_check

    def off(form):
        if form.level == 1:
            raise NotProportionalToDeltaPower("seeded", index=3)
        return original(form)

    monkeypatch.setattr(vvmf, "wronskian_check", off)
    code, out, _ = run_cli(
        capsys, "verify", "--m", "7", "--n", "16", "--terms", "10", "--format", "json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["results"] == {"n_prime": 2, "raises": 2}
    assert payload["checks"] == [
        {"name": "minimal-form-shape", "pass": True, "detail": "weight 5, exponents 9/14, 5/14"},
        {
            "name": "wronskian-delta-power",
            "pass": False,
            "detail": "levels 0..2; level 0: c=2/7, Delta^1 through 10 terms; level 2: "
            "c=24980742144/8113, Delta^3 through 10 terms; level 1: "
            "NotProportionalToDeltaPower: seeded",
        },
        {
            "name": "schwarzian-proportionality",
            "pass": True,
            "detail": "{h} = -128/49 * E4 through 10 terms",
        },
        {
            "name": "ode-solutions",
            "pass": True,
            "detail": "h y2 satisfies D^2 y + (-64/49) E4 y = 0 for the Frobenius "
            "solution y2 = q^(-n/2m)(1 + ...), so h = y1/y2, through 10 terms",
        },
    ]


def test_only_solver_and_acceptance_build_levels():
    # acceptance.walk is the one driver of the chain of whole forms that
    # verify, vvmf and criteria 2-4 read, and solve raises only the minimal
    # form's second component through vvmf.raise_second; outside vvmf no
    # other module calls a chain step, and the CLI calls none
    steps = {"minimal_form", "raise_weight", "raise_component", "raise_second"}
    uses = {}
    for path in Path(solver.__file__).parent.glob("*.py"):
        called = {
            getattr(node.func, "attr", getattr(node.func, "id", None))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
        }
        if path.stem != "vvmf" and called & steps:
            uses[path.stem] = called & steps
    assert uses == {
        "solver": {"minimal_form", "raise_second"},
        "acceptance": {"minimal_form", "raise_weight"},
    }


# verify and vvmf of (7, 9, 10) with the D E4 coefficient of the raising step
# mutated: level 1 keeps its exponents, and its literal W fails at q^1
MUTATED_LEVEL_1 = (
    "levels 0..1; level 0: c=2/7, Delta^1 through 10 terms; level 1: "
    "NotProportionalToDeltaPower: W / Delta**2 has nonconstant coefficient "
    "58867200/361 at q^1"
)
MUTATED_CHECKS = {
    "verify": [
        {"name": "minimal-form-shape", "pass": True, "detail": "weight 5, exponents 9/14, 5/14"},
        {"name": "wronskian-delta-power", "pass": False, "detail": MUTATED_LEVEL_1},
        {
            "name": "schwarzian-proportionality",
            "pass": False,
            "detail": "{h} = -81/98 * E4 through 10 terms; NotProportional: sd / E4 "
            "is not constant: coefficient -374300/2127 at q^1",
        },
        {
            "name": "ode-solutions",
            "pass": False,
            "detail": "h y2 satisfies D^2 y + (-81/196) E4 y = 0 for the Frobenius "
            "solution y2 = q^(-n/2m)(1 + ...), so h = y1/y2, through 10 terms; "
            "OdeResidualNonzero: residual 561450/709 at exponent offset 1",
        },
    ],
    "vvmf": [
        {"name": "wronskian-delta-power", "pass": False, "detail": MUTATED_LEVEL_1},
        {
            "name": "raising-ratios",
            "pass": False,
            "detail": "computed -22688/19, 24/19; closed forms -144(5m+6n')/(m+n') = "
            "-752, 12n'/(m+6n') = 24/19; c1=-22688/19 != closed form -752",
        },
    ],
}
LEVEL_0 = {
    "delta_power": 1,
    "first_exponent": "9/14",
    "first_leading": "1",
    "level": 0,
    "second_exponent": "5/14",
    "second_leading": "1",
    "weight": 5,
    "wronskian_constant": "2/7",
}


@pytest.mark.parametrize("command", ["verify", "vvmf"])
def test_mutated_raising_fails_the_literal_checks(capsys, monkeypatch, command):
    monkeypatch.setattr(vvmf, "raise_component", raise_component_with_de4_coefficient_2)
    code, out, _ = run_cli(
        capsys, command, "--m", "7", "--n", "9", "--terms", "10", "--format", "json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["checks"] == MUTATED_CHECKS[command]
    results = {"n_prime": 2, "raises": 1}
    if command == "vvmf":
        results.update(
            levels=[LEVEL_0],
            raising={
                "first_ratio": "-22688/19",
                "first_ratio_closed_form": "-752",
                "second_ratio": "24/19",
                "second_ratio_closed_form": "24/19",
            },
            weight=11,
        )
    assert payload["results"] == results


def second_zeroed(form, _raise_weight=vvmf.raise_weight):
    """``vvmf.raise_weight`` with the raised second component set to zero,
    which ``VectorForm`` refuses."""
    raised = _raise_weight(form)
    zero = PuiseuxSeries(raised.second.offset, QSeries([0] * raised.second.order))
    return dataclasses.replace(raised, second=zero)


@pytest.mark.parametrize("command", ["verify", "vvmf"])
def test_refused_raise_is_reported_at_its_level(capsys, monkeypatch, command):
    # construction reports only a failed minimal form; a raise refused at
    # level 1 is named under wronskian-delta-power, and every check that
    # needs level 1 fails with the same text
    monkeypatch.setattr(vvmf, "raise_weight", second_zeroed)
    code, out, _ = run_cli(
        capsys, command, "--m", "7", "--n", "9", "--terms", "10", "--format", "json"
    )
    assert code == 1
    payload = json.loads(out)
    refused = "InternalMismatch: level 1: a component vanishes to working order"
    wronskian = {
        "name": "wronskian-delta-power",
        "pass": False,
        "detail": f"levels 0..1; level 0: c=2/7, Delta^1 through 10 terms; level 1: {refused}",
    }
    if command == "verify":
        assert payload["checks"] == [
            {"name": "minimal-form-shape", "pass": True, "detail": "weight 5, exponents 9/14, 5/14"},
            wronskian,
            {"name": "schwarzian-proportionality", "pass": False, "detail": refused},
            {"name": "ode-solutions", "pass": False, "detail": refused},
        ]
        assert payload["results"] == {"n_prime": 2, "raises": 1}
    else:
        assert payload["checks"] == [
            wronskian,
            {"name": "raising-ratios", "pass": False, "detail": refused},
        ]
        assert payload["results"] == {
            "n_prime": 2, "raises": 1, "weight": 11, "levels": [LEVEL_0]
        }


def test_vvmf_without_raises_reports_a_refused_level_1(capsys, monkeypatch):
    # with r = 0 only the raising ratios need level 1
    monkeypatch.setattr(vvmf, "raise_weight", second_zeroed)
    code, out, _ = run_cli(
        capsys, "vvmf", "--m", "7", "--n", "2", "--terms", "10", "--format", "json"
    )
    assert code == 1
    wronskian, raising = json.loads(out)["checks"]
    assert wronskian["pass"] is True
    assert raising == {
        "name": "raising-ratios",
        "pass": False,
        "detail": "InternalMismatch: level 1: a component vanishes to working order",
    }


def test_verify_fails_the_literal_checks_of_a_wrong_bundle(capsys, monkeypatch):
    # verify recomputes {h} and the h y2 residual from the bundle it reads
    # off the raised form, so a wrong h fails both by name
    original = solver._bundle

    def wrong(form):
        bundle = original(form)
        coeffs = list(bundle.h.body.coeffs)
        coeffs[4] += 1
        return dataclasses.replace(bundle, h=PuiseuxSeries(bundle.h.offset, QSeries(coeffs)))

    monkeypatch.setattr(solver, "_bundle", wrong)
    code, out, _ = run_cli(
        capsys, "verify", "--m", "7", "--n", "9", "--terms", "10", "--format", "json"
    )
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["minimal-form-shape"]["pass"] is True
    assert checks["wronskian-delta-power"]["pass"] is True
    schwarzian, ode = checks["schwarzian-proportionality"], checks["ode-solutions"]
    assert schwarzian["pass"] is False
    assert "NotProportional: " in schwarzian["detail"]
    assert "q^4" in schwarzian["detail"]
    assert ode["pass"] is False
    assert "OdeResidualNonzero: residual" in ode["detail"]
    assert "exponent offset 4" in ode["detail"]


@pytest.mark.parametrize("command", ["verify", "vvmf"])
@pytest.mark.parametrize(
    "args",
    [
        ["--n", "-1"],
        ["--n", "-6"],
        ["--n", "0"],
        ["--n", "1", "--terms", "0"],
        ["--n", "1", "--terms", "-3"],
        ["--n", "1", "--terms", "1"],
    ],
    ids=["-1", "-6", "0", "terms0", "terms-3", "terms1"],
)
def test_nonpositive_n_is_usage_error(capsys, monkeypatch, command, args):
    # n <= 0 and fewer than two terms are refused before anything is built
    def unreachable(*args):
        raise AssertionError("built a form for unusable input")

    monkeypatch.setattr(vvmf, "minimal_form", unreachable)
    code, out, err = run_cli(capsys, command, "--m", "7", *args)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert err.strip().count("\n") == 0


# what corrupt_e4 makes every check that builds base forms report
E4_FAULT = "InternalMismatch: Ramanujan identity 12 D E2 = E2^2 - E4 fails at q^2"


def corrupt_e4(monkeypatch):
    # E4 corrupted at q^2, as the seeded-bug check does: the base forms'
    # first Ramanujan identity then fails there while the minimal form is
    # being built
    original = forms.eisenstein

    def corrupted(k, order):
        out = original(k, order)
        if k == 4 and order > 2:
            cs = list(out.coeffs)
            cs[2] += 1
            out = QSeries(cs)
        return out

    monkeypatch.setattr(forms, "eisenstein", corrupted)


@pytest.mark.parametrize("command", ["verify", "vvmf"])
def test_construction_failure_keeps_json_payload(capsys, monkeypatch, command):
    corrupt_e4(monkeypatch)
    code, out, err = run_cli(
        capsys, command, "--m", "7", "--n", "9", "--terms", "10", "--format", "json"
    )
    assert code == 1
    assert err == ""
    payload = json.loads(out)
    assert set(payload) == {"command", "params", "results", "checks"}
    assert payload["command"] == command
    assert payload["results"] == {"n_prime": 2, "raises": 1}
    [check] = payload["checks"]
    assert check["pass"] is False
    assert check["detail"].startswith(E4_FAULT)


def test_selftest_construction_failure_keeps_json_payload(capsys, monkeypatch):
    # each criterion that builds forms reports the fault as its own failing
    # check, naming the pair, and the battery still reports all eight
    corrupt_e4(monkeypatch)
    code, out, err = run_cli(capsys, "selftest", "--format", "json")
    assert code == 1
    assert err == ""
    payload = json.loads(out)
    checks = payload["checks"]
    assert [c["name"] for c in checks] == [
        "classical-identities",
        "minimal-form-shape",
        "wronskian-delta-power",
        "raising-constants",
        "schwarzian-proportionality",
        "ode-solutions",
        "numeric-cross-check",
        "seeded-bug-sensitivity",
    ]
    for check in checks[:7]:
        assert check["pass"] is False, check["name"]
        assert E4_FAULT in check["detail"], check["name"]
    for check in checks[1:7]:
        assert "(7,1): InternalMismatch" in check["detail"], check["name"]
    failed = sum(not c["pass"] for c in checks)
    assert payload["results"] == {"passed": 8 - failed, "failed": failed}


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_solve_prints_constants_past_the_digit_limit(capsys, fmt):
    # at r = 825 the last Wronskian constant's numerator has more digits
    # than the interpreter converts to str by default; main prints it in
    # full and leaves that limit as it found it
    limit = sys.get_int_max_str_digits()
    assert limit > 0  # no earlier in-process run of main left it lifted
    code, out, err = run_cli(
        capsys, "solve", "--m", "7", "--n", "5776", "--terms", "3", "--format", fmt
    )
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    want, e = vvmf.level_constants(7, 5776)[-1]
    sys.set_int_max_str_digits(0)
    try:
        text = f"{want.numerator}/{want.denominator}"
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(text.split("/")[0].lstrip("-")) > limit
    if fmt == "json":
        last = json.loads(out)["results"]["wronskians"][-1]
        assert last == {"level": 825, "constant": text, "delta_power": e}
    else:
        assert f"{{'level': 825, 'constant': '{text}', 'delta_power': {e}}}" in out


def test_usage_error_is_one_line_exit_2(capsys):
    code, out, err = run_cli(capsys, "solve", "--m", "6", "--n", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert err.strip().count("\n") == 0


@pytest.mark.parametrize("command", ["solve", "eval"])
@pytest.mark.parametrize("m, n", [(6, 1), (7, 0), (8, 2), (7, 14)])
def test_bad_pair_is_usage_error(capsys, command, m, n):
    tau = ["--tau", "2i"] if command == "eval" else []
    code, out, err = run_cli(capsys, command, "--m", str(m), "--n", str(n), *tau)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_bad_tau_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--m", "7", "--n", "1", "--tau", "wat"
    )
    assert code == 2
    assert "tau" in err


@pytest.mark.parametrize("tau", ["nan+2i", "0.3+nani", "0+infi", "inf+2i"])
def test_non_finite_tau_is_usage_error_before_solving(capsys, monkeypatch, tau):
    def unreachable(*args):
        raise AssertionError("solved for a non-finite tau")

    monkeypatch.setattr(solver, "solve", unreachable)
    code, out, err = run_cli(capsys, "eval", "--m", "7", "--n", "1", "--tau", tau)
    assert code == 2
    assert out == ""
    assert err.startswith("error: tau = ")


def test_eval_refuses_n_beyond_m_before_solving(capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("solved a pair the closed form does not cover")

    monkeypatch.setattr(solver, "solve", unreachable)
    code, out, err = run_cli(
        capsys, "eval", "--m", "7", "--n", "9", "--tau", "2i", "--terms", "60"
    )
    assert code == 2
    assert out == ""
    assert err == "error: the closed form covers 0 < n < m only, got m=7, n=9\n"


def test_eval_json_complex_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval", "--m", "7", "--n", "1", "--tau", "2i",
        "--terms", "30", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["tau"] == "2i"
    for key in ("via_series", "via_hypergeom"):
        value = payload["results"][key]
        assert set(value) == {"re", "im"}
        float(value["re"])  # decimal strings, parseable
        float(value["im"])
    assert float(payload["results"]["rel_error"]) < 1e-9
    assert payload["checks"][0]["name"] == "routes-agree"
    assert payload["checks"][0]["pass"] is True


def test_eval_divergent_series_fails_named_check(capsys):
    # the summed q-series does not converge at this tau, so no relative error
    # is reported and the routes-agree check fails with the reason
    code, out, _ = run_cli(
        capsys,
        "eval", "--m", "13", "--n", "12", "--tau", "0.1153+1.0044i",
        "--terms", "60", "--format", "json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["results"] == {}
    check = payload["checks"][0]
    assert check["name"] == "routes-agree"
    assert check["pass"] is False
    assert "the q-series route does not converge" in check["detail"]


def test_eval_near_rho_in_doubles_passes(capsys):
    # z is summed from E4 and Delta, whose coefficients stay inside the
    # double range at any length, so 150 terms answer near rho too
    code, out, err = run_cli(
        capsys, "eval", "--m", "7", "--n", "1", "--tau=-0.49+0.9i", "--terms", "150",
        "--format", "json",
    )
    assert (code, err) == (0, "")
    assert float(json.loads(out)["results"]["rel_error"]) < 1e-14


def test_eval_escaping_error_is_one_error_line(capsys, monkeypatch):
    # a SchwarzianError that eval does not report as a failed check exits
    # 1 with its type on a single line
    def overflow(*args, **kwargs):
        raise NumericOverflow("|value| exceeds 1e+300")

    monkeypatch.setattr(numeric, "cross_check", overflow)
    code, out, err = run_cli(
        capsys, "eval", "--m", "7", "--n", "1", "--tau=-0.49+0.9i", "--terms", "150"
    )
    assert code == 1
    assert out == ""
    assert err == "error: NumericOverflow: |value| exceeds 1e+300\n"


def test_tau_with_a_leading_minus_takes_either_spelling(capsys):
    """``--tau -0.49+0.9i`` is read as the value, not as an option, and
    prints what ``--tau=-0.49+0.9i`` prints."""
    outputs = []
    for tau in (["--tau", "-0.49+0.9i"], ["--tau=-0.49+0.9i"]):
        code, out, err = run_cli(
            capsys, "eval", "--m", "7", "--n", "1", *tau, "--tolerance", "1e-3",
            "--format", "json",
        )
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["params"]["tau"] == "-0.49+0.9i"


@pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
def test_unusable_tolerance_is_usage_error_before_solving(capsys, monkeypatch, tolerance):
    def unreachable(*args):
        raise AssertionError("solved for an unusable tolerance")

    monkeypatch.setattr(solver, "solve", unreachable)
    code, out, err = run_cli(
        capsys, "eval", "--m", "7", "--n", "1", "--tau", "2i", f"--tolerance={tolerance}"
    )
    assert code == 2
    assert out == ""
    assert err == f"error: tolerance must be finite and > 0, got {float(tolerance)}\n"


def test_eval_growing_series_fails_named_check(capsys):
    # the last terms of h grow at this tau, yet stay below the partial sum
    code, out, _ = run_cli(
        capsys,
        "eval", "--m", "8", "--n", "7", "--tau", "0.5+0.86689i",
        "--terms", "30", "--format", "json",
    )
    assert code == 1
    [check] = json.loads(out)["checks"]
    assert check["pass"] is False
    assert "the q-series route does not converge" in check["detail"]


def test_eval_outside_disk_fails_named_check(capsys):
    # |1728/j(0.3 + 1.2i)| > 1, yet tau is inside the fundamental domain:
    # the closed form is continued there and both routes agree
    code, out, _ = run_cli(
        capsys,
        "eval", "--m", "7", "--n", "1", "--tau", "0.3+1.2i",
        "--terms", "30", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["checks"][0]["pass"] is True
    # below the arc |tau| = 1 the evaluator refuses, and the check says why
    code, out, _ = run_cli(
        capsys,
        "eval", "--m", "7", "--n", "1", "--tau", "0.2+0.9i",
        "--terms", "30", "--format", "json",
    )
    assert code == 1
    payload = json.loads(out)
    check = payload["checks"][0]
    assert check["name"] == "routes-agree"
    assert check["pass"] is False
    assert "principal branches" in check["detail"]


def test_console_script_installed():
    exe = shutil.which("schwarzian")
    if exe is None:
        pytest.skip("console script not on PATH in this environment")
    proc = subprocess.run(
        [exe, "solve", "--m", "7", "--n", "1", "--terms", "6", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["offset"] == "1/7"


def test_module_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "schwarzian", "solve", "--m", "7", "--n", "1",
         "--terms", "6", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["offset"] == "1/7"
    bad = subprocess.run(
        [sys.executable, "-m", "schwarzian", "solve", "--m", "7", "--n", "7"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert bad.returncode == 2
    assert bad.stderr.startswith("error:")


@pytest.mark.slow
def test_selftest_conjunction_semantics(capsys):
    # selftest reports every acceptance criterion and exits 0 only when all
    # of them pass, as all eight do on the stated grids
    code, out, _ = run_cli(capsys, "selftest", "--format", "json")
    payload = json.loads(out)
    assert len(payload["checks"]) == 8
    assert all(c["pass"] for c in payload["checks"])
    assert code == 0
    assert payload["results"] == {"passed": 8, "failed": 0}
