"""CLI contract tests: JSON schema, exit codes, text output, selftest.

Most invocations go through ``main(argv)`` in-process so stdout/stderr and
exit codes can be asserted cheaply; two subprocess tests run the CLI end to
end, one through ``python -m schwarzian`` on the source tree and one
through the installed console script.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from schwarzian import NotProportionalToDeltaPower, QSeries, forms, solver, vvmf
from schwarzian.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_json_contract(capsys):
    code, out, err = run_cli(
        capsys, "solve", "--m", "7", "--n", "1", "--terms", "8", "--format", "json"
    )
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["command"] == "solve"
    assert payload["params"] == {"m": 7, "n": 1, "terms": 8}
    results = payload["results"]
    assert results["offset"] == "1/7"
    assert results["schwarz_constant"] == "-1/98"
    assert results["ode_parameter"] == "-1/196"
    assert results["h_coefficients"][0] == "1"
    assert len(results["h_coefficients"]) == 8
    assert results["wronskians"] == [
        {"constant": "1/7", "delta_power": 1, "level": 0}
    ]
    assert all(c["pass"] for c in payload["checks"])


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


def test_vvmf_raises_each_level_once(capsys, build_counts):
    # the level-1 form gives both the raising constants and level 1
    code, out, _ = run_cli(
        capsys, "vvmf", "--m", "7", "--n", "9", "--terms", "10", "--format", "json"
    )
    assert code == 0
    assert build_counts == {"minimal_form": 1, "raise_weight": 1}
    assert json.loads(out)["results"]["raising"]["second_ratio"] == "24/19"


@pytest.mark.parametrize("command", ["verify", "vvmf"])
def test_wronskian_verdict_is_the_battery_predicate(capsys, monkeypatch, command):
    # level 0 must give exactly n'/m, as criterion 3 requires, and a level
    # whose check raises is named with the error
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


def corrupt_e4(monkeypatch):
    # E4 corrupted at q^2, as the seeded-bug check does: Delta's two
    # formulas then disagree while the minimal form is being built
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
    assert check["detail"].startswith("InternalMismatch: Delta formulas disagree at q^2")


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
    fault = "InternalMismatch: Delta formulas disagree at q^2"
    for check in checks[:7]:
        assert check["pass"] is False, check["name"]
        assert fault in check["detail"], check["name"]
    for check in checks[1:7]:
        assert "(7,1): InternalMismatch" in check["detail"], check["name"]
    failed = sum(not c["pass"] for c in checks)
    assert payload["results"] == {"passed": 8 - failed, "failed": failed}


def test_usage_error_is_one_line_exit_2(capsys):
    code, out, err = run_cli(capsys, "solve", "--m", "6", "--n", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert err.strip().count("\n") == 0


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
