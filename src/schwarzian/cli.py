"""Command-line interface: solve, verify, vvmf, eval, selftest.

Every subcommand emits either human-readable text (default) or JSON
(``--format json``).  The JSON payload always has the same top-level shape:

    {"command": ..., "params": {...}, "results": {...}, "checks": [...]}

with every exact rational rendered as a fraction string ("-1/98") and every
complex value as {"re": ..., "im": ...} decimal strings.  Exit status is 0
when all reported checks pass, 1 when a verification check fails, and 2 for
unusable input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Any

from . import acceptance, numeric, solver, vvmf
from .acceptance import CheckResult, failure, verdict
from .errors import (
    DivergentSeries,
    InvalidParameters,
    NotUpperHalfPlane,
    OutsideDisk,
    SchwarzianError,
    VerificationError,
)


def _rat(value: Any) -> str:
    return str(Fraction(value))


def _cplx(value: complex) -> dict[str, str]:
    z = complex(value)
    return {"re": repr(z.real), "im": repr(z.imag)}


def _parse_tau(text: str) -> complex:
    cleaned = text.strip().replace(" ", "")
    if cleaned.endswith("i"):  # only the imaginary unit, so "inf" still parses
        cleaned = cleaned[:-1] + "j"
    try:
        value = complex(cleaned)
    except ValueError:
        raise InvalidParameters(
            f"could not parse tau {text!r}; expected something like '0.3+1.2i'"
        ) from None
    return value


def _emit(
    args: argparse.Namespace,
    params: dict[str, Any],
    results: dict[str, Any],
    checks: list[CheckResult],
) -> int:
    payload = {
        "command": args.command,
        "params": params,
        "results": results,
        "checks": [{"name": c.name, "pass": c.passed, "detail": c.detail} for c in checks],
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"{args.command}  " + "  ".join(f"{k}={v}" for k, v in params.items()))
        for key, value in results.items():
            if isinstance(value, list):
                print(f"{key}:")
                for item in value:
                    print(f"  {item}")
            elif isinstance(value, dict):
                print(f"{key}: " + ", ".join(f"{k}={v}" for k, v in value.items()))
            else:
                print(f"{key}: {value}")
        for check in checks:
            mark = "PASS" if check.passed else "FAIL"
            print(f"[{mark}] {check.name} - {check.detail}")
    return 0 if all(c.passed for c in checks) else 1


def _wronskian_verdict(
    rep: vvmf.ReprData,
    r: int,
    levels: list[tuple[Fraction, int]],
    stopped: str | None,
) -> CheckResult:
    """wronskian-delta-power from the (c, e) of the levels before ``stopped``."""
    problems = acceptance.wronskian_problems(rep, levels)
    if len(levels) <= r:
        problems.append(f"level {len(levels)}: {stopped}")
    detail = f"levels 0..{r}" + "".join(
        f"; level {lvl}: c={c}, Delta^{e}" for lvl, (c, e) in enumerate(levels)
    )
    return verdict("wronskian-delta-power", detail, problems)


def _cmd_solve(args: argparse.Namespace) -> int:
    params = {"m": args.m, "n": args.n, "terms": args.terms}
    try:
        bundle = solver.solve(args.m, args.n, args.terms)
    except VerificationError as exc:
        return _emit(
            args, params, {}, [CheckResult("solution-verification", False, failure(exc))]
        )
    results = {
        "offset": _rat(bundle.h.offset),
        "n_prime": bundle.n_prime,
        "raises": bundle.r,
        "weight": bundle.weight,
        "h_coefficients": [_rat(c) for c in bundle.h.body.coeffs],
        "schwarz_constant": _rat(bundle.schwarz_constant),
        "ode_parameter": _rat(bundle.ode_parameter),
        "wronskians": [
            {"level": lvl, "constant": _rat(c), "delta_power": e}
            for lvl, (c, e) in enumerate(bundle.wronskians)
        ],
        "note": solver.CONVENTION_NOTE,
    }
    check = CheckResult(
        "solution-verification",
        True,
        f"Wronskian, Schwarzian and ODE identities verified exactly "
        f"through order {args.terms}",
    )
    return _emit(args, params, results, [check])


def _cmd_verify(args: argparse.Namespace) -> int:
    params = {"m": args.m, "n": args.n, "terms": args.terms}
    rep, r = solver._parameters(args.m, args.n, args.terms)
    results = {"n_prime": rep.n_prime, "raises": r}
    try:
        form = vvmf.minimal_form(rep, args.terms + r)
    except VerificationError as exc:
        return _emit(args, params, results, [CheckResult("construction", False, failure(exc))])
    checks = [
        verdict(
            "minimal-form-shape",
            f"weight {form.weight}, exponents {form.first.offset}, {form.second.offset}",
            acceptance.shape_problems(form),
        )
    ]

    # the solver raises the form built here and appends each level's
    # Wronskian (c, e) as it passes
    levels: list[tuple[Fraction, int]] = []
    bundle, stopped = None, None
    try:
        bundle = solver._verified(form, r, levels)
    except VerificationError as exc:
        stopped = failure(exc)
    checks.append(_wronskian_verdict(rep, r, levels, stopped))
    if bundle is None:
        checks.append(CheckResult("schwarzian-proportionality", False, stopped))
        return _emit(args, params, results, checks)
    checks.append(
        verdict(
            "schwarzian-proportionality",
            f"{{h}} = {bundle.schwarz_constant} * E4",
            acceptance.schwarzian_problems(bundle),
        )
    )
    checks.append(
        CheckResult(
            "ode-solutions",
            True,
            f"h y2 satisfies D^2 y + ({bundle.ode_parameter}) E4 y = 0 for the "
            f"Frobenius solution y2 = q^(-n/2m)(1 + ...), so h = y1/y2",
        )
    )
    return _emit(args, params, results, checks)


def _cmd_vvmf(args: argparse.Namespace) -> int:
    params = {"m": args.m, "n": args.n, "terms": args.terms}
    rep, r = solver._parameters(args.m, args.n, args.terms)
    results: dict[str, Any] = {"n_prime": rep.n_prime, "raises": r}
    try:
        form = vvmf.minimal_form(rep, args.terms + r)
        # level 1, built once: it gives the raising constants and, when
        # r >= 1, the first raised level of the chain below
        lifted = vvmf.raise_weight(form)
    except VerificationError as exc:
        return _emit(args, params, results, [CheckResult("construction", False, failure(exc))])
    c1, c2 = vvmf.raising_ratios(form, lifted)
    c1_closed = vvmf.c1_closed_form(rep.m, rep.n_prime)
    c2_closed = vvmf.c2_closed_form(rep.m, rep.n_prime)

    chain, wronskians, stopped = [form, lifted], [], None
    try:
        for level in range(r + 1):
            if level == len(chain):
                chain.append(vvmf.raise_weight(chain[-1]))
            wronskians.append(vvmf.wronskian_check(chain[level]))
    except VerificationError as exc:
        stopped = failure(exc)
    checks = [
        _wronskian_verdict(rep, r, wronskians, stopped),
        verdict(
            "raising-ratios",
            f"computed {c1}, {c2}; closed forms -144(5m+6n')/(m+n') = {c1_closed}, "
            f"12n'/(m+6n') = {c2_closed}",
            acceptance.raising_problems(rep, c1, c2),
        ),
    ]

    results.update(
        weight=int(5 + 6 * r),
        levels=[
            {
                "level": level,
                "weight": int(current.weight),
                "first_exponent": _rat(current.first.offset),
                "second_exponent": _rat(current.second.offset),
                "first_leading": _rat(current.first.leading),
                "second_leading": _rat(current.second.leading),
                "wronskian_constant": _rat(c),
                "delta_power": e,
            }
            for level, (current, (c, e)) in enumerate(zip(chain, wronskians))
        ],
        raising={
            "second_ratio": _rat(c2),
            "second_ratio_closed_form": _rat(c2_closed),
            "first_ratio": _rat(c1),
            "first_ratio_closed_form": _rat(c1_closed),
        },
    )
    return _emit(args, params, results, checks)


def _cmd_eval(args: argparse.Namespace) -> int:
    tau = _parse_tau(args.tau)
    params = {"m": args.m, "n": args.n, "terms": args.terms, "tau": args.tau}
    if args.precision is not None:
        params["precision"] = args.precision
    try:
        report = numeric.cross_check(
            args.m, args.n, tau, args.terms, precision=args.precision
        )
    except (OutsideDisk, DivergentSeries) as exc:
        return _emit(args, params, {}, [CheckResult("routes-agree", False, str(exc))])
    results = {
        "via_series": _cplx(report.via_series),
        "via_hypergeom": _cplx(report.via_hypergeom),
        "rel_error": repr(report.rel_error),
        "terms_used": report.terms_used,
        "tail_bound": repr(report.tail_bound),
    }
    check = CheckResult(
        "routes-agree",
        report.rel_error < args.tolerance,
        f"rel_error {report.rel_error:.3e} vs tolerance {args.tolerance:g}",
    )
    return _emit(args, params, results, [check])


def _cmd_selftest(args: argparse.Namespace) -> int:
    outcomes = acceptance.run_all()
    results = {
        "passed": sum(1 for o in outcomes if o.passed),
        "failed": sum(1 for o in outcomes if not o.passed),
    }
    return _emit(args, {}, results, outcomes)


def _add_common(sub: argparse.ArgumentParser, with_mn: bool = True) -> None:
    if with_mn:
        sub.add_argument("--m", type=int, required=True, help="denominator, >= 7")
        sub.add_argument(
            "--n", type=int, required=True, help="numerator, coprime to m"
        )
        sub.add_argument(
            "--terms", type=int, default=40, help="tracked series coefficients"
        )
    sub.add_argument(
        "--format",
        choices=("json", "text"),
        default="text",
        help="output format",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schwarzian",
        description=(
            "Exact hypergeometric solutions of the modular Schwarzian "
            "equation {h, tau} = s E4, with every identity re-verified in "
            "rational arithmetic"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="construct and verify h for n/m")
    _add_common(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="re-run each identity check for n/m")
    _add_common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_vvmf = sub.add_parser(
        "vvmf", help="inspect the vector form: exponents, Wronskians, raising"
    )
    _add_common(p_vvmf)
    p_vvmf.set_defaults(func=_cmd_vvmf)

    p_eval = sub.add_parser(
        "eval", help="evaluate h at tau by series and closed form, compare"
    )
    _add_common(p_eval)
    p_eval.add_argument(
        "--tau", required=True, help="evaluation point, e.g. '2i' or '0.3+1.2i'"
    )
    p_eval.add_argument(
        "--precision",
        type=int,
        default=None,
        help="bits of working precision (default: complex doubles)",
    )
    p_eval.add_argument(
        "--tolerance",
        type=float,
        default=1e-9,
        help="relative agreement required between the two routes",
    )
    p_eval.set_defaults(func=_cmd_eval)

    p_self = sub.add_parser("selftest", help="run the full acceptance battery")
    _add_common(p_self, with_mn=False)
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidParameters, NotUpperHalfPlane) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SchwarzianError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
