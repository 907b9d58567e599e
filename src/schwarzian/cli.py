"""Command-line interface: solve, verify, vvmf, eval, selftest.

Every subcommand emits either human-readable text (default) or JSON
(``--format json``).  The JSON payload always has the same top-level shape:

    {"command": ..., "params": {...}, "results": {...}, "checks": [...]}

with every exact rational rendered in full as a fraction string ("-1/98"),
however many digits it has, and every complex value as
{"re": ..., "im": ...} decimal strings.  Exit status is 0 when all reported
checks pass, 1 when a verification check fails, and 2 for unusable input.

``verify`` and ``vvmf`` report on the level chain of ``acceptance.walk``,
which criteria 2-4 of the acceptance battery read too.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import partial
from typing import Any

from . import acceptance, numeric, solver
from .acceptance import CheckResult, failure, ratio_problems, verdict
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


def _walk(args: argparse.Namespace, top: int, report) -> int:
    """``verify`` and ``vvmf``: ``acceptance.walk`` of (m, n) to level
    max(r, top).  Only a failure of the minimal form is reported as
    ``construction``.  Under wronskian-delta-power, a failed check at level
    k <= r reads ``level k: ...``, and a raise refused there reads as
    ``vvmf.VectorForm`` refused it, which names level k once.
    ``report(walk, results)`` fails each check that needs a level not built
    with the refusal's text.
    """
    params = {"m": args.m, "n": args.n, "terms": args.terms}
    rep, r = solver._parameters(args.m, args.n, args.terms)
    results: dict[str, Any] = {"n_prime": rep.n_prime, "raises": r}
    walk = acceptance.walk(rep, args.terms, r, top)
    if not walk.forms:
        return _emit(args, params, results, [CheckResult("construction", False, walk.stopped)])
    return _emit(args, params, results, report(walk, results))


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
    detail = (
        f"both components of the minimal form solve its modular differential "
        f"equation exactly through order {args.terms}, which fixes the "
        f"Wronskian, the Schwarzian and h = y1/y2"
    )
    if bundle.r:
        detail = (
            f"both components of the minimal form, and its second component "
            f"raised to each of levels 1..{bundle.r}, solve that level's modular "
            f"differential equation exactly through order {args.terms}; h is read "
            f"from level {bundle.r}'s second component by reduction of order, "
            f"which fixes the Schwarzian and h = y1/y2; the Wronskian constants "
            f"are in closed form"
        )
    check = CheckResult("solution-verification", True, detail)
    return _emit(args, params, results, [check])


def _verify_checks(walk: acceptance.Walk, results: dict[str, Any]) -> list[CheckResult]:
    """The minimal form's shape, which ``VectorForm`` checked, W at every
    level, and {h} and h y2's ODE residual, computed literally from h by the
    battery's predicates; no MLDE is checked past level 0."""
    form = walk.forms[0]
    checks = [
        CheckResult(
            "minimal-form-shape",
            True,
            f"weight {form.weight}, exponents {form.first.offset}, {form.second.offset}",
        ),
        walk.wronskian_verdict(),
    ]
    if len(walk.forms) <= walk.r:  # there is no h
        names = ("schwarzian-proportionality", "ode-solutions")
        return checks + [CheckResult(name, False, walk.stopped) for name in names]
    bundle = solver._bundle(walk.forms[walk.r])
    literal = {
        "schwarzian-proportionality": (
            f"{{h}} = {bundle.schwarz_constant} * E4 through {bundle.h.order} terms",
            acceptance.schwarzian_problems,
        ),
        "ode-solutions": (
            f"h y2 satisfies D^2 y + ({bundle.ode_parameter}) E4 y = 0 for the "
            f"Frobenius solution y2 = q^(-n/2m)(1 + ...), so h = y1/y2, "
            f"through {bundle.h.order} terms",
            acceptance.ode_problems,
        ),
    }
    for name, (detail, problems_of) in literal.items():
        try:
            problems = problems_of(bundle)
        except VerificationError as exc:
            problems = [failure(exc)]
        checks.append(verdict(name, detail, problems))
    return checks


def _vvmf_checks(walk: acceptance.Walk, results: dict[str, Any]) -> list[CheckResult]:
    """W at every level and the raising constants from levels 0 and 1,
    against their closed forms; the levels reached go into ``results``."""
    results.update(
        weight=int(5 + 6 * walk.r),
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
            for level, current, c, e in walk.checked()
        ],
    )
    ratios = walk.raising_ratios()
    if ratios is None:
        missing = CheckResult("raising-ratios", False, walk.stopped)
        return [walk.wronskian_verdict(), missing]
    (c1, c1_closed), (c2, c2_closed) = ratios
    results["raising"] = {
        "second_ratio": _rat(c2),
        "second_ratio_closed_form": _rat(c2_closed),
        "first_ratio": _rat(c1),
        "first_ratio_closed_form": _rat(c1_closed),
    }
    return [
        walk.wronskian_verdict(),
        verdict(
            "raising-ratios",
            f"computed {c1}, {c2}; closed forms -144(5m+6n')/(m+n') = {c1_closed}, "
            f"12n'/(m+6n') = {c2_closed}",
            ratio_problems(ratios),
        ),
    ]


def _cmd_eval(args: argparse.Namespace) -> int:
    if not 0 < args.tolerance < float("inf"):
        raise InvalidParameters(f"tolerance must be finite and > 0, got {args.tolerance}")
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
        "terms_used": args.terms,
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
    p_verify.set_defaults(func=partial(_walk, top=0, report=_verify_checks))

    p_vvmf = sub.add_parser(
        "vvmf", help="inspect the vector form: exponents, Wronskians, raising"
    )
    _add_common(p_vvmf)
    p_vvmf.set_defaults(func=partial(_walk, top=1, report=_vvmf_checks))

    p_eval = sub.add_parser(
        "eval", help="evaluate h at tau by series and closed form, compare"
    )
    _add_common(p_eval)
    p_eval.add_argument(
        "--tau", required=True, help="evaluation point, e.g. '2i' or '-0.49+0.9i'"
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
    argv = list(sys.argv[1:] if argv is None else argv)
    while "--tau" in argv[:-1]:  # else argparse reads a leading minus as an option
        i = argv.index("--tau")
        argv[i : i + 2] = [f"--tau={argv[i + 1]}"]
    parser = build_parser()
    args = parser.parse_args(argv)
    # print rationals in full; the int-to-str limit (Python >= 3.10.7) is back on return
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (InvalidParameters, NotUpperHalfPlane) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SchwarzianError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
