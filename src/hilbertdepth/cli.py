"""Command-line front end: series expansion, depth reports, identity
verification, parameter-sweep tables, and oracle cross-checks.

Output is byte-deterministic for fixed arguments.  Exit codes: 0 when every
check in the invocation passed, 1 on a verification or oracle failure, 2 on
malformed arguments.  JSON output emits integers beyond 53-bit magnitude as
decimal strings so no consumer silently rounds them.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, fields
from functools import partial
from itertools import chain
from typing import Callable, Optional

from .ideals import (
    FAMILIES,
    GeneratedHatPower,
    HatPower,
    IdealSpec,
    MaxPower,
    Veronese,
    depth_report,
    series_for,
)
from .identities import (
    VerificationResult,
    verify_eq_chain,
    verify_lemma_2_2,
    verify_lemma_4_1,
    verify_prop_2_3,
    verify_theorem_1_3,
    verify_theorem_1_4,
)
from .multigrade import (
    check_fine_guard,
    fine_series_formula,
    fine_series_oracle,
    hilbert_function_oracle,
)
from .series import coefficient

__all__ = ["main", "build_parser"]

_JSON_INT_LIMIT = 2 ** 53

_FAMILIES = tuple(FAMILIES)

_TABLE_HEADER = ("family", "n", "param", "numer_degree", "den_pow",
                 "depth", "closed_form", "agree")


def _json_safe(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value if abs(value) < _JSON_INT_LIMIT else str(value)
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    return value


def _emit_json(doc: dict) -> None:
    print(json.dumps(_json_safe(doc), indent=2))


def _emit_csv(header: tuple[str, ...], rows: list[tuple]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _banner(args: argparse.Namespace, text: str) -> None:
    if args.format == "plain" and not args.quiet:
        print(f"# {text}")


def parse_range(text: str) -> tuple[int, int]:
    """Inclusive range: '5' or '1..20'."""
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if not 1 <= lo <= hi:
        raise ValueError(f"invalid range {text!r}: need 1 <= lo <= hi")
    return lo, hi


def _spec_from_args(args: argparse.Namespace) -> IdealSpec:
    cls = FAMILIES[args.ideal]
    names = [f.name for f in fields(cls)][1:]
    values = [getattr(args, name) for name in names]
    if None in values:
        flags = " and ".join(f"--{name}" for name in names)
        raise ValueError(f"{args.ideal} requires {flags}")
    return cls(args.n, *values)


def _spec_params(spec: IdealSpec) -> dict:
    return {"ideal": spec.family, **asdict(spec)}


def _param_label(spec: IdealSpec) -> object:
    params = list(asdict(spec).items())[1:]
    if len(params) == 1:
        return params[0][1]
    return ",".join(f"{k}={v}" for k, v in params)


def _report_row(spec: IdealSpec) -> dict:
    rep = depth_report(spec)
    deg = rep.series.numer.degree
    return {
        "family": spec.family,
        "n": spec.n,
        "param": _param_label(spec),
        "numer_degree": int(deg) if deg != float("-inf") else -1,
        "den_pow": rep.series.den_pow,
        "depth": rep.computed_depth,
        "closed_form": rep.closed_form_depth,
        "agree": rep.agree,
    }


def _row_tuple(row: dict) -> tuple:
    return tuple(row[k] for k in _TABLE_HEADER)


def cmd_series(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    if args.upto < 0:
        raise ValueError("--upto must be non-negative")
    h = series_for(spec)
    numer = list(h.numer.coefficients)
    coeffs = [coefficient(h, k) for k in range(args.upto + 1)]
    params = _spec_params(spec)
    if args.format == "json":
        _emit_json({
            "command": "series",
            "params": {**params, "upto": args.upto},
            "numerator": numer,
            "den_pow": h.den_pow,
            "coefficients": coeffs,
            "results": [{"k": k, "coefficient": c} for k, c in enumerate(coeffs)],
        })
    elif args.format == "csv":
        rows = [("numer", j, c) for j, c in enumerate(numer)]
        rows.append(("den_pow", "", h.den_pow))
        rows.extend(("coefficient", k, c) for k, c in enumerate(coeffs))
        _emit_csv(("field", "index", "value"), rows)
    else:
        label = " ".join(f"{k}={v}" for k, v in params.items())
        _banner(args, f"series {label} upto={args.upto}")
        print(f"numerator: {numer}")
        print(f"den_pow: {h.den_pow}")
        print(f"coefficients: {coeffs}")
    return 0


def cmd_depth(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    row = _report_row(spec)
    params = _spec_params(spec)
    if args.format == "json":
        _emit_json({
            "command": "depth",
            "params": params,
            "depth": row["depth"],
            "closed_form": row["closed_form"],
            "agree": row["agree"],
            "results": [row],
        })
    elif args.format == "csv":
        _emit_csv(_TABLE_HEADER, [_row_tuple(row)])
    else:
        label = " ".join(f"{k}={v}" for k, v in params.items())
        _banner(args, f"depth {label}")
        for key in _TABLE_HEADER:
            value = row[key]
            print(f"{key}: {str(value).lower() if isinstance(value, bool) else value}")
    return 0 if row["agree"] else 1


def _sweep_pairs(verify: Callable[..., VerificationResult], n_max: int,
                 k_max: Optional[int]) -> tuple[str, int, Optional[dict]]:
    """Run verify(n, d, k) over 1 <= d <= n <= n_max, k defaulting to n + 10.

    Returns (range description, case count, first failure info or None);
    cases count verifier invocations.
    """
    cases = 0
    failure: Optional[dict] = None
    for n in range(1, n_max + 1):
        for d in range(1, n + 1):
            res = verify(n, d, k_max if k_max is not None else n + 10)
            cases += 1
            if not res.passed and failure is None:
                failure = _failure_info(res)
    return f"1 <= d <= n <= {n_max}", cases, failure


def _failure_info(res: VerificationResult) -> dict:
    ce = res.counterexample
    return {
        "at": res.params,
        "point": list(ce.params),
        "lhs": ce.lhs,
        "rhs": ce.rhs,
    }


def _sweep_theorem_1_3(n_max: int, k_max: Optional[int]) -> tuple[str, int, Optional[dict]]:
    res = verify_theorem_1_3(n_max)
    cases = 3 * n_max * (n_max + 1) // 2
    return res.params, cases, None if res.passed else _failure_info(res)


# Identity name -> sweep(n_max, k_max).  The lambdas look verifiers up by
# name at call time, so a verifier rebound on this module (a test double, a
# tracing wrapper) is the one that runs.
_VERIFIERS = {
    "lemma-2.2": partial(_sweep_pairs, lambda n, d, k: verify_lemma_2_2(n, d)),
    "prop-2.3": partial(_sweep_pairs, lambda n, d, k: verify_prop_2_3(n, d)),
    "lemma-4.1": partial(_sweep_pairs, lambda n, d, k: verify_lemma_4_1(n, d, k)),
    "eq-chain": partial(_sweep_pairs, lambda n, d, k: verify_eq_chain(n, d, k)),
    "theorem-1.4": partial(_sweep_pairs, lambda n, d, k: verify_theorem_1_4(n, d)),
    "theorem-1.3": _sweep_theorem_1_3,
}

_IDENTITIES = tuple(_VERIFIERS)


def cmd_verify(args: argparse.Namespace) -> int:
    identity = args.identity
    if args.n_max < 1:
        raise ValueError("--n-max must be >= 1")
    scope, cases, failure = _VERIFIERS[identity](args.n_max, args.k_max)
    passed = failure is None
    tag = identity.replace("-", "_").replace(".", "_")
    row = {
        "identity": tag,
        "params": scope,
        "cases": cases,
        "passed": passed,
        "counterexample": failure,
    }
    if args.format == "json":
        _emit_json({
            "command": "verify",
            "params": {"identity": identity, "n_max": args.n_max, "k_max": args.k_max},
            "results": [row],
            "pass": passed,
        })
    elif args.format == "csv":
        ce = failure or {}
        _emit_csv(
            ("identity", "params", "cases", "passed", "ce_at", "ce_point", "ce_lhs", "ce_rhs"),
            [(tag, scope, cases, passed,
              ce.get("at", ""), ";".join(str(p) for p in ce.get("point", [])),
              ce.get("lhs", ""), ce.get("rhs", ""))],
        )
    else:
        _banner(args, f"verify {identity} n_max={args.n_max}")
        if passed:
            print(f"PASS {tag}: {cases} cases over {scope}")
        else:
            print(f"FAIL {tag}: first counterexample at {failure['at']} "
                  f"point={tuple(failure['point'])} lhs={failure['lhs']} rhs={failure['rhs']}")
    return 0 if passed else 1


def cmd_table(args: argparse.Namespace) -> int:
    n_lo, n_hi = parse_range(args.n)
    rows = []
    for n in range(n_lo, n_hi + 1):
        if args.ideal == "veronese":
            p_lo, p_hi = parse_range(args.d) if args.d else (1, n)
            p_lo, p_hi = max(p_lo, 1), min(p_hi, n)
            specs = [Veronese(n, d) for d in range(p_lo, p_hi + 1)]
        else:
            p_lo, p_hi = parse_range(args.s) if args.s else (1, n)
            p_lo = max(p_lo, 1)
            specs = [MaxPower(n, s) for s in range(p_lo, p_hi + 1)]
        rows.extend(_report_row(spec) for spec in specs)
    all_agree = all(r["agree"] for r in rows)
    if args.format == "json":
        _emit_json({
            "command": "table",
            "params": {"ideal": args.ideal, "n": args.n,
                       "d": args.d, "s": args.s},
            "results": rows,
        })
    elif args.format == "csv":
        _emit_csv(_TABLE_HEADER, [_row_tuple(r) for r in rows])
    else:
        _banner(args, f"table {args.ideal} n={args.n}")
        widths = [max(len(h), 12) for h in _TABLE_HEADER]
        print("  ".join(h.ljust(w) for h, w in zip(_TABLE_HEADER, widths)))
        for r in rows:
            cells = [str(r[k]).lower() if isinstance(r[k], bool) else str(r[k])
                     for k in _TABLE_HEADER]
            print("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    return 0 if all_agree else 1


def _oracle_specs(n_max: int, s_max: int) -> dict[str, list[IdealSpec]]:
    return {
        "veronese": [Veronese(n, d)
                     for n in range(1, n_max + 1) for d in range(1, n + 1)],
        "max-power": [MaxPower(n, s)
                      for n in range(1, n_max + 1) for s in range(1, s_max + 1)],
        "hat-power": [HatPower(n, t, s)
                      for n in range(1, n_max + 1)
                      for t in range(1, n + 1)
                      for s in range(1, s_max + 1)],
        "generated-hat-power": [GeneratedHatPower(n, t, s)
                                for n in range(1, n_max + 1)
                                for t in range(1, n + 1)
                                for s in range(1, s_max + 1)],
    }


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.n_max < 1 or args.k_max < 0 or args.s_max < 1 or args.box < 0:
        raise ValueError("oracle bounds must be positive")
    specs = _oracle_specs(args.n_max, args.s_max)
    for spec in chain.from_iterable(specs.values()):
        check_fine_guard(spec.ambient, args.box)  # fail before the coarse pass
    rows = []
    for family, family_specs in specs.items():
        cases = 0
        ok = True
        for spec in family_specs:
            h = series_for(spec)
            for k in range(args.k_max + 1):
                cases += 1
                if hilbert_function_oracle(spec, k) != coefficient(h, k):
                    ok = False
        rows.append({"check": "coarse", "family": family,
                     "specs": len(family_specs), "cases": cases, "passed": ok})
    for family, family_specs in specs.items():
        cases = 0
        ok = True
        for spec in family_specs:
            formula = fine_series_formula(spec, args.box)
            oracle = fine_series_oracle(spec, args.box)
            cases += len(formula.coeffs)
            if formula != oracle:
                ok = False
            h = series_for(spec)
            sums = oracle.coarse_sums(args.box)
            for k in range(args.box + 1):
                cases += 1
                if sums[k] != coefficient(h, k):
                    ok = False
        rows.append({"check": "fine", "family": family,
                     "specs": len(family_specs), "cases": cases, "passed": ok})
    all_ok = all(r["passed"] for r in rows)
    if args.format == "json":
        _emit_json({
            "command": "oracle",
            "params": {"n_max": args.n_max, "k_max": args.k_max,
                       "s_max": args.s_max, "box": args.box},
            "results": rows,
            "pass": all_ok,
        })
    elif args.format == "csv":
        _emit_csv(("check", "family", "specs", "cases", "passed"),
                  [(r["check"], r["family"], r["specs"], r["cases"], r["passed"])
                   for r in rows])
    else:
        _banner(args, f"oracle n_max={args.n_max} k_max={args.k_max} "
                      f"s_max={args.s_max} box={args.box}")
        for r in rows:
            word = "PASS" if r["passed"] else "FAIL"
            print(f"{word} {r['check']} {r['family']}: "
                  f"{r['specs']} specs, {r['cases']} cases")
        print("OVERALL " + ("PASS" if all_ok else "FAIL"))
    return 0 if all_ok else 1


def _add_format_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", choices=["plain", "csv", "json"], default="plain",
                    help="output format (default plain)")
    sp.add_argument("--quiet", action="store_true",
                    help="suppress the banner line in plain output")


def _add_ideal_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--ideal", required=True, choices=_FAMILIES)
    sp.add_argument("--n", type=int, required=True, help="number of variables")
    sp.add_argument("--d", type=int, help="generator degree (veronese)")
    sp.add_argument("--s", type=int, help="ideal power (power families)")
    sp.add_argument("--t", type=int, help="cut parameter (hat families)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilbertdepth",
        description="Exact Hilbert series and Hilbert depth computations "
                    "for four families of monomial ideals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("series", help="print the canonical series and its expansion")
    _add_ideal_args(sp)
    sp.add_argument("--upto", type=int, default=10,
                    help="highest coefficient index to print (default 10)")
    _add_format_args(sp)
    sp.set_defaults(handler=cmd_series)

    sp = sub.add_parser("depth", help="scanned depth next to the closed form")
    _add_ideal_args(sp)
    _add_format_args(sp)
    sp.set_defaults(handler=cmd_depth)

    sp = sub.add_parser("verify", help="run one identity verifier over a range")
    sp.add_argument("identity", choices=_IDENTITIES)
    sp.add_argument("--n-max", type=int, default=10)
    sp.add_argument("--k-max", type=int, default=None,
                    help="coefficient window for series identities (default n+10)")
    _add_format_args(sp)
    sp.set_defaults(handler=cmd_verify)

    sp = sub.add_parser("table", help="sweep a parameter grid of depth reports")
    sp.add_argument("--ideal", required=True, choices=["veronese", "max-power"])
    sp.add_argument("--n", required=True, help="range of n, e.g. 1..20 or 6")
    sp.add_argument("--d", help="range of d, clipped per n (default 1..n)")
    sp.add_argument("--s", help="range of s (default 1..n)")
    _add_format_args(sp)
    sp.set_defaults(handler=cmd_table)

    sp = sub.add_parser("oracle", help="cross-check closed forms against enumeration")
    sp.add_argument("--n-max", type=int, default=4)
    sp.add_argument("--k-max", type=int, default=10)
    sp.add_argument("--s-max", type=int, default=4)
    sp.add_argument("--box", type=int, default=2)
    _add_format_args(sp)
    sp.set_defaults(handler=cmd_oracle)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
