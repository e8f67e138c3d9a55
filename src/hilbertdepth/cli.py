"""Command-line front end: series expansion, depth reports, identity
verification, parameter-sweep tables, and two library sweeps' rows:
identities.sweep's for `verify` and multigrade.oracle_sweep's for `oracle`.
Each of those two commands checks its flags, makes one call and writes
the rows.  _COMMANDS declares every argument, and _parse reads argv against
it as argparse did (flags by unique prefixes, `--flag=value`); -h prints it.

Output is byte-deterministic for fixed arguments.  Exit codes: 0 when every
check in the invocation passed, 1 on a verification or oracle failure, 2 on
malformed arguments, and 141, with nothing on stderr, when the reader closes
the output pipe early.  JSON output emits integers beyond 53-bit magnitude
as decimal strings so no consumer silently rounds them.  Only `verify` loads
the identity catalog and only `oracle` the oracles; a failing `verify` sweep
stops at its first failing (n, d).
"""

from __future__ import annotations

import sys
from itertools import chain, islice
from types import SimpleNamespace
from typing import Iterable, Optional

from .ideals import FAMILIES, IdealSpec, depth_report
from .series import expansion

__all__ = ["main"]

_JSON_INT_LIMIT = 2 ** 53

_TABLE_HEADER = ("family", "n", "param", "numer_degree", "den_pow",
                 "depth", "closed_form", "agree")


def _json_safe(value):
    """value with every int beyond 53-bit magnitude as its decimal string;
    every list, tuple or dict is rebuilt, a tuple as a list."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value if abs(value) < _JSON_INT_LIMIT else str(value)
    if isinstance(value, (list, tuple)):
        return list(map(_json_safe, value))
    if isinstance(value, dict):
        return dict(zip(value, map(_json_safe, value.values())))
    return value


def _cell(value: object) -> str:
    return str(value).lower() if isinstance(value, bool) else str(value)


def _emit(args: SimpleNamespace, params: dict, body: dict,
          rows: Iterable[tuple], lines: Iterable[str],
          title: Optional[str] = None) -> None:
    """Write one command's result in the format args asks for.

    json: {"command", "params", **body}, made JSON-safe by one _json_safe
    walk; csv: `rows`, header first; plain: `lines` under a "# command
    title" banner (dropped by --quiet), the title defaulting to the params
    as key=value words.  Only the chosen representation is consumed, so
    `rows` and `lines` may be lazy.  So may a value in body: an iterator is
    written as a list, and the walk passes it by, so it must yield values
    that are JSON-safe already.
    """
    # json and csv are imported here, off the start-up path of plain output
    if args.format == "json":
        import json
        doc = {"command": args.command, "params": params, **body}
        # written a slice of chunks at a time: json.dumps would hold every
        # chunk of a long series at once, about 2 MiB at --upto 3000.  1024
        # chunks keep each slice under 70 KB there, below glibc's 128 KiB
        # mmap threshold; slices of 4096, up to 190 KB, were mapped afresh.
        # Every doc is a tree built afresh, so no reference can be circular,
        # and checking for one cost a quarter of the encoding time
        encoder = json.JSONEncoder(indent=2, default=list, check_circular=False)
        chunks = encoder.iterencode(_json_safe(doc))
        while text := "".join(islice(chunks, 1024)):
            sys.stdout.write(text)
        print()
    elif args.format == "csv":
        import csv
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
    else:
        if not args.quiet:
            if title is None:
                title = " ".join(f"{k}={v}" for k, v in params.items())
            print(f"# {args.command} {title}")
        for line in lines:
            print(line)


def _require(value: int, flag: str, low: int) -> None:
    if value < low:
        bound = "non-negative" if low == 0 else f">= {low}"
        raise ValueError(f"{flag} must be {bound}")


def parse_range(text: str) -> tuple[int, int]:
    """Inclusive range: '5' or '1..20'."""
    lo_s, sep, hi_s = text.partition("..")
    try:
        lo, hi = int(lo_s), int(hi_s if sep else lo_s)
    except ValueError:
        raise ValueError(f"invalid range {text!r}: need N or LO..HI") from None
    if not 1 <= lo <= hi:
        raise ValueError(f"invalid range {text!r}: need 1 <= lo <= hi")
    return lo, hi


def _family_fields(args: SimpleNamespace) -> tuple[str, ...]:
    """Fields after n of the chosen family; rejects another family's flag."""
    names = FAMILIES[args.ideal].__slots__[1:]
    for cls in FAMILIES.values():
        for name in cls.__slots__[1:]:
            if name not in names and getattr(args, name, None) is not None:
                raise ValueError(f"{args.ideal} does not take --{name}")
    return names


def _spec_from_args(args: SimpleNamespace) -> IdealSpec:
    cls = FAMILIES[args.ideal]
    names = _family_fields(args)
    values = [getattr(args, name) for name in names]
    if None in values:
        flags = " and ".join(f"--{name}" for name in names)
        raise ValueError(f"{args.ideal} requires {flags}")
    return cls(args.n, *values)


def _report_row(spec: IdealSpec) -> dict:
    """One depth-report row, keyed by _TABLE_HEADER in order.  The param of
    a one-parameter family is its value, of the others "t=..,s=.."."""
    rep = depth_report(spec)
    params = list(spec._asdict().items())[1:]
    return {
        "family": spec.family,
        "n": spec.n,
        "param": params[0][1] if len(params) == 1
                 else ",".join(f"{k}={v}" for k, v in params),
        "numer_degree": rep.series.numer.degree,
        "den_pow": rep.series.den_pow,
        "depth": rep.computed_depth,
        "closed_form": rep.closed_form_depth,
        "agree": rep.agree,
    }


def cmd_series(args: SimpleNamespace) -> int:
    spec = _spec_from_args(args)
    _require(args.upto, "--upto", 0)
    h = spec.series()
    numer = list(h.numer.coefficients)
    coeffs = expansion(h, args.upto)
    # each coefficient is made JSON-safe once, here; the coefficients and
    # the results that share them are iterators, which _emit does not walk
    shown = _json_safe(coeffs) if args.format == "json" else coeffs
    _emit(args, {"ideal": spec.family, **spec._asdict(), "upto": args.upto},
          {"numerator": numer, "den_pow": h.den_pow, "coefficients": iter(shown),
           "results": ({"k": k, "coefficient": c} for k, c in enumerate(shown))},
          chain([("field", "index", "value")],
                (("numer", j, c) for j, c in enumerate(numer)),
                [("den_pow", "", h.den_pow)],
                (("coefficient", k, c) for k, c in enumerate(coeffs))),
          (f"{key}: {value}" for key, value in
           (("numerator", numer), ("den_pow", h.den_pow), ("coefficients", coeffs))))
    return 0


def cmd_depth(args: SimpleNamespace) -> int:
    spec = _spec_from_args(args)
    row = _report_row(spec)
    _emit(args, {"ideal": spec.family, **spec._asdict()},
          {"depth": row["depth"], "closed_form": row["closed_form"],
           "agree": row["agree"], "results": [row]},
          [_TABLE_HEADER, tuple(row.values())],
          (f"{key}: {_cell(value)}" for key, value in row.items()))
    return 0 if row["agree"] else 1


# verify's identities as identities.sweep spells them, here so that parsing loads no catalog
_IDENTITIES = ("lemma-2.2", "prop-2.3", "lemma-4.1", "eq-chain", "theorem-1.4", "theorem-1.3")


def cmd_verify(args: SimpleNamespace) -> int:
    # imported here, so that no other command loads the identity catalog
    from . import identities

    _require(args.n_max, "--n-max", 1)
    _require(args.k_max or 0, "--k-max", 0)  # None is no window
    row = identities.sweep(args.identity, args.n_max, args.k_max)
    # a passing run leaves the counterexample cells empty
    cells = row["counterexample"] or dict.fromkeys(("at", "point", "lhs", "rhs"), "")
    tag, scope, cases, passed = row["identity"], row["params"], row["cases"], row["passed"]
    _emit(args, {"identity": args.identity, "n_max": args.n_max, "k_max": args.k_max},
          {"results": [row], "pass": passed},
          [("identity", "params", "cases", "passed",
            "ce_at", "ce_point", "ce_lhs", "ce_rhs"),
           (tag, scope, cases, passed, cells["at"],
            ";".join(str(p) for p in cells["point"]), cells["lhs"], cells["rhs"])],
          [f"PASS {tag}: {cases} cases over {scope}" if passed else
           f"FAIL {tag}: first counterexample at {cells['at']} "
           f"point={tuple(cells['point'])} lhs={cells['lhs']} rhs={cells['rhs']}"],
          title=f"{args.identity} n_max={args.n_max}")
    return 0 if passed else 1


def cmd_table(args: SimpleNamespace) -> int:
    (name,) = _family_fields(args)
    n_lo, n_hi = parse_range(args.n)
    cls = FAMILIES[args.ideal]
    text = getattr(args, name)
    # every parameter but the power s is at most n
    if text and name != "s" and parse_range(text)[0] > n_hi:
        raise ValueError(f"--{name} {text} holds no value <= n for any n in {args.n}")
    rows = []
    for n in range(n_lo, n_hi + 1):
        lo, hi = parse_range(text) if text else (1, n)
        if name != "s":
            hi = min(hi, n)
        rows.extend(_report_row(cls(n, p)) for p in range(lo, hi + 1))
    widths = [max(len(h), 12) for h in _TABLE_HEADER]
    _emit(args, {"ideal": args.ideal, "n": args.n, "d": args.d, "s": args.s},
          {"results": rows},
          chain([_TABLE_HEADER], (tuple(r.values()) for r in rows)),
          ("  ".join(_cell(c).ljust(w) for c, w in zip(cells, widths))
           for cells in chain([_TABLE_HEADER], (r.values() for r in rows))),
          title=f"{args.ideal} n={args.n}")
    return 0 if all(r["agree"] for r in rows) else 1


def cmd_oracle(args: SimpleNamespace) -> int:
    # imported here, so that no other command loads the oracles
    from . import multigrade

    _require(args.n_max, "--n-max", 1)
    _require(args.k_max, "--k-max", 0)
    _require(args.s_max, "--s-max", 1)
    _require(args.box, "--box", 0)
    rows = multigrade.oracle_sweep(args.n_max, args.k_max, args.s_max, args.box)
    all_ok = all(r["passed"] for r in rows)
    _emit(args, {"n_max": args.n_max, "k_max": args.k_max,
                 "s_max": args.s_max, "box": args.box},
          {"results": rows, "pass": all_ok},
          chain([tuple(rows[0])], (tuple(r.values()) for r in rows)),
          chain((f"{'PASS' if r['passed'] else 'FAIL'} {r['check']} {r['family']}: "
                 f"{r['specs']} specs, {r['cases']} cases" for r in rows),
                ["OVERALL " + ("PASS" if all_ok else "FAIL")]))
    return 0 if all_ok else 1


# The one place an argument is declared: _COMMANDS maps a command to (handler,
# summary, {name: (type, default, choices, help)}), and these two dicts are
# parts of it.  The type bool marks a switch, the default ... a required
# argument, and a name without dashes a positional one.
_COMMON_FLAGS = {"--format": (str, "plain", ("plain", "csv", "json"), "output format"),
                 "--quiet": (bool, False, None, "suppress the banner line in plain output"),
                 "--help": (bool, False, None, "show this help")}
_IDEAL_FLAGS = {"--ideal": (str, ..., tuple(FAMILIES), "ideal family"),
                "--n": (int, ..., None, "number of variables"),
                "--d": (int, None, None, "generator degree (veronese)"),
                "--s": (int, None, None, "ideal power (power families)"),
                "--t": (int, None, None, "cut parameter (hat families)")}
_COMMANDS = {
    "series": (cmd_series, "print the canonical series and its expansion", {
        **_IDEAL_FLAGS, "--upto": (int, 10, None, "highest coefficient index to print"),
        **_COMMON_FLAGS}),
    "depth": (cmd_depth, "scanned depth next to closed form", {**_IDEAL_FLAGS, **_COMMON_FLAGS}),
    "verify": (cmd_verify, "run one identity verifier over a range", {
        "identity": (str, ..., _IDENTITIES, "identity to verify"),
        "--n-max": (int, 10, None, "largest n of the sweep"),
        "--k-max": (int, None, None, "coefficient window for series identities (default n+10)"),
        **_COMMON_FLAGS}),
    "table": (cmd_table, "sweep a parameter grid of depth reports", {
        "--ideal": (str, ..., tuple(name for name, cls in FAMILIES.items()
                                    if len(cls.__slots__) == 2), "one-parameter family"),
        "--n": (str, ..., None, "range of n, e.g. 1..20 or 6"),
        "--d": (str, None, None, "range of d, clipped per n (default 1..n)"),
        "--s": (str, None, None, "range of s (default 1..n)"),
        **_COMMON_FLAGS}),
    "oracle": (cmd_oracle, "cross-check closed forms against enumeration", {
        "--n-max": (int, 4, None, "largest n"), "--k-max": (int, 10, None, "largest degree"),
        "--s-max": (int, 4, None, "largest power"), "--box": (int, 2, None, "box bound"),
        **_COMMON_FLAGS}),
}


def _help(args: SimpleNamespace) -> int:
    """The handler of -h and --help: the commands, or args.command's arguments."""
    table = _COMMANDS[args.command][2] if args.command else {
        name: (bool, None, None, summary) for name, (_, summary, _) in _COMMANDS.items()}
    print(f"usage: hilbertdepth {args.command or 'COMMAND'} [arguments]")
    for name, (kind, default, choices, text) in table.items():
        value = " {" + ",".join(choices) + "}" if choices else "" if kind is bool else " N"
        note = ("" if default is None or kind is bool else
                " (required)" if default is ... else f" (default {default})")
        print(f"  {name}{value}\n      {text}{note}")
    return 0


def _parse(argv: list[str]) -> SimpleNamespace:
    """argv read against _COMMANDS as argparse read it: flags by unique prefixes,
    values after `=` or as the next word, the last one winning; -h makes _help the handler."""
    names, values = {"command": (str, ..., _COMMANDS, ""), "--help": _COMMON_FLAGS["--help"]}, {}
    for word in (words := iter(argv)):
        free = [name for name in names if name[0] != "-" and name not in values]
        if "--" in values or word[:1] != "-" or word in ("-", "--"):
            # a positional argument takes a `--` before or just after it, and then every later word
            if word == "--" and "command" in values and "--" not in values and (
                    free or name[0] != "-" and name != "command"):
                values["--"] = True
                continue
            if not free:
                raise ValueError(f"unrecognized arguments: {word}")
            name, text = free[0], word
        else:  # -h is the one short flag, and argparse reads -hh as -h -h
            key, eq, text = (word.partition("=") if word[1] == "-"
                             else (word[1:].strip("h") and word or "--help", "", ""))
            hits = [key] if key in names else [name for name in names if name.startswith(key)]
            if len(hits) != 1:
                raise ValueError(f"unrecognized arguments: {word}")
            name, kind = hits[0], names[hits[0]][0]
            if kind is bool and eq:
                raise ValueError(f"argument {name}: ignored explicit argument {text!r}")
            if name == "--help":
                return SimpleNamespace(command=values.get("command"), handler=_help)
            if kind is not bool and not eq and (text := next(words, None)) is None:
                raise ValueError(f"argument {name}: expected one argument")
        kind, _, choices, _ = names[name]
        try:
            values[name] = value = kind is bool or kind(text)
        except ValueError:
            raise ValueError(f"argument {name}: invalid {kind.__name__} value: {text!r}") from None
        if choices is not None and value not in choices:
            raise ValueError(f"argument {name}: {text!r} is not one of {', '.join(choices)}")
        names.update(_COMMANDS[value][2] if name == "command" else {})
    values = {name: values.get(name, spec[1]) for name, spec in names.items() if name != "--help"}
    if missing := [name for name, value in values.items() if value is ...]:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(handler=_COMMANDS[values["command"]][0], **{
        name.lstrip("-").replace("-", "_"): value for name, value in values.items()})


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        status = args.handler(args)
        sys.stdout.flush()
        return status
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader left: stdout to devnull, so the exit flush cannot raise
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
