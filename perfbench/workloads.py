"""Seeded workload definitions and the independent checks of their outputs.

Every expected value here comes from math.comb and integer formulas; this
module never imports hilbertdepth, so a defect in the package cannot hide
inside its own check.  A seed picks each parameter inside a narrow fixed
band, so two seeds cost about the same and the run-to-run spread of the
timings stays small.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

DEFAULT_SEED = 1

class Mismatch(Exception):
    """An output that differs from its independently computed expectation."""


@dataclass(frozen=True)
class CliCase:
    """One CLI invocation and the check its stdout must pass."""

    argv: tuple[str, ...]
    check: Callable[[str], None]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class TailCase:
    """A non-family series P/(1-T)^m with a known non-negativity verdict.

    depth is the known Hilbert depth when the series is non-negative, and
    None when it is not (hilbert_depth would reject it).
    """

    numer: tuple[int, ...]
    den_pow: int
    nonnegative: bool
    depth: Optional[int]


def _expect(label: str, got: object, want: object) -> None:
    if got != want:
        raise Mismatch(f"{label}: got {got!r}, want {want!r}")


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# ---------------------------------------------------------------- families

def family_depth(family: str, n: int, p: dict[str, int]) -> int:
    """Closed-form depth: ceil(n/(s+1)) for max-power, the Veronese formula,
    and the max-power formula in n-t+1 variables for the hat families."""
    if family == "veronese":
        d = p["d"]
        return d - 1 + _ceil_div(n - d + 1, d + 1)
    if family == "max-power":
        return _ceil_div(n, p["s"] + 1)
    depth = _ceil_div(n - p["t"] + 1, p["s"] + 1)
    return depth + p["t"] - 1 if family == "generated-hat-power" else depth


def family_den_pow(family: str, n: int, p: dict[str, int]) -> int:
    return n - p["t"] + 1 if family == "hat-power" else n


def family_numer_degree(family: str, n: int, p: dict[str, int]) -> int:
    """Degree of the canonical numerator.  For the power families it is
    (s-1) + (number of variables of the (1-T) power); for Veronese(n, d) the
    T^n coefficient is (-1)^(n-d) C(n-1, d-1), which is never 0."""
    if family == "veronese":
        return n
    if family == "max-power":
        return n + p["s"] - 1
    return n - p["t"] + p["s"]


def family_coefficient(family: str, n: int, p: dict[str, int], k: int) -> int:
    """Number of degree-k monomials in the ideal, counted combinatorially."""
    if family == "veronese":
        # monomials with exactly j positive exponents: C(n, j) C(k-1, j-1)
        if k == 0:
            return 0
        return sum(math.comb(n, j) * math.comb(k - 1, j - 1)
                   for j in range(p["d"], min(n, k) + 1))
    if family == "max-power":
        return math.comb(n + k - 1, k) if k >= p["s"] else 0
    v = n - p["t"] + 1
    if family == "hat-power" or p["t"] == 1:
        return math.comb(v + k - 1, k) if k >= p["s"] else 0
    # first v exponents carry degree j >= s, the other t-1 carry k-j
    w = p["t"] - 1
    return sum(math.comb(v + j - 1, j) * math.comb(w + k - j - 1, k - j)
               for j in range(p["s"], k + 1))


def _ideal_argv(family: str, n: int, p: dict[str, int]) -> tuple[str, ...]:
    out = ["--ideal", family, "--n", str(n)]
    for name in ("d", "t", "s"):
        if name in p:
            out += [f"--{name}", str(p[name])]
    return tuple(out)


def _param_label(family: str, p: dict[str, int]) -> str:
    if family == "veronese":
        return str(p["d"])
    if family == "max-power":
        return str(p["s"])
    return f"t={p['t']},s={p['s']}"


def _plain_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.startswith("# ")]


def _as_int(value: object) -> int:
    # JSON output writes integers beyond 2^53 as decimal strings
    return int(value)  # type: ignore[arg-type]


# ------------------------------------------------------------------ checks

def depth_case(family: str, n: int, p: dict[str, int], fmt: str = "plain") -> CliCase:
    argv = ("depth",) + _ideal_argv(family, n, p)
    if fmt != "plain":
        argv += ("--format", fmt)
    want = {
        "family": family,
        "n": str(n),
        "param": _param_label(family, p),
        "numer_degree": str(family_numer_degree(family, n, p)),
        "den_pow": str(family_den_pow(family, n, p)),
        "depth": str(family_depth(family, n, p)),
        "closed_form": str(family_depth(family, n, p)),
        "agree": "true",
    }

    def check(text: str) -> None:
        if fmt == "json":
            row = json.loads(text)["results"][0]
            got = {k: str(v).lower() if isinstance(v, bool) else str(v)
                   for k, v in row.items()}
        else:
            got = dict(line.split(": ", 1) for line in _plain_lines(text))
        _expect("depth report", got, want)

    return CliCase(argv, check)


def verify_case(identity: str, n_max: int) -> CliCase:
    argv = ("verify", identity, "--n-max", str(n_max))
    cases = n_max * (n_max + 1) // 2 * (3 if identity == "theorem-1.3" else 1)
    tag = identity.replace("-", "_").replace(".", "_")

    def check(text: str) -> None:
        lines = _plain_lines(text)
        _expect("verify line count", len(lines), 1)
        head = lines[0].split(" over ", 1)[0]
        _expect("verify verdict", head, f"PASS {tag}: {cases} cases")

    return CliCase(argv, check)


def table_case(family: str, n_hi: int, fmt: str) -> CliCase:
    argv = ("table", "--ideal", family, "--n", f"1..{n_hi}")
    if fmt != "plain":
        argv += ("--format", fmt)
    pname = "d" if family == "veronese" else "s"
    want = []
    for n in range(1, n_hi + 1):
        for value in range(1, n + 1):
            p = {pname: value}
            depth = family_depth(family, n, p)
            want.append([family, str(n), str(value),
                         str(family_numer_degree(family, n, p)),
                         str(family_den_pow(family, n, p)),
                         str(depth), str(depth), "True" if fmt == "csv" else "true"])

    def check(text: str) -> None:
        lines = _plain_lines(text)
        sep = "," if fmt == "csv" else None
        rows = [line.split(sep) for line in lines[1:]]
        _expect("table rows", len(rows), len(want))
        for got, exp in zip(rows, want):
            _expect("table row", got, exp)

    return CliCase(argv, check)


def _oracle_specs(n_max: int, s_max: int) -> dict[str, list[int]]:
    """Ambient variable count of each spec the oracle sweeps, per family."""
    return {
        "veronese": [n for n in range(1, n_max + 1) for _ in range(n)],
        "max-power": [n for n in range(1, n_max + 1) for _ in range(s_max)],
        "hat-power": [n - t + 1 for n in range(1, n_max + 1)
                      for t in range(1, n + 1) for _ in range(s_max)],
        "generated-hat-power": [n for n in range(1, n_max + 1)
                                for _ in range(1, n + 1) for _ in range(s_max)],
    }


def oracle_case(n_max: int, k_max: int, box: int, s_max: int = 4) -> CliCase:
    argv = ("oracle", "--n-max", str(n_max), "--k-max", str(k_max),
            "--s-max", str(s_max), "--box", str(box))
    specs = _oracle_specs(n_max, s_max)
    want = [f"PASS coarse {f}: {len(v)} specs, {len(v) * (k_max + 1)} cases"
            for f, v in specs.items()]
    want += [f"PASS fine {f}: {len(v)} specs, "
             f"{sum((box + 1) ** m + box + 1 for m in v)} cases"
             for f, v in specs.items()]
    want.append("OVERALL PASS")

    def check(text: str) -> None:
        _expect("oracle lines", _plain_lines(text), want)

    return CliCase(argv, check)


def series_case(family: str, n: int, p: dict[str, int], upto: int,
                sample: list[int], fmt: str = "plain") -> CliCase:
    argv = ("series",) + _ideal_argv(family, n, p) + ("--upto", str(upto))
    if fmt != "plain":
        argv += ("--format", fmt)
    want = {k: family_coefficient(family, n, p, k) for k in sample}
    den_pow = family_den_pow(family, n, p)

    def check(text: str) -> None:
        if fmt == "json":
            doc = json.loads(text)
            coeffs = [_as_int(c) for c in doc["coefficients"]]
            got_den = doc["den_pow"]
        else:
            fields = dict(line.split(": ", 1) for line in _plain_lines(text))
            coeffs = json.loads(fields["coefficients"])
            got_den = int(fields["den_pow"])
        _expect("series den_pow", got_den, den_pow)
        _expect("series length", len(coeffs), upto + 1)
        for k, value in want.items():
            _expect(f"series coefficient {k}", coeffs[k], value)

    return CliCase(argv, check)


# --------------------------------------------------------------- workloads

def setup_case() -> CliCase:
    """The trivial case whose cold start is the benchmark's set-up time."""
    return depth_case("max-power", 1, {"s": 1})


def _deal(rng: random.Random, values: tuple[int, ...]) -> list[int]:
    """The values in a seeded order.  Cases that deal out one fixed set of
    offsets cost about the same in total, whichever seed is drawn."""
    out = list(values)
    rng.shuffle(out)
    return out


def depth_large(rng: random.Random) -> list[CliCase]:
    """Four deep scans (s = 3 or d = 3, depth about n/4) and two shallow ones
    (s within a few of the variable count, depth 1 to 5).  The max-power
    scan has fixed parameters and is the slowest case by a margin, so the
    seed does not move slowest_case_s."""
    dn = _deal(rng, (-2, 0, 2))
    dt = _deal(rng, (-2, 2))
    n_shallow = 400 + rng.randint(-4, 4)
    t_shallow = 2 + rng.randint(0, 2)
    return [
        depth_case("max-power", 240, {"s": 3}),
        depth_case("veronese", 200 + dn[0], {"d": 3}, fmt="json"),
        depth_case("hat-power", 230 + dn[1], {"t": 20 + dt[0], "s": 3}),
        depth_case("generated-hat-power", 200 + dn[2], {"t": 30 + dt[1], "s": 3}),
        depth_case("max-power", n_shallow, {"s": n_shallow - rng.randint(0, 8)}),
        depth_case("generated-hat-power", n_shallow,
                   {"t": t_shallow, "s": n_shallow - t_shallow - rng.randint(0, 8)}),
    ]


def sweep_small(rng: random.Random) -> list[CliCase]:
    """Every verify identity at n-max 29 to 32, and both tables over n from
    1 to 28 or 29.  Identities of similar cost share one set of n-max
    values.  theorem-1.3 has a fixed n-max and is the slowest case by a
    margin, so the seed does not move slowest_case_s."""
    cases = []
    for identities, n_maxes in ((("lemma-2.2", "lemma-4.1"), (30, 32)),
                                (("prop-2.3", "eq-chain"), (30, 32))):
        cases += [verify_case(identity, n_max)
                  for identity, n_max in zip(identities, _deal(rng, n_maxes))]
    cases.append(verify_case("theorem-1.4", 30 + rng.randint(-1, 1)))
    cases.append(verify_case("theorem-1.3", 31))
    n_hi = _deal(rng, (28, 29))
    cases.append(table_case("max-power", n_hi[0], "plain"))
    cases.append(table_case("veronese", n_hi[1], "csv"))
    return cases


def oracle_enum(rng: random.Random) -> list[CliCase]:
    """Oracle sweeps over 4 and 5 variables plus long series expansions."""
    box = _deal(rng, (3, 4))
    cases = [
        oracle_case(5, 10, box[0]),
        oracle_case(5, 10, box[1]),
        oracle_case(4, 14 + rng.randint(-1, 1), 3),
    ]
    for family, n, p, fmt in (
        ("veronese", 30 + rng.randint(-2, 2), {"d": 4 + rng.randint(0, 2)}, "plain"),
        ("max-power", 30 + rng.randint(-2, 2), {"s": 5 + rng.randint(0, 3)}, "plain"),
        ("generated-hat-power", 30 + rng.randint(-2, 2),
         {"t": 8 + rng.randint(0, 4), "s": 5 + rng.randint(0, 3)}, "json"),
    ):
        upto = 3000 + rng.randint(-50, 50)
        sample = sorted({0, p.get("s", p.get("d", 1)), upto,
                         *(rng.randint(0, upto) for _ in range(12))})
        cases.append(series_case(family, n, p, upto, sample, fmt))
    return cases


# Eight bands of the minimum position A, log-spaced over 10^3 .. 2*10^5.
TAIL_BANDS = tuple(round(1000 * 200 ** (i / 7)) for i in range(8))


def tail_coefficient(k: int, a: int, b: int, e: int, shift: int,
                     prefix: tuple[int, ...]) -> int:
    """c_k: a free non-negative prefix, then ((k-A)^2 + b) (k+shift)^e."""
    if k < len(prefix):
        return prefix[k]
    return ((k - a) ** 2 + b) * (k + shift) ** e


def make_tail_case(rng: random.Random, a: int, negative: bool, e: int) -> TailCase:
    """H = sum c_k T^k as P/(1-T)^m with m = e + 3.

    Beyond the prefix c_k is a polynomial of degree m-1 whose integer
    minimum sits at k = A, so P = (1-T)^m H has degree < len(prefix) + m and
    P(1) = (m-1)! != 0.  With b = -1, c_A < 0; with b = +1 every c_k > 0 and
    c_A < c_(A-1), so (1-T)H has a negative coefficient and the depth is 0.
    """
    shift = rng.randint(1, 50)
    prefix = tuple(rng.randint(0, 10**6) for _ in range(rng.randint(4, 12)))
    b = -1 if negative else 1
    m = e + 3
    c = [tail_coefficient(k, a, b, e, shift, prefix) for k in range(len(prefix) + m)]
    numer = tuple(sum((-1) ** i * math.comb(m, i) * c[j - i] for i in range(min(j, m) + 1))
                  for j in range(len(c)))
    return TailCase(numer, m, not negative, None if negative else 0)


def tail_walk(rng: random.Random) -> list[TailCase]:
    """One series with a negative minimum and one without in every band."""
    cases = []
    for i, base in enumerate(TAIL_BANDS):
        a = round(base * (1 + rng.uniform(-0.02, 0.02)))
        cases.append(make_tail_case(rng, a, True, i % 3))
        cases.append(make_tail_case(rng, a, False, i % 3))
    return cases


def tail_verdict_error(case: TailCase, verdict: object, depth: object) -> Optional[str]:
    if verdict is not case.nonnegative:
        return f"is_nonnegative: got {verdict!r}, want {case.nonnegative!r}"
    if depth != case.depth:
        return f"hilbert_depth: got {depth!r}, want {case.depth!r}"
    return None


CLI_WORKLOADS: dict[str, Callable[[random.Random], list[CliCase]]] = {
    "depth-large": depth_large,
    "sweep-small": sweep_small,
    "oracle-enum": oracle_enum,
}

WORKLOADS = (*CLI_WORKLOADS, "tail-walk")


def workload_rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")
