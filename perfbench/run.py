"""hilbertdepth benchmark: cold CLI processes and one in-process library
workload, timed end to end, plus a traced run that reports per-layer counts
and self times.

    python3 perfbench/run.py --workload all --trace 0     # every workload, end to end
    python3 perfbench/run.py --workload all --trace 1     # per-layer metrics
    python3 perfbench/run.py --workload depth-large --seed 7 --seconds 25 --trace 0

Run it from the repository root; it imports the package from ./src.  Every
case runs in a fresh process, one at a time, driven from this process, so
every case starts with cold caches.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.  See
perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Callable, Optional

import reference
from workloads import (
    CLI_WORKLOADS,
    DEFAULT_SEED,
    WORKLOADS,
    CliCase,
    TailCase,
    setup_case,
    tail_verdict_error,
    tail_walk,
    workload_rng,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
SETUP_PER_PASS = 2
# Times are reported as seconds on a host where the reference kernel
# (reference.py) takes REF_NOMINAL_S; it takes 2-4 ms on a shared 2-vCPU
# Xeon.  When other tenants load the machine, the kernel's time swings
# further than the package's, so scaling by its full ratio overcorrects:
# see host_scale.
REF_NOMINAL_S = 0.003
REF_EXPONENT = 0.75

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "slowest_case_s": "s", "peak_rss_mb": "MiB"}

_TIMED = {
    "exactalg": ("binomial", "IntPolynomial.mul", "IntPolynomial.add",
                 "one_minus_t_power", "IntPolynomial.divide_one_minus_t"),
    "series": ("canonicalize", "mul_power_one_minus_t", "coefficient",
               "is_nonnegative", "hilbert_depth"),
    "ideals": ("depth_report",),
    "multigrade": ("hilbert_function_oracle", "membership",
                   "fine_series_formula", "fine_series_oracle"),
    "cli": ("main",),
}
_CONSTRUCTORS = ("veronese_series", "veronese_series_alt", "max_power_series",
                 "hat_power_series", "generated_hat_power_series")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer, names in _TIMED.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
    units.update({
        "exactalg.binomial.hit_ratio": "1",
        "series.is_nonnegative.per_depth": "count",
        "ideals.constructors.calls": "count",
        "ideals.constructors.self_s": "s",
        "ideals.veronese_series.self_s": "s",
        "identities.verify.calls": "count",
        "identities.verify.self_s": "s",
        "identities.verify.slowest_s": "s",
        "cli.stdout_bytes": "bytes",
        "trace.overhead_ratio": "1",
    })
    return units


def host_scale(ref_times: list[float]) -> float:
    """The factor that takes times measured next to these kernel times to
    the nominal host speed.  REF_EXPONENT was chosen at the seed commit:
    over 25-s windows of back-to-back passes on all four workloads, of 0.5,
    0.6, 0.75 and 1 it gave the steadiest medians (README.md)."""
    return (REF_NOMINAL_S / median(ref_times)) ** REF_EXPONENT


class BenchError(Exception):
    """The benchmark could not run a workload at all."""


@dataclass(frozen=True)
class Sample:
    """One timed case: wall and CPU seconds, peak RSS of its process."""

    wall: float
    cpu: float
    rss_mb: float


@dataclass(frozen=True)
class Run(Sample):
    """One child process: its exit status and outputs, timed from spawn to exit,
    and the reference-kernel times taken just before it."""

    exit: int
    stdout: bytes
    stderr: bytes
    ref: tuple[float, ...]

    @property
    def scaled_wall(self) -> float:
        return self.wall * host_scale(list(self.ref))


class Bench:
    """Spawns and checks cases, counting attempts and failures.  Use it as a
    context manager: it owns the spawner process and a scratch directory."""

    def __init__(self, root: Path, seed: int, recorded: Optional[dict]):
        """recorded maps workload -> case key -> expected stdout SHA-256;
        None checks only that repeated runs of a case print the same bytes."""
        self.root = root
        self.seed = seed
        self.recorded = recorded
        self.attempted = 0
        self.failures: list[str] = []
        self.setup_digests: dict[str, str] = {}
        self.ref_times: list[float] = []  # every reference-kernel time, in order

    def __enter__(self) -> Bench:
        self.scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=self.root))
        env = {**os.environ, "PYTHONPATH": str(self.root / "src")}
        self.spawner = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawner.py")], cwd=self.root, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc_info) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()
        shutil.rmtree(self.scratch)

    # -- processes

    def spawn(self, argv: list[str], stdin: bytes = b"") -> Run:
        """Run `python3 ARGV` from the root, timed from spawn to exit, after
        timing the reference kernel."""
        ref = reference.times()
        self.ref_times += ref
        files = {name: self.scratch / name for name in ("stdin", "stdout", "stderr")}
        files["stdin"].write_bytes(stdin)
        request = {"argv": [sys.executable, *argv], "cwd": str(self.root),
                   **{name: str(path) for name, path in files.items()}}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise BenchError("the spawner process exited")
        r = json.loads(reply)
        return Run(r["wall"], r["cpu"], r["rss_kb"] / 1024, r["exit"],
                   files["stdout"].read_bytes(), files["stderr"].read_bytes(), tuple(ref))

    # -- correctness

    def record(self, label: str, error: Optional[str]) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{label}: {error}")

    def cli_error(self, workload: str, case: CliCase, exit_code: int, stdout: bytes,
                  stderr: bytes, digests: dict[str, str]) -> Optional[str]:
        """Why a CLI case's result is wrong, or None.  `digests` holds the
        digest each case printed first in this run; every later run of the
        case must print the same bytes."""
        if exit_code != 0:
            return f"exit status {exit_code}: {stderr.decode(errors='replace')[-300:]}"
        try:
            case.check(stdout.decode())
        except Exception as exc:  # any parse error is a wrong output too
            return f"output: {type(exc).__name__}: {exc}"
        digest = hashlib.sha256(stdout).hexdigest()
        if digests.setdefault(case.key, digest) != digest:
            return "stdout differs between runs of the same case"
        if self.recorded is not None and self.recorded.get(workload, {}).get(case.key) != digest:
            return "stdout digest differs from the one recorded for the default seed"
        return None

    def run_cli(self, workload: str, case: CliCase, digests: dict[str, str]) -> Run:
        run = self.spawn(["-m", "hilbertdepth", *case.argv])
        self.record(case.key, self.cli_error(workload, case, run.exit, run.stdout,
                                             run.stderr, digests))
        return run

    def run_tail(self, cases: list[TailCase], trace: int) -> tuple[list[Sample], dict]:
        """One tail-walk pass in a fresh worker; checks every verdict."""
        job = {"cases": [[list(c.numer), c.den_pow, c.nonnegative] for c in cases],
               "trace": trace}
        run = self.spawn([str(HERE / "lib_child.py")], json.dumps(job).encode())
        if run.exit != 0:
            raise BenchError("tail-walk worker failed: "
                             + run.stderr.decode(errors="replace")[-500:])
        doc = json.loads(run.stdout)
        samples = []
        for i, (case, (wall, cpu, verdict, depth)) in enumerate(zip(cases, doc["results"])):
            self.record(f"tail case {i}", tail_verdict_error(case, verdict, depth))
            samples.append(Sample(wall, cpu, run.rss_mb))
        return samples, doc

    # -- end-to-end measurement (tracing off)

    def setup_walls(self, count: int) -> list[float]:
        """Wall times of `count` cold runs of the trivial set-up case."""
        case = setup_case()
        return [self.run_cli("setup", case, self.setup_digests).wall for _ in range(count)]

    def measure(self, run_pass: Callable[[], list[Sample]], budget: float) -> dict:
        """Repeat passes over the case list until the budget is spent; the
        last pass may run past it.  SETUP_PER_PASS set-up runs precede every
        pass.

        Other tenants of the shared machine slow every process down, by up
        to 2x, in bursts of seconds and phases of minutes.  So each pass's
        times are scaled by host_scale of the reference-kernel times taken
        around that pass (see reference.py): the figures are seconds at a
        fixed host speed.  Each metric is the median over
        passes, or over set-up runs; the number of passes does not bias a
        median.  The raw, unscaled medians are returned under "raw".
        """
        setup: list[float] = []
        passes: list[dict] = []
        rss = 0.0
        start = time.perf_counter()
        while True:
            mark = len(self.ref_times)
            setup_walls = self.setup_walls(SETUP_PER_PASS)
            samples = run_pass()
            # every spawn times the kernel before its child; time it once
            # more so that the samples bracket the pass
            self.ref_times += reference.times()
            scale = host_scale(self.ref_times[mark:])
            setup += [scale * w for w in setup_walls]
            walls = [s.wall for s in samples]
            passes.append({"scale": scale, "wall": sum(walls),
                           "cpu": sum(s.cpu for s in samples), "slowest": max(walls)})
            rss = max([rss] + [s.rss_mb for s in samples])
            if time.perf_counter() - start >= budget:
                break

        def scaled(key: str) -> float:
            return median(p["scale"] * p[key] for p in passes)

        return {"setup_s": median(setup), "wall_s": scaled("wall"), "cpu_s": scaled("cpu"),
                "slowest_case_s": scaled("slowest"), "peak_rss_mb": rss,
                "raw": {"passes": len(passes), "wall_s": median(p["wall"] for p in passes),
                        "ref_s": median(self.ref_times)}}

    def end_to_end(self, workload: str, seconds: float) -> dict:
        rng = workload_rng(workload, self.seed)
        if workload == "tail-walk":
            cases = tail_walk(rng)
            return self.measure(lambda: self.run_tail(cases, trace=0)[0], seconds)
        cli_cases, digests = CLI_WORKLOADS[workload](rng), {}
        return self.measure(
            lambda: [self.run_cli(workload, case, digests) for case in cli_cases], seconds)

    # -- traced run

    def traced(self, workload: str) -> dict:
        """One untraced pass, then one traced pass of the same cases."""
        rng = workload_rng(workload, self.seed)
        layers = LayerTotals()
        if workload == "tail-walk":
            cases = tail_walk(rng)
            scaled = []
            for trace in (0, 1):
                mark = len(self.ref_times)
                samples, doc = self.run_tail(cases, trace)
                scaled.append(sum(s.wall for s in samples) * host_scale(self.ref_times[mark:]))
            layers.add(doc["trace"], 0)
            return layers.metrics(scaled[1] / scaled[0])
        cases = CLI_WORKLOADS[workload](rng)
        digests: dict[str, str] = {}
        untraced_s = sum(self.run_cli(workload, case, digests).scaled_wall for case in cases)
        traced_s = 0.0
        for case in cases:
            run = self.spawn([str(HERE / "cli_child.py"), *case.argv])
            traced_s += run.scaled_wall
            if run.exit != 0:
                self.record(case.key, "traced child failed: "
                            + run.stderr.decode(errors="replace")[-300:])
                continue
            doc = json.loads(run.stdout)
            stdout = doc["stdout"].encode()
            self.record(case.key, self.cli_error(workload, case, doc["exit"], stdout,
                                                 run.stderr, digests))
            layers.add(doc["trace"], len(stdout))
        return layers.metrics(traced_s / untraced_s)


class LayerTotals:
    """Sums trace summaries over the cases of one workload."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.longest: Counter = Counter()
        self.edge_calls: Counter = Counter()
        self.cache = [0, 0]
        self.stdout_bytes = 0

    def add(self, summary: dict, stdout_bytes: int) -> None:
        for name, parent, calls, own, longest in summary["edges"]:
            self.calls[name] += calls
            self.self_s[name] += own
            self.longest[name] = max(self.longest[name], longest)
            self.edge_calls[name, parent] += calls
        self.cache[0] += summary["binomial_cache"][0]
        self.cache[1] += summary["binomial_cache"][1]
        self.stdout_bytes += stdout_bytes

    def metrics(self, overhead_ratio: float) -> dict:
        out: dict[str, float] = {}
        for layer, names in _TIMED.items():
            for name in names:
                out[f"{layer}.{name}.calls"] = self.calls[f"{layer}.{name}"]
                out[f"{layer}.{name}.self_s"] = self.self_s[f"{layer}.{name}"]
        lookups = sum(self.cache)
        out["exactalg.binomial.hit_ratio"] = self.cache[0] / lookups if lookups else 0.0
        depth_calls = self.calls["series.hilbert_depth"]
        probes = self.edge_calls["series.is_nonnegative", "series.hilbert_depth"]
        out["series.is_nonnegative.per_depth"] = probes / depth_calls if depth_calls else 0.0
        builders = [f"ideals.{name}" for name in _CONSTRUCTORS]
        out["ideals.constructors.calls"] = sum(self.calls[n] for n in builders)
        out["ideals.constructors.self_s"] = sum(self.self_s[n] for n in builders)
        out["ideals.veronese_series.self_s"] = self.self_s["ideals.veronese_series"]
        verifiers = [n for n in self.calls if n.startswith("identities.verify_")]
        out["identities.verify.calls"] = sum(self.calls[n] for n in verifiers)
        out["identities.verify.self_s"] = sum(self.self_s[n] for n in verifiers)
        out["identities.verify.slowest_s"] = max((self.longest[n] for n in verifiers),
                                                 default=0.0)
        out["cli.stdout_bytes"] = self.stdout_bytes
        out["trace.overhead_ratio"] = overhead_ratio
        return out


def metadata(root: Path, seed: int) -> dict:
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                 capture_output=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            sha = None
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((root / "src" / "hilbertdepth").glob("*.py")))
    return {"python": platform.python_version(), "git_sha": sha,
            "nproc": os.cpu_count(), "seed": seed, "src_lines": src_lines}


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time per workload (end-to-end mode)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: traced run reporting per-layer metrics")
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hilbertdepth" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'hilbertdepth'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    recorded = (json.loads(DIGESTS.read_text())
                if args.seed == DEFAULT_SEED else None)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    print("meta " + json.dumps(metadata(ROOT, args.seed)), flush=True)
    results: dict[str, dict] = {}
    try:
        with Bench(ROOT, args.seed, recorded) as bench:
            for name in names:
                values = (bench.traced(name) if args.trace
                          else bench.end_to_end(name, args.seconds))
                results[name] = {m: {"value": values[m], "unit": units[m]} for m in units}
                for metric, entry in results[name].items():
                    print(f"{name:12s} {metric:40s} {entry['value']:.6g} {entry['unit']}",
                          flush=True)
                if "raw" in values:
                    raw = values["raw"]
                    print(f"{name:12s} unscaled: {raw['passes']} passes, median wall "
                          f"{raw['wall_s']:.6g} s, reference kernel {raw['ref_s']:.6g} s "
                          f"(nominal {REF_NOMINAL_S} s)", flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = len(bench.failures)
    for line in bench.failures[:10]:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"fail_ratio {failed / bench.attempted:.6g} ({failed} of {bench.attempted} "
          "case runs wrong)")
    metrics = (results[names[0]] if len(names) == 1 else
               {f"{w}.{m}": e for w, r in results.items() for m, e in r.items()})
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
