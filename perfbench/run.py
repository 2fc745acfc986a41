"""repgrowth benchmark: one workload, one seed, one process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload saturated --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of that checkout and nowhere else.
With ``--trace 0`` the run measures end-to-end metrics with tracing off:
set-up time in fresh processes, then whole passes of the workload's
operation list, one closed-loop client, until ``--seconds`` have passed.
With ``--trace 1`` it alternates an untraced and a traced pass of the same
list for ``--seconds`` and reports the per-layer metrics.  The last line of
standard output is the JSON result; the line before it holds run metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import mpmath.libmp

import speed
import workloads
from tracing import LAYER_METRICS, Tracer, layer_values

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
LAYERS = ("rootdata", "dominance", "witness", "bounds", "partitions",
          "intervals", "cli")
WARMUP_OPS = 50
SETUP_RUNS = 7
SPEED_EVERY_S = 0.05
CHILD_TIMEOUT_S = 60
SPAN_DIR = ROOT / ".perfbench-out"


class Package:
    """The repgrowth layer modules, imported from the checkout's src/."""

    def __init__(self):
        if not (SRC / "repgrowth" / "__init__.py").is_file():
            raise SystemExit(f"no repgrowth sources under {SRC}")
        sys.path.insert(0, str(SRC))
        for layer in LAYERS:
            module = importlib.import_module(f"repgrowth.{layer}")
            if not Path(module.__file__).resolve().is_relative_to(SRC):
                raise SystemExit(f"repgrowth.{layer} imported from "
                                 f"{module.__file__}, not {SRC}")
            setattr(self, layer, module)


# ---------------------------------------------------------------------------
# Measuring.

def run_pass(ops, tracer=None, host=None):
    """Run every operation once, letting `host` time the reference work
    between operations when due.  Returns each operation's latency and the
    number of failures."""
    latencies = array("d")
    failed = 0
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
            if op.request:
                tracer.counters[f"request.{op.request}"] += 1
        if host is not None:
            host.tick()
        start = perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # judged by the check, like any answer
            out = exc
        latencies.append(perf_counter() - start)
        try:
            ok = op.check(out) is True
        except Exception:  # a malformed answer the check cannot read
            ok = False
        failed += not ok
    return latencies, failed


class Host:
    """Times the reference work every SPEED_EVERY_S seconds (see speed.py)
    and notes, for each operation of a pass, the factor that scales it to
    the reference host: from the sample taken just before it."""

    def __init__(self):
        self.samples: list[float] = []
        self.factors = array("d")
        self.due = 0.0

    def tick(self) -> None:
        if perf_counter() >= self.due:
            self.samples.append(speed.reference_seconds())
            self.due = perf_counter() + SPEED_EVERY_S
        self.factors.append(speed.REFERENCE_S / self.samples[-1])


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def _timings(latencies) -> dict[str, float]:
    ordered = sorted(latencies)
    return {"ops_per_s": len(ordered) / sum(ordered),
            "op_p50_ms": percentile(ordered, 50) * 1e3,
            "op_p99_ms": percentile(ordered, 99) * 1e3}


def measure(ops, seconds: float):
    """Whole passes until `seconds` have passed; at least one.

    Each latency is scaled to the reference host by the host's speed just
    before it, which corrects the host's slow spells.  An operation's
    latency is the median of its scaled repeats, one per pass, which drops
    stalls that hit fewer than half of them.  The percentiles are over
    operations, and the rate is the pass size over the sum of the
    latencies.  Returns the scaled metrics, the same figures unscaled, and
    the counts.
    """
    run_pass(ops[:WARMUP_OPS])
    host = Host()
    raw, scaled = [], []
    attempted = failed = 0
    start = perf_counter()
    while True:
        host.factors = array("d")
        latencies, bad = run_pass(ops, host=host)
        raw.append(latencies)
        scaled.append(array("d", map(float.__mul__, latencies,
                                     host.factors)))
        attempted += len(ops)
        failed += bad
        if perf_counter() - start >= seconds:
            break
    metrics = {"setup_s": None, **_timings(map(statistics.median,
                                                zip(*scaled))),
               "peak_rss_mib": resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024}
    unscaled = {**_timings(map(statistics.median, zip(*raw))),
                "reference_ms": statistics.median(host.samples) * 1e3}
    return metrics, unscaled, attempted, failed, len(raw)


def measure_traced(ops, seconds: float):
    """Pairs of untraced and traced passes until `seconds` have passed."""
    run_pass(ops[:WARMUP_OPS])
    plain, traced, tracers = [], [], []
    attempted = failed = 0
    start = perf_counter()
    while True:
        latencies, bad = run_pass(ops)
        plain.append(sum(latencies))
        tracer = Tracer()
        tracer.install()
        try:
            latencies, bad_traced = run_pass(ops, tracer=tracer)
        finally:
            tracer.uninstall()
        traced.append(sum(latencies))
        tracers.append(tracer)
        attempted += 2 * len(ops)
        failed += bad + bad_traced
        if perf_counter() - start >= seconds:
            break
    metrics = layer_values(tracers)
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(plain))
    return metrics, attempted, failed, tracers


def setup_seconds(workload: str) -> tuple[float, float]:
    """Median time, in fresh interpreters, to import repgrowth and build
    the root data or parser the workload uses, scaled to the reference host
    by the reference work timed in the same interpreter; and the median
    unscaled.  One unmeasured run first leaves compiled bytecode behind, as
    an installed package has."""
    code = ("import sys, time\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "t0 = time.perf_counter()\n"
            "import repgrowth\n"
            + workloads.SETUP_CODE[workload]
            + "took = time.perf_counter() - t0\n"
            f"sys.path.insert(0, {str(BENCH)!r})\n"
            "import speed\n"
            "print(took, speed.reference_seconds())\n")
    scaled, raw = [], []
    for _ in range(SETUP_RUNS + 1):
        done = subprocess.run([sys.executable, "-I", "-c", code], cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=CHILD_TIMEOUT_S)
        took, ref = map(float, done.stdout.split())
        scaled.append(took * speed.REFERENCE_S / ref)
        raw.append(took)
    return statistics.median(scaled[1:]), statistics.median(raw[1:])


# ---------------------------------------------------------------------------
# Metadata.

def metadata(args, ops, passes):
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=CHILD_TIMEOUT_S).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    lines = {}
    for path in sorted((SRC / "repgrowth").glob("*.py")):
        text = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + text)
        lines[path.stem] = text.count(b"\n")
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": sha, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "cpu_count": os.cpu_count(),
        "ops_per_pass": len(ops), "passes": passes,
        "op_mix": dict(sorted(Counter(op.kind for op in ops).items())),
        "source_lines": lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = Package()
    ops = workloads.build(args.workload, args.seed, pkg)
    if args.trace:
        metrics, attempted, failed, tracers = measure_traced(
            ops, args.seconds)
        SPAN_DIR.mkdir(exist_ok=True)
        tracers[0].write(
            SPAN_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
        passes = len(tracers)
        units = {name: unit for name, unit, *_ in LAYER_METRICS}
        units["trace.overhead_s"] = "s"
        meta = {"missing": sorted(tracers[0].missing)}
    else:
        metrics, unscaled, attempted, failed, passes = measure(
            ops, args.seconds)
        metrics["setup_s"], unscaled["setup_s"] = setup_seconds(
            args.workload)
        units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                 "op_p99_ms": "ms", "peak_rss_mib": "MiB"}
        meta = {"unscaled": unscaled}
    meta.update(metadata(args, ops, passes), fail_ratio=failed / attempted)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
