"""coxorbits benchmark: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload classify --seed 1 --seconds 30 --trace 0

Each pass of the workload runs in a fresh process (``workloads.py``), one
after another, until another pass would not finish within ``--seconds``
(the ``gensets`` oracle's time does not count); at least one pass always
runs.  With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics, medians over the passes.  Every time metric is corrected for the host's speed: each interval of a pass
is scaled by ``PROBE_REF_S`` over the median duration of the speed probes
run nearest to it, so times read as they would on a host where the probe
takes ``PROBE_REF_S``.  The uncorrected times are printed and recorded too.
With ``--trace 1`` every round runs one untraced and one traced pass, and the
JSON object holds the per-layer metrics of the traced passes and
``trace.overhead_ratio``.  Lines before it are a readable table.  Each run
also writes its configuration and raw per-pass samples to
``.perfbench-out/``.

The ``gensets`` oracle (an element closure per query) runs once per run, in
the first pass after its clock stops, and every pass's verdicts are compared
with it.

Exits 2 without a result when the checkout holds no coxorbits sources or a
pass fails to run.  See ``perfbench/README.md`` for the workloads and what
each metric should move.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
from bisect import bisect, bisect_left
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(BENCH))

from layertrace import LAYER_METRICS, metric_unit  # noqa: E402
from workloads import GOLDEN, SRC, WORKLOADS  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# A run that has not ended by then stops its pass and exits without a result.
RUN_TIMEOUT_S = 170
# The probe's duration on the reference host: the scale of every corrected
# time.  It must never change, or old and new results stop being comparable.
PROBE_REF_S = 0.0015
# How many probes nearest to an interval give the host speed for it.
PROBE_WINDOW = 9


class PassError(RuntimeError):
    pass


def run_pass(
    workload: str, seed: int, trace: int, oracle: bool, timeout: float
) -> dict:
    cmd = [
        sys.executable, str(BENCH / "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--oracle", str(int(oracle)),
    ]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=timeout,
            # the same string-hash layout in every pass
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )
    except subprocess.TimeoutExpired as e:
        raise PassError(f"{workload} run exceeded {RUN_TIMEOUT_S} s") from e
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise PassError(f"{workload} pass exited {done.returncode}")
    return json.loads(lines[-1])


def percentile(values: list[float], q: float) -> float:
    """The q-th quantile by the nearest-rank rule."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)]


class HostSpeed:
    """Lengths of intervals of one pass, without the probes inside them.

    With ``correct`` each piece between probes is scaled by ``PROBE_REF_S``
    over the median duration of the ``PROBE_WINDOW`` probes nearest to it;
    without, pieces are summed as measured.
    """

    def __init__(self, probes, correct: bool = True):
        self.probes = sorted((a, b) for a, b in probes)
        self.starts = [a for a, _ in self.probes]
        self.durations = [b - a for a, b in self.probes]
        self.correct = correct and bool(self.probes)

    def scale(self, t: float) -> float:
        if not self.correct:
            return 1.0
        k = min(PROBE_WINDOW, len(self.starts))
        lo = min(max(0, bisect(self.starts, t) - k // 2), len(self.starts) - k)
        return PROBE_REF_S / statistics.median(self.durations[lo:lo + k])

    def seconds(self, a: float, b: float) -> float:
        total, cursor = 0.0, a
        i = bisect_left(self.starts, a)
        while i < len(self.probes) and self.probes[i][0] < b:
            start, end = self.probes[i]
            total += (start - cursor) * self.scale((cursor + start) / 2)
            cursor, i = end, i + 1
        return total + max(0.0, b - cursor) * self.scale((cursor + b) / 2)


def pass_times(p: dict, correct: bool = True) -> dict:
    """Wall time, set-up time, item latencies and peak memory of one pass."""
    speed = HostSpeed(p["probes"], correct)
    return {
        "wall_s": speed.seconds(p["start"], p["end"]),
        "setup_s": sum(speed.seconds(a, b) for a, b in p["setup"]),
        "latencies_s": [speed.seconds(a, b) for a, b in p["items"]],
        "peak_rss_mb": p["peak_rss_mb"],
    }


def end_to_end(passes: list[dict], correct: bool = True) -> dict:
    """Medians over passes.  Latency percentiles are taken per pass, over
    its items, and then their median over passes, so one slowed pass moves
    them no more than it moves ``wall_s``."""
    times = [pass_times(p, correct) for p in passes]

    def med(stat):
        return statistics.median(stat(t) for t in times)

    return {
        "wall_s": med(lambda p: p["wall_s"]),
        "setup_s": med(lambda p: p["setup_s"]),
        "items_per_s": med(
            lambda p: len(p["latencies_s"]) / (p["wall_s"] - p["setup_s"])
        ),
        "item_p50_ms": med(lambda p: percentile(p["latencies_s"], 0.5)) * 1e3,
        "item_p90_ms": med(lambda p: percentile(p["latencies_s"], 0.9)) * 1e3,
        "peak_rss_mb": med(lambda p: p["peak_rss_mb"]),
    }


def layers(traced: list[dict], plain: list[dict]) -> dict:
    values = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in LAYER_METRICS
    }
    values["trace.overhead_ratio"] = statistics.median(
        pass_times(p)["wall_s"] for p in traced
    ) / statistics.median(pass_times(p)["wall_s"] for p in plain)
    return values


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running pass.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "coxorbits" / "__init__.py").is_file() or not GOLDEN.is_dir():
        print(f"no coxorbits sources under {SRC} or no golden reports; "
              "run from a full checkout", file=sys.stderr)
        return 2

    start = perf_counter()
    deadline = start + RUN_TIMEOUT_S
    plain: list[dict] = []
    traced: list[dict] = []
    try:
        while True:
            plain.append(run_pass(
                args.workload, args.seed, 0, not plain, deadline - perf_counter()
            ))
            if args.trace:
                traced.append(run_pass(
                    args.workload, args.seed, 1, False, deadline - perf_counter()
                ))
            # the oracle is a check, not measured work: it counts against
            # RUN_TIMEOUT_S but not against --seconds
            measured = perf_counter() - start - plain[0]["oracle_s"]
            if measured * (len(plain) + 1) / len(plain) > args.seconds:
                break
    except PassError as e:
        print(e, file=sys.stderr)
        return 2

    passes = plain + traced
    oracle = plain[0]["oracle"]
    for p in passes:
        if oracle is not None:
            wrong = sum(a != b for a, b in zip(p["verdicts"], oracle, strict=True))
            if wrong:
                p["failed"] += wrong
                p["problems"].append(
                    f"{wrong} generation verdicts disagree with the closure"
                )
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for problem in sorted({x for p in passes for x in p["problems"]}):
        print(f"check failed: {problem}", file=sys.stderr)
    e2e = end_to_end(plain)
    raw = end_to_end(plain, correct=False)
    samples = len(plain[0]["items"])
    metrics = layers(traced, plain) if args.trace else e2e
    units = {**END_TO_END, "trace.overhead_ratio": "ratio"}

    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "latency_samples_per_pass": samples,
        "end_to_end": e2e,
        "end_to_end_uncorrected": raw,
        "probe_ref_s": PROBE_REF_S,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "passes": plain,
        "traced_passes": traced,
    }, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)}"
          f"{f' + {len(traced)} traced' if traced else ''}  "
          f"python {platform.python_version()}  nproc {os.cpu_count()}")
    print(f"  {'failed_share':<48} {failed / attempted:>14.6g} share "
          f"({failed} of {attempted} items)")
    print(f"  {'':<48} {'corrected':>14} {'':<5} {'as measured':>14}")
    for name, value in e2e.items():
        print(f"  {name:<48} {value:>14.6g} {END_TO_END[name]:<5} "
              f"{raw[name]:>14.6g}")
    print(f"  latency percentiles over the {samples} items of each pass")
    if args.trace:
        for name, value in metrics.items():
            unit = units.get(name) or metric_unit(name)
            print(f"  {name:<48} {value:>14.6g} {unit}")
    print(f"  record: {record.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name) or metric_unit(name)}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
