"""One pass of one benchmark workload, run in a fresh process.

Usage::

    python3 perfbench/workloads.py --workload classify --seed 1 --trace 0

Prints one JSON object: the pass's timeline (its start and end, the set-up
intervals, every item's start and end, and every speed probe), items
attempted and failed, peak resident memory, the ``gensets`` generation
verdicts and, when traced, the per-layer metrics.  ``run.py`` starts one
such process per pass, so lazy tables and peak memory belong to one pass,
and turns the timeline into metrics.

Every ``PROBE_EVERY_S`` of wall time a ``SIGALRM`` handler on the main
thread times a fixed piece of plain-Python work that owes nothing to
coxorbits (the speed probe), so probes fall inside set-up steps and items
alike.  ``run.py`` uses the probes near each stretch of the timeline to
correct it for the host's speed at that moment, and leaves the probes' own
time out of every interval.

The load is a closed loop: one caller makes each call after the previous one
returns, with ``jobs=1``.  Outputs are checked after the clock stops:
campaign reports against the stored golden reports with
``campaigns.golden_diff``.  For ``gensets`` the pass reports its verdicts,
and with ``--oracle 1`` also the verdicts of an independent element closure;
``run.py`` computes the oracle once per run, since every pass of a run gets
the same inputs, and compares each pass with it.
"""
from __future__ import annotations

import argparse
import json
import random
import re
import resource
import signal
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from time import perf_counter

T0 = perf_counter()

BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH / "golden"
SRC = BENCH.parent / "src"

# (group, campaign, offsets) per sweep workload.  The seed only permutes
# the list; every sweep is exhaustive.
SWEEPS = {
    "classify": [
        ("B3", "pqc-characterization", (0, 2)),
        ("H3", "pqc-characterization", (0, 2)),
    ],
    "orbits": [
        ("I2(12)", "conjecture", (0, 2, 4)),
        ("B3", "conjecture", (0, 2)),
        ("B3", "lr-normal-form", (0, 2)),
    ],
    "geometry": [
        ("D4", "carter", (0, 2)),
        ("H3", "carter", (0, 2)),
    ],
}
# Root systems built (no element tables) ahead of the geometry sweep.
GEOMETRY_ROOTS = ["E6"]
# analyze_genset traffic: groups, and queries per group, with subset sizes
# cycling through rank, rank+1 and rank+2.
GENSET_GROUPS = ["A5", "B4", "D4", "F4", "H3", "A2xI2(5)"]
GENSET_QUERIES_PER_GROUP = 142
WORKLOADS = ("classify", "orbits", "gensets", "geometry")
# Wall time between the starts of two speed probes.
PROBE_EVERY_S = 0.04


def golden_path(group: str, campaign: str, offsets) -> Path:
    slug = re.sub(r"[^A-Za-z0-9]+", "-", group).strip("-").lower()
    return GOLDEN / f"{slug}-{campaign}-{'-'.join(map(str, offsets))}.jsonl"


def peak_rss_mb() -> float:
    """Peak resident memory of this process: VmHWM where the kernel offers
    it (reset by exec, so the launching process is not counted)."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def probe_work() -> int:
    """A millisecond or two of fixed plain-Python work: tuple hashing, dict
    updates, integer arithmetic, a sort, ``Fraction`` sums and nested lists,
    the kinds of operation the package spends its time on."""
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(1600):
        key = (i % 67, i % 11)
        table[key] = table.get(key, 0) + i * i % 1009
        acc += hash(key) & 0xFF
    total = Fraction(0)
    for v in sorted(table.values())[:80]:
        total += Fraction(v, 7 + v % 5)
    rows = [[(i * j) % 13 for j in range(28)] for i in range(28)]
    acc += sum(map(sum, zip(*rows)))
    return acc + total.numerator % 97


class SpeedProbe:
    """Runs :func:`probe_work` from a ``SIGALRM`` handler every
    ``PROBE_EVERY_S`` while started, and keeps the (start, end) of each run.
    In a traced pass each run's time is taken out of the self time of the
    span it interrupted."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.spans: list[tuple[float, float]] = []

    def run(self, *_) -> None:
        start = perf_counter()
        probe_work()
        end = perf_counter()
        self.spans.append((start, end))
        if self.tracer is not None:
            self.tracer.exclude(end - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.run)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


class Pass:
    """Clock and tallies of one workload pass.

    ``setup`` holds the intervals spent before items run: imports, group
    builds and shared preparation, one interval before the first campaign
    and one inside each campaign.  ``spans`` holds the (start, end) of every
    item.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.probe = SpeedProbe(tracer)
        self.setup: list[tuple[float, float]] = []
        self.spans: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.end = 0.0
        self.peak_rss_mb = 0.0
        # gensets: the program's generation verdicts, and the oracle's
        self.verdicts: list[bool] | None = None
        self.oracle: list[bool] | None = None
        self.oracle_s = 0.0

    def stop(self) -> None:
        """End the timed region; checks that follow are not measured."""
        self.end = perf_counter()
        self.peak_rss_mb = peak_rss_mb()
        self.probe.stop()
        if self.tracer is not None:
            self.tracer.uninstall()

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.problems.append(why)


@contextmanager
def timed_items(spans: list[tuple[float, float]]):
    """Time every campaign item from outside: the item builders that
    ``run_campaign`` looks up are wrapped so each item's work records its
    start and end."""
    from coxorbits import campaigns

    builders = dict(campaigns._CAMPAIGNS)

    def timed(work):
        def run(budget):
            start = perf_counter()
            try:
                return work(budget)
            finally:
                spans.append((start, perf_counter()))

        return run

    def wrap(builder):
        def build(w, cfg):
            return [(key, timed(work)) for key, work in builder(w, cfg)]

        return build

    campaigns._CAMPAIGNS.update({k: wrap(b) for k, b in builders.items()})
    try:
        yield
    finally:
        campaigns._CAMPAIGNS.update(builders)


def check_report(p: Pass, report, golden: Path) -> None:
    from coxorbits.campaigns import comparable_lines, golden_diff

    p.attempted += report.checked
    bad = report.failed + report.skipped
    if bad:
        p.fail(bad, f"{golden.name}: {bad} items failed or skipped")
    want_text = golden.read_text()
    diff = golden_diff(report.text, want_text)
    if diff is not None:
        got = comparable_lines(report.text)
        want = comparable_lines(want_text)
        deviating = (
            sum(a != b for a, b in zip(got, want))
            if len(got) == len(want)
            else report.checked
        )
        p.fail(min(report.checked, max(1, deviating)), f"{golden.name}: {diff}")


def run_sweep(name: str, seed: int, p: Pass) -> None:
    from coxorbits import campaigns, groups

    if name == "geometry":
        for label in GEOMETRY_ROOTS:
            w = groups.build_group(label)
            p.attempted += 1
            if 2 * w.num_reflections != sum(len(f.roots) for f in w.factors):
                p.fail(1, f"{label}: root count disagrees with the census")
    order = list(SWEEPS[name])
    random.Random(seed).shuffle(order)
    p.setup.append((T0, perf_counter()))
    reports = []
    with timed_items(p.spans):
        for group, campaign, offsets in order:
            cfg = campaigns.CampaignConfig(
                group=group, campaign=campaign, offsets=offsets
            )
            first = len(p.spans)
            start = perf_counter()
            report = campaigns.run_campaign(cfg)
            end = perf_counter()
            items_start = p.spans[first][0] if len(p.spans) > first else end
            p.setup.append((start, items_start))
            reports.append((report, golden_path(group, campaign, offsets)))
    p.stop()
    for report, golden in reports:
        check_report(p, report, golden)


def genset_queries(seed: int, groups_by_label: dict) -> list[tuple]:
    """Seeded reflection subsets, sizes rank..rank+2, interleaved over the
    groups.  The program only ever sees the subsets."""
    rng = random.Random(seed)
    queries = []
    for label in GENSET_GROUPS:
        w = groups_by_label[label]
        for i in range(GENSET_QUERIES_PER_GROUP):
            k = w.rank + i % 3
            queries.append((w, tuple(sorted(rng.sample(range(w.num_reflections), k)))))
    rng.shuffle(queries)
    return queries


def run_gensets(seed: int, p: Pass, oracle: bool) -> None:
    from coxorbits import gensets, groups

    built = {}
    for label in GENSET_GROUPS:
        w = built[label] = groups.build_group(label)
        for t in w.reflection_ids():
            w.reflection(t)
    queries = genset_queries(seed, built)
    p.setup.append((T0, perf_counter()))
    answers = []
    for w, ids in queries:
        start = perf_counter()
        answers.append(gensets.analyze_genset(w, ids))
        p.spans.append((start, perf_counter()))
    p.stop()
    p.attempted += len(queries)
    echoed = sum(got.reflections != ids for (w, ids), got in zip(queries, answers))
    if echoed:
        p.fail(echoed, f"{echoed} reports name other reflections than asked")
    p.verdicts = [got.generates for got in answers]
    if oracle:
        # The element-closure BFS, never the generation test under measure.
        start = perf_counter()
        p.oracle = [
            w.closure([w.reflection(t) for t in ids]).order == w.census_order
            for w, ids in queries
        ]
        p.oracle_s = perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark pass.")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--oracle", type=int, choices=(0, 1), default=1,
        help="gensets: also decide generation by element closure",
    )
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
    p = Pass(tracer)
    p.probe.start()
    try:
        if tracer is not None:
            tracer.install()
        if args.workload == "gensets":
            run_gensets(args.seed, p, bool(args.oracle))
        else:
            run_sweep(args.workload, args.seed, p)
    finally:
        p.probe.stop()
        if tracer is not None:
            tracer.uninstall()
    out = {
        "start": T0,
        "end": p.end,
        "setup": p.setup,
        "items": p.spans,
        "probes": p.probe.spans,
        "attempted": p.attempted,
        "failed": p.failed,
        "problems": p.problems,
        "peak_rss_mb": p.peak_rss_mb,
        "verdicts": p.verdicts,
        "oracle": p.oracle,
        "oracle_s": p.oracle_s,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["spans"] = tracer.span_count
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
