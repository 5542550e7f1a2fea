#!/usr/bin/env python3
"""Run the full verification battery and collect JSON-lines reports.

Runs every campaign over the groups it is known to finish on quickly,
writes one report per (campaign, group) into an output directory, and
prints a summary table.  Exits nonzero if any item failed.

Usage::

    python3 scripts/run_all_campaigns.py --out-dir reports
    python3 scripts/run_all_campaigns.py --only conjecture
    python3 scripts/run_all_campaigns.py --heavy     # adds the slow sweeps
"""
import argparse
import pathlib
import re
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from coxorbits.campaigns import (  # noqa: E402
    CAMPAIGN_NAMES,
    CampaignConfig,
    run_campaign,
)

DIHEDRAL_SMALL = [f"I2({m})" for m in range(3, 13)]
CONJECTURE_GROUPS = ["A2", "A3", "B2"] + [
    f"I2({m})" for m in (3, 4, 5, 6, 8, 10, 12)
]


def rank2_offsets(label: str) -> tuple[int, ...]:
    return (0, 2, 4) if label.startswith(("B2", "I2")) or label == "A2" else (0, 2)


def battery(heavy: bool) -> list[tuple[str, str, dict]]:
    runs: list[tuple[str, str, dict]] = []
    for label in ["A3", "A4", "B3", "B4", "H3", "D4"] + DIHEDRAL_SMALL:
        runs.append((label, "carter", {}))
    for label in ["A3", "A4", "B2", "B3", "B4", "H3", "D4"] + DIHEDRAL_SMALL:
        runs.append((label, "pqc-characterization", {}))
    if heavy:
        runs.append(("F4", "carter", {}))
        runs.append(("H4", "carter", {}))
        runs.append(("H4", "pqc-characterization", {}))
        runs.append(("E6", "carter", {}))
        runs.append(("E6", "pqc-characterization", {}))
        runs.append(("D5", "carter", {}))
        runs.append(("D5", "pqc-characterization", {}))
    for label in CONJECTURE_GROUPS:
        runs.append((label, "conjecture", {"offsets": rank2_offsets(label)}))
        runs.append((label, "lr-normal-form", {"offsets": rank2_offsets(label)}))
    min_full = ["A2", "A3", "A4", "B2", "B3", "B4", "D4", "H3"]
    for label in min_full + [f"I2({m})" for m in range(3, 9)]:
        runs.append((label, "min-full-transitivity", {}))
    min_min = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4", "H3"]
    min_min += [f"I2({m})" for m in range(3, 33)]
    if heavy:
        min_min.append("F4")
        for campaign in ("conjecture", "lr-normal-form"):
            runs.append(("F4", campaign, {"offsets": (0, 2)}))
        for campaign in ("pqc-characterization", "min-full-transitivity"):
            runs.append(("F4", campaign, {}))
    for label in min_min:
        runs.append((label, "min-equals-min", {}))
    for m in (30, 42, 60, 66, 70, 105):
        runs.append((f"I2({m})", "dihedral-crt", {}))
    for label in ["A3", "B2", "B3", "D4", "F4"] + DIHEDRAL_SMALL:
        runs.append((label, "class-multiset", {}))
    return runs


def slug(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "-", label).strip("-").lower()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="campaign-reports")
    ap.add_argument("--only", choices=CAMPAIGN_NAMES, help="run only this campaign")
    ap.add_argument(
        "--heavy",
        action="store_true",
        help="include the slow sweeps: F4 carter, conjecture, lr-normal-form, "
        "pqc-characterization, min-full-transitivity and min-equals-min, "
        "H4 and E6 carter and pqc-characterization, and D5 carter and "
        "pqc-characterization",
    )
    args = ap.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    total = {"checked": 0, "passed": 0, "failed": 0, "skipped": 0}
    t_start = time.monotonic()
    for label, campaign, kw in battery(args.heavy):
        if args.only and campaign != args.only:
            continue
        cfg = CampaignConfig(group=label, campaign=campaign, **kw)
        t0 = time.monotonic()
        report = run_campaign(cfg)
        path = out_dir / f"{campaign}-{slug(label)}.jsonl"
        report.write(str(path))
        for key in total:
            total[key] += getattr(report, key)
        flag = "" if report.failed == 0 else "  <-- FAILURES"
        print(
            f"{campaign:24s} {label:8s} checked {report.checked:6d} "
            f"passed {report.passed:6d} failed {report.failed:3d} "
            f"skipped {report.skipped:3d}  {time.monotonic() - t0:6.1f}s{flag}"
        )
    print(
        f"\ntotal: checked {total['checked']}, passed {total['passed']}, "
        f"failed {total['failed']}, skipped {total['skipped']} "
        f"in {time.monotonic() - t_start:.1f}s -> {out_dir}/"
    )
    return 0 if total["failed"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
