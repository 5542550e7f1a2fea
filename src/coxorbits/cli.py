"""Command-line driver: parse a group spec, run one campaign, emit a report.

Example::

    coxorbits --group B3 --campaign carter --out carter-b3.jsonl

Budget caps can come from flags or from the ``COXORBITS_BUDGET`` environment
variable (comma-separated ``key=value`` pairs, flags win).  ``--golden``
compares the fresh report against a stored one, ignoring timestamps, and
exits 3 on mismatch.  Otherwise the exit status is 0 exactly when no item
failed; configuration problems exit 2.
"""
from __future__ import annotations

import argparse
import os
import sys

from .campaigns import (
    CAMPAIGN_NAMES,
    CampaignConfig,
    golden_diff,
    run_campaign,
)
from .errors import CoxorbitsError

ENV_BUDGET = "COXORBITS_BUDGET"
_BUDGET_KEYS = {
    "max_elements": int,
    "max_tuples": int,
    "max_mem_mb": float,
    "timeout_s": float,
}


def _env_budget(environ=None) -> dict:
    """Default budget caps from the environment, e.g.
    ``COXORBITS_BUDGET=max_tuples=5000000,timeout_s=60``."""
    env = os.environ if environ is None else environ
    text = env.get(ENV_BUDGET, "").strip()
    out: dict = {}
    if not text:
        return out
    for chunk in text.split(","):
        key, sep, value = chunk.partition("=")
        key = key.strip()
        if not sep or key not in _BUDGET_KEYS:
            raise ValueError(
                f"bad {ENV_BUDGET} entry {chunk!r}; expected key=value with "
                f"key in {sorted(_BUDGET_KEYS)}"
            )
        out[key] = _BUDGET_KEYS[key](value.strip())
    return out


def _parse_offsets(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"offsets must be comma-separated integers, got {text!r}"
        )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="coxorbits",
        description="Run verification campaigns over finite reflection groups.",
    )
    p.add_argument("--group", required=True, help="group spec, e.g. B3 or A2xI2(5)")
    p.add_argument(
        "--campaign", required=True, choices=CAMPAIGN_NAMES, help="which check to run"
    )
    p.add_argument(
        "--offsets",
        type=_parse_offsets,
        default=(0, 2),
        help="comma-separated distinct, even, nonnegative length offsets above the "
        "reflection length (campaigns: conjecture, lr-normal-form); default 0,2",
    )
    p.add_argument(
        "--max-elements",
        type=int,
        help="cap on materialized group elements; a campaign that lists the "
        "whole group exits 2 before any item when the group is larger",
    )
    p.add_argument("--max-tuples", type=int, help="cap on enumerated tuples/states")
    p.add_argument("--max-mem-mb", type=float, help="approximate memory cap in MB")
    p.add_argument(
        "--timeout-s",
        type=float,
        help="per-item wall clock cap, also checked when the item returns",
    )
    p.add_argument("--out", help="write the JSON-lines report to this path")
    p.add_argument(
        "--golden",
        help="compare the report against this stored one (timestamp excluded); "
        "mismatch exits 3",
    )
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        env = _env_budget()
        caps = {
            key: getattr(args, key) if getattr(args, key) is not None else env.get(key)
            for key in _BUDGET_KEYS
        }
        cfg = CampaignConfig(
            group=args.group,
            campaign=args.campaign,
            offsets=tuple(args.offsets),
            **caps,
        )
        report = run_campaign(cfg)
    except (CoxorbitsError, ValueError) as e:
        print(f"coxorbits: {e}", file=sys.stderr)
        return 2
    if args.out:
        try:
            report.write(args.out)
        except OSError as e:
            print(f"coxorbits: cannot write report: {e}", file=sys.stderr)
            return 2
        print(
            f"{cfg.campaign} on {cfg.group}: checked {report.checked}, "
            f"passed {report.passed}, failed {report.failed}, "
            f"skipped {report.skipped} -> {args.out}"
        )
    else:
        sys.stdout.write(report.text)
    if args.golden:
        try:
            with open(args.golden) as f:
                golden = f.read()
        except OSError as e:
            print(f"coxorbits: cannot read golden file: {e}", file=sys.stderr)
            return 2
        diff = golden_diff(report.text, golden)
        if diff is not None:
            print(f"coxorbits: report deviates from golden: {diff}", file=sys.stderr)
            return 3
    return report.exit_status


if __name__ == "__main__":
    raise SystemExit(main())
