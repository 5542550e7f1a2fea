"""Regenerate the golden reports of every campaign the sweep workloads run.

Usage::

    python3 perfbench/make_golden.py

Writes ``perfbench/golden/<group>-<campaign>-<offsets>.jsonl`` from the
current code and refuses to write a report with a failed or skipped item.
Regenerate only when a change is meant to alter report bytes.
"""
from __future__ import annotations

import sys

from workloads import GOLDEN, SRC, SWEEPS, golden_path


def main() -> int:
    sys.path.insert(0, str(SRC))
    from coxorbits.campaigns import CampaignConfig, run_campaign

    GOLDEN.mkdir(exist_ok=True)
    for sweep in SWEEPS.values():
        for group, campaign, offsets in sweep:
            cfg = CampaignConfig(group=group, campaign=campaign, offsets=offsets)
            report = run_campaign(cfg)
            path = golden_path(group, campaign, offsets)
            if report.failed or report.skipped:
                print(f"{path.name}: {report.failed} failed, "
                      f"{report.skipped} skipped; not written", file=sys.stderr)
                return 1
            report.write(str(path))
            print(f"{path.name}: {report.checked} items")
    return 0


if __name__ == "__main__":
    sys.exit(main())
