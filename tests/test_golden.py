"""Golden gate: each stored report under ``perfbench/golden`` and
``tests/golden`` is rebuilt from the config in its header and must match
byte for byte, timestamps aside."""
import json
from pathlib import Path

import pytest

from coxorbits.campaigns import CampaignConfig, golden_diff, run_campaign

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIRS = (ROOT / "perfbench" / "golden", ROOT / "tests" / "golden")
REPORTS = sorted(p for d in GOLDEN_DIRS for p in d.glob("*.jsonl"))


def test_golden_reports_exist():
    for golden_dir in GOLDEN_DIRS:
        assert list(golden_dir.glob("*.jsonl")), golden_dir


@pytest.mark.parametrize("path", REPORTS, ids=lambda p: p.stem)
def test_campaign_matches_golden(path):
    text = path.read_text()
    config = json.loads(text.splitlines()[0])["config"]
    cfg = CampaignConfig(**{**config, "offsets": tuple(config["offsets"])})
    assert golden_diff(run_campaign(cfg).text, text) is None
