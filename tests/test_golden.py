"""Golden gate: each stored report under ``perfbench/golden`` is rebuilt
from the config in its header and must match byte for byte, timestamps
aside."""
import json
from pathlib import Path

import pytest

from coxorbits.campaigns import CampaignConfig, golden_diff, run_campaign

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"
REPORTS = sorted(GOLDEN.glob("*.jsonl"))


def test_golden_reports_exist():
    assert REPORTS


@pytest.mark.parametrize("path", REPORTS, ids=lambda p: p.stem)
def test_campaign_matches_golden(path):
    text = path.read_text()
    config = json.loads(text.splitlines()[0])["config"]
    cfg = CampaignConfig(**{**config, "offsets": tuple(config["offsets"])})
    assert golden_diff(run_campaign(cfg).text, text) is None
