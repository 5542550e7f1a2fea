"""Self-tests of the benchmark harness.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import inspect
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from layertrace import LAYER_METRICS, Tracer, self_times  # noqa: E402
from run import END_TO_END, PROBE_REF_S, HostSpeed, percentile  # noqa: E402
from workloads import SWEEPS, golden_path  # noqa: E402

from coxorbits import campaigns, gensets, groups, hurwitz  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds a second a [6, 7]
    names = ["a", "b", "c", "a"]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    parents = [-1, 0, 0, 2]
    assert self_times(names, starts, ends, parents) == {
        "a": (10 - 3 - 4) + 1,
        "b": 3,
        "c": 4 - 1,
    }


def test_self_time_leaves_excluded_time_out():
    # b [1, 4] inside a [0, 10]; 0.5 s of probes ran while b was innermost
    assert self_times(
        ["a", "b"], [0.0, 1.0], [10.0, 4.0], [-1, 0], {1: 0.5}
    ) == {"a": 7.0, "b": 2.5}


def test_self_time_of_siblings_without_parent():
    assert self_times(["x", "x"], [0.0, 2.0], [1.0, 5.0], [-1, -1]) == {"x": 4.0}


def test_percentile_is_nearest_rank():
    values = list(range(1, 11))
    assert percentile(values, 0.5) == 5
    assert percentile(values, 0.9) == 9
    assert percentile([7.0], 0.9) == 7.0


def test_host_speed_leaves_probes_out_and_scales_by_them():
    probes = [(1.0, 2.0), (3.0, 4.0)]
    assert HostSpeed(probes, correct=False).seconds(0.0, 5.0) == 3.0
    assert HostSpeed(probes).seconds(0.0, 5.0) == pytest.approx(3 * PROBE_REF_S)
    # the same work on a host half as fast: every piece and probe twice as long
    slow = [(2.0, 4.0), (6.0, 8.0)]
    assert HostSpeed(slow, correct=False).seconds(0.0, 10.0) == 6.0
    assert HostSpeed(slow).seconds(0.0, 10.0) == pytest.approx(3 * PROBE_REF_S)
    # an interval between probes, and a pass without probes
    assert HostSpeed(probes).seconds(2.0, 2.5) == pytest.approx(0.5 * PROBE_REF_S)
    assert HostSpeed([]).seconds(0.0, 1.5) == 1.5


def _package_attributes():
    snapshot = {}
    for name, module in sorted(sys.modules.items()):
        if name == "coxorbits" or name.startswith("coxorbits."):
            for attr, value in vars(module).items():
                snapshot[(name, attr)] = value
    for attr, value in vars(groups.CoxeterGroup).items():
        snapshot[("CoxeterGroup", attr)] = value
    return snapshot


def test_traced_run_restores_originals_and_keeps_reports():
    cfg = campaigns.CampaignConfig(group="B2", campaign="conjecture")
    plain = campaigns.run_campaign(cfg)
    before = _package_attributes()
    tracer = Tracer()
    tracer.install()
    try:
        traced = campaigns.run_campaign(cfg)
        w = groups.build_group("A3")
        gensets.analyze_genset(w, (0, 1, 2, 3))
        hurwitz.partition_into_orbits(w.elements()[5], 3)
    finally:
        tracer.uninstall()
    after = _package_attributes()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []
    assert campaigns.golden_diff(traced.text, plain.text) is None

    layers = tracer.layer_metrics()
    assert list(layers) == LAYER_METRICS
    assert layers["campaigns.run_campaign.calls"] == 1
    assert layers["hurwitz.verify_conjecture.calls"] == plain.checked
    assert layers["gensets.analyze_genset.calls"] == 1
    assert layers["groups.generates_whole.calls"] >= 1
    assert layers["hurwitz.partition_into_orbits.calls"] == plain.checked + 1
    assert layers["campaigns.items"] == plain.checked
    assert layers["groups.build_group.roots"] == 8 + 12  # B2, A3
    selfs = [layers[n] for n in LAYER_METRICS if n.endswith(".self_s")]
    assert all(s >= 0 for s in selfs) and sum(selfs) > 0


def test_tracer_wraps_every_import_site():
    tracer = Tracer()
    tracer.install()
    try:
        assert hurwitz.full_reflection_length is not inspect.unwrap(
            hurwitz.full_reflection_length
        )
        assert campaigns.build_group is groups.build_group
        assert campaigns.build_group is not inspect.unwrap(campaigns.build_group)
    finally:
        tracer.uninstall()


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert end_to_end == list(END_TO_END)
    assert per_layer == LAYER_METRICS + ["trace.overhead_ratio"]
    for name in end_to_end + per_layer + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_every_sweep_campaign_has_a_golden_report():
    for sweep in SWEEPS.values():
        for group, campaign, offsets in sweep:
            assert golden_path(group, campaign, offsets).is_file()
