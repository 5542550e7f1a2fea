"""Campaign runner and command line: record shapes, determinism, budgets,
golden comparison, and exit codes."""
import ast
import json
import pathlib
import subprocess
import sys
import time

import pytest

import coxorbits
from coxorbits import absorder
from coxorbits.budget import Budget
from coxorbits.campaigns import (
    _CAMPAIGNS,
    CampaignConfig,
    Report,
    _coprime_splits,
    _items_per_pqc_length,
    _min_min_expected,
    comparable_lines,
    golden_diff,
    run_campaign,
)
from coxorbits.cli import _env_budget, main
from coxorbits.errors import CapExceeded, TypeMismatch
from coxorbits.groups import build_group

from conftest import cached_group


def records_of(report: Report) -> list[dict]:
    return [json.loads(line) for line in report.lines]


def run(group, campaign, **kw) -> Report:
    return run_campaign(CampaignConfig(group=group, campaign=campaign, **kw))


# -- config ----------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(group="A2", campaign="everything")
    with pytest.raises(ValueError):
        CampaignConfig(group="A2", campaign="carter", max_tuples=0)
    # nan passes ``value <= 0``; non-finite caps are not valid JSON either
    for cap in ("max_elements", "max_tuples", "max_mem_mb", "timeout_s"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                CampaignConfig(group="A2", campaign="carter", **{cap: value})
    for offsets in [(1,), (0, 3), (-2,), (0, 0), ()]:
        with pytest.raises(ValueError):
            CampaignConfig(group="A2", campaign="conjecture", offsets=offsets)


def test_config_record_excludes_plumbing():
    record = CampaignConfig(group="A2", campaign="carter").config_record()
    assert set(record) == {
        "group",
        "campaign",
        "offsets",
        "max_elements",
        "max_tuples",
        "max_mem_mb",
        "timeout_s",
    }
    assert record["group"] == "A2"


# -- report plumbing -------------------------------------------------------


def test_report_structure():
    report = run("A1", "carter")
    records = records_of(report)
    assert records[0]["format"] == 1
    assert records[0]["config"]["campaign"] == "carter"
    assert "timestamp" in records[1]
    assert "summary" in records[-1]
    assert records[-1]["summary"] == {
        "checked": 2,
        "passed": 2,
        "failed": 0,
        "skipped": 0,
    }
    assert report.exit_status == 0


def test_comparable_lines_drop_timestamp_only():
    report = run("A1", "carter")
    kept = comparable_lines(report.text)
    assert len(kept) == len(report.lines) - 1
    assert all("timestamp" not in json.loads(line) for line in kept)


def test_golden_diff():
    a = run("A1", "carter")
    b = run("A1", "carter")
    c = run("A1", "pqc-characterization")
    assert golden_diff(a.text, b.text) is None
    assert "line 1 differs" in golden_diff(a.text, c.text)
    truncated = "\n".join(a.lines[:-1]) + "\n"
    assert "line count differs" in golden_diff(a.text, truncated)


def test_budget_skips_are_recorded_not_fatal():
    report = run("A2", "conjecture", max_tuples=40)
    assert report.skipped > 0
    assert report.failed == 0
    assert report.exit_status == 0
    for record in records_of(report):
        if record.get("status") == "skip":
            assert record["cap"] == "max_tuples"


def test_timeout_checked_after_the_item(monkeypatch):
    # carter items charge their budget once, before their work; make that
    # work overrun the deadline so only the check after the item sees it
    fast = absorder.fixed_space

    def slow(g):
        time.sleep(0.02)
        return fast(g)

    monkeypatch.setattr(absorder, "fixed_space", slow)
    report = run("A2", "carter", timeout_s=0.01)
    assert report.skipped == report.checked == 6
    for record in records_of(report)[2:-1]:
        assert (record["status"], record["cap"]) == ("skip", "timeout_s")
    assert report.exit_status == 0


# -- campaign content ------------------------------------------------------


@pytest.mark.parametrize(
    "label, order",
    [("B3", 48), ("A1xI2(5)", 20), ("A2xA1", 12)],
    ids=["B3", "A1xI2(5)", "A2xA1"],
)
def test_carter_campaign_b3(label, order):
    report = run(label, "carter")
    assert (report.checked, report.failed) == (order, 0)
    for record in records_of(report)[2:-1]:
        assert record["length"] == record["bfs_length"]


@pytest.mark.parametrize("label, distinct", [("D4", 72), ("H3", 48)])
def test_carter_closes_each_parabolic_once(label, distinct):
    """A ``carter`` sweep closes one subgroup per distinct parabolic
    closure: the reflection-subgroup memo ends with one entry for each."""
    w = build_group(label)
    cfg = CampaignConfig(label, "carter")
    for _, work in _CAMPAIGNS["carter"](w, cfg):
        ok, _ = work(cfg.item_budget())
        assert ok
    assert len(w.memos["reflection_subgroup"]) == distinct


@pytest.mark.parametrize("label", ["A3", "B3", "H3", "D4", "B2xA1", "I2(6)"])
def test_per_class_callers_match_per_element_classification(label):
    """``quasi_coxeter_elements`` and the items of ``conjecture`` and
    ``lr-normal-form`` classify one element per conjugacy class; both equal
    what classifying every element gives."""
    w = cached_group(label)
    classes = [absorder.classify_element(g) for g in w.elements()]
    assert absorder.quasi_coxeter_elements(w) == tuple(
        c.element for c in classes if c.length == w.rank and c.is_quasi_coxeter
    )
    cfg = CampaignConfig(group=label, campaign="conjecture", offsets=(0, 2))
    items = _items_per_pqc_length(w, cfg, lambda g, length, budget: (True, {}))
    assert [(key["element"], key["length"]) for key, _ in items] == [
        (c.element.serialize(), c.length + offset)
        for c in classes
        if c.is_parabolic_quasi_coxeter
        for offset in (0, 2)
    ]


def test_pqc_campaign_b2():
    report = run("B2", "pqc-characterization")
    assert (report.checked, report.failed) == (8, 0)
    pqc_count = sum(1 for r in records_of(report) if r.get("pqc"))
    assert pqc_count == 7  # everything except the half turn


def test_conjecture_campaign_a2():
    report = run("A2", "conjecture")
    assert report.failed == 0
    assert report.checked == 12  # six elements, two lengths each
    orbit_keys = {
        "length",
        "orbit_size",
        "subgroup_order",
        "subgroup_key",
        "class_multiset",
        "representative",
    }
    saw_orbits = False
    for record in records_of(report):
        for orbit in record.get("orbits", []):
            saw_orbits = True
            assert set(orbit) == orbit_keys
    assert saw_orbits


def test_min_full_campaign_i2_5():
    report = run("I2(5)", "min-full-transitivity")
    assert (report.checked, report.failed) == (10, 0)
    for record in records_of(report)[2:-1]:
        assert record["num_orbits"] == 1


def test_min_full_campaign_accepts_orbits_split_by_class():
    # -1 in I2(6): the abelianization Z2 x Z2 gives each reflection class an
    # odd count, so the 192 length-4 full factorizations split by class
    # multiset, (1,3) against (3,1), into two orbits with distinct invariants
    report = run("I2(6)", "min-full-transitivity")
    record = records_of(report)[2 + 6]
    assert record["element"] == "3,0"
    assert record["status"] == "pass"
    assert (record["num_orbits"], record["num_factorizations"]) == (2, 192)
    assert report.failed == 0


def test_lr_campaign_b2():
    report = run("B2", "lr-normal-form")
    assert report.failed == 0
    for record in records_of(report)[2:-1]:
        assert record["orbits_with_witness"] == record["num_orbits"]


def test_min_min_campaign():
    bad = run("I2(30)", "min-equals-min")
    assert (bad.checked, bad.failed) == (1, 0)
    record = records_of(bad)[2]
    assert record["holds"] is False and record["expected"] is False
    assert record["counterexamples"]
    good = run("A3", "min-equals-min")
    assert records_of(good)[2]["holds"] is True
    assert good.failed == 0


def test_crt_campaign():
    report = run("I2(30)", "dihedral-crt")
    assert (report.checked, report.failed) == (1, 0)
    record = records_of(report)[2]
    assert record["triple"] == [14, 21, 25]
    assert record["pair_orders"] == [30, 20, 12]
    empty = run("I2(12)", "dihedral-crt")
    assert empty.checked == 0
    with pytest.raises(TypeMismatch):
        run("A3", "dihedral-crt")


def test_class_multiset_campaign():
    report = run("I2(6)", "class-multiset")
    assert (report.checked, report.failed) == (1, 0)
    assert records_of(report)[2]["holds"] is True


def test_coprime_splits():
    assert _coprime_splits(30) == [(2, 3, 5)]
    assert _coprime_splits(60) == [(3, 4, 5)]
    assert _coprime_splits(12) == []
    assert _coprime_splits(210) == [
        (2, 3, 35),
        (2, 5, 21),
        (2, 7, 15),
        (3, 5, 14),
        (3, 7, 10),
        (5, 6, 7),
    ]


def per_group_functions() -> set[str]:
    """The package's functions decorated with ``groups.per_group``."""
    names = set()
    for path in pathlib.Path(coxorbits.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(d, ast.Name) and d.id == "per_group"
                for d in node.decorator_list
            ):
                names.add(node.name)
    return names


MEMO_CAMPAIGNS = ("pqc-characterization", "conjecture", "min-full-transitivity")


def item_records(w, max_tuples) -> dict[str, list]:
    """Each memo-heavy campaign's items, and ``carter``'s, whose parabolic
    closures go through ``groups.reflection_subgroup``, built through
    ``_CAMPAIGNS`` and run on ``w``: the key, then the verdict, payload and
    charges, or the cap that skipped the item."""
    out = {}
    for campaign in (*MEMO_CAMPAIGNS, "carter"):
        cfg = CampaignConfig(w.name, campaign, max_tuples=max_tuples)
        out[campaign] = records = []
        for key, work in _CAMPAIGNS[campaign](w, cfg):
            budget = cfg.item_budget()
            try:
                records.append((key, work(budget), budget and budget.spent))
            except CapExceeded as e:
                records.append((key, "skip", e.cap))
    return out


@pytest.mark.parametrize("label", ["B3", "H3"])
def test_records_do_not_depend_on_memo_state(label):
    """Cold, warm and cleared memos give the same records, capped or not:
    verdicts, payloads and charges never read what the memos hold."""
    cap = 2000
    fresh = {m: item_records(build_group(label), m) for m in (None, cap)}
    for campaign in MEMO_CAMPAIGNS:
        skipped = [r for r in fresh[cap][campaign] if r[1] == "skip"]
        assert 0 < len(skipped) < len(fresh[cap][campaign])
        assert all(r[1] != "skip" for r in fresh[None][campaign])
    w = build_group(label)
    for m in (None, cap, None):  # each run after the other has warmed w
        assert item_records(w, m) == fresh[m]
    for m in (cap, None):
        w.memos.clear()
        assert item_records(w, m) == fresh[m]
    assert set(w.memos) == per_group_functions()


def test_min_min_expected_prediction():
    assert _min_min_expected(cached_group("B3"))
    assert _min_min_expected(cached_group("I2(12)"))
    assert not _min_min_expected(cached_group("I2(30)"))
    assert not _min_min_expected(cached_group("A2xI2(30)"))
    assert _min_min_expected(cached_group("A2xI2(10)"))


# -- command line ----------------------------------------------------------


def test_cli_stdout_report(capsys):
    assert main(["--group", "A1", "--campaign", "carter"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert json.loads(lines[0])["format"] == 1
    assert "summary" in json.loads(lines[-1])


def test_cli_bad_group(capsys):
    assert main(["--group", "C3", "--campaign", "carter"]) == 2
    assert "position 0" in capsys.readouterr().err


def test_cli_group_past_max_elements_fails_fast(capsys):
    argv = ["--group", "B3", "--campaign", "carter", "--max-elements", "10"]
    assert main(argv) == 2
    assert "max_elements" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--timeout-s", "--max-mem-mb"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_non_finite_cap(flag, value, capsys):
    assert main(["--group", "A2", "--campaign", "carter", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "finite and positive" in captured.err


def test_cli_unwritable_out(tmp_path, capsys):
    out = tmp_path / "absent" / "r.jsonl"
    assert main(["--group", "A1", "--campaign", "carter", "--out", str(out)]) == 2
    assert "cannot write report" in capsys.readouterr().err
    assert not out.parent.exists()


def test_battery_rejects_unknown_only(tmp_path):
    """A misspelt ``--only`` is a usage error before any report is written,
    not an empty run that passes."""
    root = pathlib.Path(__file__).resolve().parents[1]
    out_dir = tmp_path / "reports"
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_all_campaigns.py"),
         "--only", "conjectur", "--out-dir", str(out_dir)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr
    assert not out_dir.exists()


def test_cli_bad_offsets():
    with pytest.raises(SystemExit):
        main(["--group", "A1", "--campaign", "carter", "--offsets", "x"])


def test_cli_out_and_golden(tmp_path, capsys):
    golden = tmp_path / "golden.jsonl"
    assert (
        main(
            ["--group", "A1", "--campaign", "carter", "--out", str(golden)]
        )
        == 0
    )
    assert (
        main(
            [
                "--group",
                "A1",
                "--campaign",
                "carter",
                "--golden",
                str(golden),
                "--out",
                str(tmp_path / "again.jsonl"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "--group",
                "A2",
                "--campaign",
                "carter",
                "--golden",
                str(golden),
                "--out",
                str(tmp_path / "other.jsonl"),
            ]
        )
        == 3
    )
    capsys.readouterr()


def test_cli_missing_golden(tmp_path, capsys):
    code = main(
        [
            "--group",
            "A1",
            "--campaign",
            "carter",
            "--golden",
            str(tmp_path / "absent.jsonl"),
            "--out",
            str(tmp_path / "r.jsonl"),
        ]
    )
    assert code == 2
    assert "golden" in capsys.readouterr().err


def test_env_budget_parsing(monkeypatch):
    monkeypatch.setenv("COXORBITS_BUDGET", "max_tuples=40, timeout_s=2.5")
    assert _env_budget() == {"max_tuples": 40, "timeout_s": 2.5}
    monkeypatch.setenv("COXORBITS_BUDGET", "nope=1")
    with pytest.raises(ValueError):
        _env_budget()
    monkeypatch.delenv("COXORBITS_BUDGET")
    assert _env_budget() == {}
    # an explicit empty environment is not the process environment
    monkeypatch.setenv("COXORBITS_BUDGET", "max_tuples=40")
    assert _env_budget({}) == {}


def test_cap_exceeded_reports_configured_limit():
    late = Budget(timeout_s=0.5)
    late._t0 -= 1.0
    with pytest.raises(CapExceeded) as e:
        late.charge("max_tuples")
    assert (e.value.cap, e.value.limit) == ("timeout_s", 0.5)
    small = Budget(max_mem_mb=0.0005)  # 500 bytes: two 200-byte units fit
    small.charge("max_tuples", 2)
    with pytest.raises(CapExceeded) as e:
        small.charge("max_tuples")
    assert (e.value.cap, e.value.limit) == ("max_mem_mb", 0.0005)


def test_max_tuples_caps_each_work_counter_on_its_own():
    budget = Budget(max_tuples=3)
    budget.charge("max_tuples", 3)
    budget.charge("max_states", 3)
    with pytest.raises(CapExceeded) as e:
        budget.charge("max_states")
    assert (e.value.cap, e.value.limit) == ("max_states", 3)
    assert budget.spent == {"max_tuples": 3, "max_states": 4}


def test_env_budget_applies_and_flags_win(monkeypatch, capsys):
    monkeypatch.setenv("COXORBITS_BUDGET", "max_tuples=40")
    assert main(["--group", "A2", "--campaign", "conjecture"]) == 0
    skipped = sum(
        1
        for line in capsys.readouterr().out.splitlines()
        if '"status":"skip"' in line
    )
    assert skipped > 0
    assert (
        main(
            [
                "--group",
                "A2",
                "--campaign",
                "conjecture",
                "--max-tuples",
                "100000000",
            ]
        )
        == 0
    )
    assert '"skip"' not in capsys.readouterr().out
