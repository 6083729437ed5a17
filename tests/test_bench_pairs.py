"""scripts/bench_pairs.py: the pair summary and the claim rule, on fixed numbers."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

PARENT = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]


def test_quartiles_are_inclusive():
    assert bench_pairs.quartiles(PARENT) == pytest.approx((1.225, 1.45, 1.675))
    assert bench_pairs.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_ties_count_for_neither_side():
    change = [0.9, 1.1, 1.2, 1.4, 1.3, 1.5, 1.6, 1.7, 1.8, 1.9]
    m = bench_pairs.summarize(PARENT, change)
    assert (m["pairs_change_lower"], m["pairs_change_higher"]) == (2, 1)
    assert m["parent"]["runs"] == PARENT and m["change"]["runs"] == change
    assert m["change_vs_parent"] == "+0.0%" and not m["claim_rule_holds"]


def test_the_claim_needs_nine_tenths_of_the_pairs_and_the_parent_spread():
    # every run 0.5 lower: 10 of 10 pairs, medians 0.5 apart against an IQR of 0.45
    m = bench_pairs.summarize(PARENT, [p - 0.5 for p in PARENT])
    assert m["pairs_change_lower"] == 10 and m["claim_rule_holds"]
    assert m["change_vs_parent"] == "-34.5%"
    # 9 lower and one tie still hold; 8 lower do not
    assert bench_pairs.summarize(PARENT, [p - 0.5 for p in PARENT[:9]] + [1.9])["claim_rule_holds"]
    assert not bench_pairs.summarize(PARENT, [p - 0.5 for p in PARENT[:8]] + [1.8, 1.9])["claim_rule_holds"]
    # 10 of 10 lower, but the medians only 0.4 apart: within the parent's spread
    m = bench_pairs.summarize(PARENT, [p - 0.4 for p in PARENT])
    assert m["pairs_change_lower"] == 10 and not m["claim_rule_holds"]


def fake_report(value, correct=True, failed=0):
    metrics = {name: {"value": value, "unit": "s"} for name in ("setup_s", "wall_s")}
    return {"correct": correct, "attempted": 3, "failed": failed, "metrics": metrics}


def test_the_sides_alternate_and_the_block_holds_every_run():
    calls = []

    def runner(root, workload, seed, seconds):
        calls.append((root.name, seed))
        return fake_report(1.0 if root.name == "parent" else 0.5)

    block = bench_pairs.run_pairs(
        {"parent": Path("parent"), "change": Path("change")}, "mc", range(7, 10), 2.0, runner
    )
    assert calls == [("parent", 7), ("change", 7), ("change", 8), ("parent", 8),
                     ("parent", 9), ("change", 9)]
    assert block["seeds"] == [7, 8, 9] and block["first"] == ["parent", "change", "parent"]
    assert block["jobs_attempted"] == {"parent": 9, "change": 9}
    assert block["metrics"]["wall_s"]["change"]["runs"] == [0.5, 0.5, 0.5]
    assert block["metrics"]["wall_s"]["claim_rule_holds"]
    json.dumps(block)


@pytest.mark.parametrize(
    "stdout, code",
    [
        (json.dumps(fake_report(1.0, correct=False)), 0),
        (json.dumps(fake_report(1.0, failed=1)), 0),
        (json.dumps(fake_report(1.0)), 1),
        ("no report", 0),
    ],
    ids=["incorrect", "failed_job", "exit_code", "no_json"],
)
def test_a_failed_run_stops_with_exit_1(tmp_path, monkeypatch, capsys, stdout, code):
    def fake_run(cmd, cwd, capture_output, text):
        return subprocess.CompletedProcess(cmd, code, stdout=stdout + "\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = tmp_path / "runs.json"
    argv = ["p", "c", "--workload", "mc", "--pairs", "2", "--seconds", "1", "--json", str(out)]
    assert bench_pairs.main(argv) == 1
    assert "bench_pairs:" in capsys.readouterr().err
    assert not out.exists()


def test_json_writes_the_runs_block(tmp_path, monkeypatch, capsys):
    def fake_run(cmd, cwd, capture_output, text):
        value = 2.0 if str(cwd) == "p" else 1.0
        return subprocess.CompletedProcess(cmd, 0, stdout="log\n" + json.dumps(fake_report(value)), stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = tmp_path / "runs.json"
    argv = ["p", "c", "--workload", "mc", "--pairs", "2", "--seconds", "1",
            "--first-seed", "41", "--json", str(out)]
    assert bench_pairs.main(argv) == 0
    printed = capsys.readouterr().out
    assert "seeds 41-42" in printed and "claim rule holds" in printed
    block = json.loads(out.read_text())["mc"]
    assert block["seeds"] == [41, 42]
    assert block["metrics"]["setup_s"]["change_vs_parent"] == "-50.0%"
