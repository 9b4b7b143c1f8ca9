"""The scripts run end to end on their smallest inputs.

`scripts/survey_verify_all.py` backs survey results quoted in ROADMAP.md
and `scripts/report_digests.py` the report-byte claims of CHANGES.md; this
keeps them importable and their output in the form readers quote."""

import importlib.util
import re
from pathlib import Path

import pytest

SURVEY = Path(__file__).resolve().parent.parent / "scripts" / "survey_verify_all.py"


def _survey():
    spec = importlib.util.spec_from_file_location("survey_verify_all", SURVEY)
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    return survey


def test_survey_smoke(capsys):
    survey = _survey()
    assert survey.main(["--seeds", "0", "--depths", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    # one run per utility; seed 0 at depth 1 passes every check
    assert re.fullmatch(r"\d+ of 4 runs fail", out[-1])
    assert out == ["0 of 4 runs fail"]


def test_survey_smoke_on_complete_binomials(capsys):
    # seed 0 at depth 2 is a complete binomial with 4 leaves, and it passes
    # every check under every utility
    assert _survey().main(["--seeds", "0", "--depths", "2", "--branches", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 of 4 runs fail"]
    with pytest.raises(SystemExit):
        _survey().main(["--branches", "4"])


DIGESTS = Path(__file__).resolve().parent.parent / "scripts" / "report_digests.py"


def test_report_digests_print_the_same_lines_twice(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("report_digests", DIGESTS)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    assert len(digests.MARKETS) * len(digests.UTILITIES) == 92
    # two of the markets keep the smoke test short
    monkeypatch.setattr(digests, "MARKETS", {k: digests.MARKETS[k]
                                             for k in ("t1", "tri-seed0-depth2")})
    outputs = []
    for _ in range(2):
        assert digests.main() == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert len(lines) == 2 * 4 + 1
    for line in lines[:-1]:
        assert re.fullmatch(r"(t1|tri-seed0-depth2) (log|power0\.5|power-2|mixture) [0-9a-f]{64}",
                            line)
    assert re.fullmatch(r"all [0-9a-f]{64}", lines[-1])


BENCH_PAIRS = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_on_synthetic_runs():
    import numpy as np

    bp = _bench_pairs()
    runs = []
    for pair in range(1, 11):
        for side, rss, rate in (("parent", 90.0 + pair, 100.0 + pair),
                                ("change", 50.0 + pair, 100.0 + (pair % 2) * 18.0)):
            runs.append({"set": "s", "side": side, "pair": pair, "seed": 0,
                         "metrics": {"peak_rss_mb": rss, "nodes_per_s": rate}})
    # a pair the change side never completed is left out
    runs.append({"set": "s", "side": "parent", "pair": 11, "seed": 0,
                 "metrics": {"peak_rss_mb": 1.0, "nodes_per_s": 1.0}})
    better = bp.directions({"end_to_end": [{"name": "peak_rss_mb", "better": "lower"},
                                           {"name": "nodes_per_s", "better": "higher"},
                                           {"name": "setup_s", "better": "lower"}]})
    rows = {r["metric"]: r for r in bp.summarize(runs, better)}
    assert set(rows) == {"peak_rss_mb", "nodes_per_s"}     # no runs carry setup_s

    rss = rows["peak_rss_mb"]
    parent = [90.0 + p for p in range(1, 11)]
    assert rss["pairs"] == 10 and rss["change_wins"] == 10
    assert rss["parent"] == tuple(np.percentile(parent, [25, 50, 75]))
    assert rss["gap_exceeds_parent_iqr"]

    rate = rows["nodes_per_s"]
    # the change is ahead in the five odd pairs only, and its median (109)
    # beats the parent's (105.5) by less than the parent's IQR (4.5)
    assert rate["change_wins"] == 5
    assert rate["change"][1] == 109.0 and not rate["gap_exceeds_parent_iqr"]
    assert "10/10" in bp.format_rows([rss])


def test_bench_pairs_expands_all_in_declared_order():
    bp = _bench_pairs()
    benchmark = {"workloads": [{"name": "b"}, {"name": "a"}, {"name": "c"}]}
    assert bp.workload_names(["all"], benchmark) == ["b", "a", "c"]
    assert bp.workload_names(["c", "all"], benchmark) == ["c", "b", "a"]
    with pytest.raises(SystemExit, match="unknown workload 'd'"):
        bp.workload_names(["a", "d"], benchmark)


def test_bench_pairs_records_each_workload_in_one_command(tmp_path, monkeypatch, capsys):
    import datetime
    import json

    bp = _bench_pairs()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1,
        "workloads": [{"name": "fast"}, {"name": "slow"}],
        "end_to_end": [{"name": "task_s.p50", "better": "lower"}]}))
    ran = []

    def run(checkout, workload, seed, seconds):
        # synthetic runs: the change halves the fast workload's task time
        # and leaves the slow one's as it is
        ran.append((checkout.name, workload))
        base = {"fast": 1.0, "slow": 3.0}[workload]
        faster = checkout.name == "change" and workload == "fast"
        return {"correct": True, "metrics": {"task_s.p50": base / 2 if faster else base}}

    monkeypatch.setattr(bp, "ROOT", tmp_path)
    monkeypatch.setattr(bp, "_export", lambda rev, into: into)
    monkeypatch.setattr(bp, "_revision", lambda rev: "abc1234")
    monkeypatch.setattr(bp, "_run", run)
    assert bp.main(["--parent", "HEAD~1", "--change", "HEAD", "--workload", "all",
                    "--set", "s", "--pairs", "3"]) == 0
    # each workload's pairs run in turn, alternating which side goes first
    assert [w for _, w in ran] == ["fast"] * 6 + ["slow"] * 6
    assert [side for side, _ in ran[:6]] == ["parent", "change", "change", "parent",
                                            "parent", "change"]
    day = f"{datetime.date.today():%Y%m%d}"
    for workload, wins in (("fast", 3), ("slow", 0)):
        record = json.loads((tmp_path / f"BENCH_{day}_{workload}.json").read_text())
        assert record["workload"] == workload and len(record["runs"]) == 6
        row, = record["sets"]["s"]["summary"]
        assert row["metric"] == "task_s.p50" and row["change_wins"] == wins
    assert "wrote BENCH_" in capsys.readouterr().out
    # a set already recorded for any workload stops the command before it runs
    with pytest.raises(SystemExit, match="already in"):
        bp.main(["--parent", "HEAD~1", "--workload", "slow", "--set", "s"])
