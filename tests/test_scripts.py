"""The survey script runs end to end on its smallest survey.

`scripts/survey_verify_all.py` backs survey results quoted in ROADMAP.md;
this keeps it importable and its summary line in the form readers quote."""

import importlib.util
import re
from pathlib import Path

SURVEY = Path(__file__).resolve().parent.parent / "scripts" / "survey_verify_all.py"


def test_survey_smoke(capsys):
    spec = importlib.util.spec_from_file_location("survey_verify_all", SURVEY)
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    assert survey.main(["--seeds", "0", "--depths", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    # one run per utility; seed 0 at depth 1 passes every check
    assert re.fullmatch(r"\d+ of 4 runs fail", out[-1])
    assert out == ["0 of 4 runs fail"]


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
