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
