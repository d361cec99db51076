"""The fast demos run end to end; benefit_study.py trains for minutes and is left out."""

import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


def _run_demo(name, capsys):
    runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.parametrize("name", ["quantizer_tour.py", "plan_walkthrough.py"])
def test_demo_runs(name, capsys):
    assert _run_demo(name, capsys)


def test_train_and_resume_demo_reproduces_metrics(capsys):
    assert "metrics files byte-identical: True" in _run_demo("train_and_resume.py", capsys)
