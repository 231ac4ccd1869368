"""Smoke test: the demos run to completion.

``04_training_and_editing.py`` trains a model for minutes, so it carries
the ``slow`` marker and runs only under ``pytest -m slow``.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "01_rearrangement.py",
        "02_toy_codec.py",
        "03_metrics.py",
        pytest.param("04_training_and_editing.py", marks=pytest.mark.slow),
    ],
)
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # 02 writes demo_utterance.wav into the working directory
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
