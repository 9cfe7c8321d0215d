"""The example scripts and the worked-examples command run end to end
against the package sources."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv):
    return subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )


def test_batch_certify_prints_one_block_per_shipped_scenario():
    """`arthurcalc batch scenarios --certify` prints the worked examples: one
    text report per shipped scenario, in file order, with the per-level
    eigenvalues."""
    done = run_script("-m", "arthurcalc", "batch", "scenarios", "--certify")
    assert done.returncode == 0, done.stderr
    files = sorted((ROOT / "scenarios").glob("*.json"))
    labels = [json.loads(path.read_text())["label"] for path in files]
    blocks = done.stdout.rstrip("\n").split("\n\n")
    assert [block.splitlines()[0] for block in blocks] == [f"scenario: {label}" for label in labels]
    assert "  level 1 eigenvalues: " in done.stdout


SURVEY_A2_C2 = """\
-- dual type A2 --
  ok  partition [3]: 0 tempered, 1 non-tempered
  ok  partition [2, 1]: 0 tempered, 4 non-tempered
  ok  partition [1, 1, 1]: 16 tempered, 0 non-tempered
-- dual type C2 --
  ok  partition [4]: 0 tempered, 1 non-tempered
  ok  partition [2, 2]: 0 tempered, 2 non-tempered
  ok  partition [2, 1, 1]: 0 tempered, 4 non-tempered
  ok  partition [1, 1, 1, 1]: 16 tempered, 0 non-tempered
dichotomy holds on every surveyed row
"""


def test_survey_dichotomy():
    """Every row: one per partition in `valid_partitions` order, with the
    verdict counts of its Arthur parameters over the mu_4 grid."""
    done = run_script("scripts/survey_dichotomy.py", "--types", "A2", "C2")
    assert done.returncode == 0, done.stderr
    assert done.stdout == SURVEY_A2_C2


@pytest.mark.parametrize("name", ["Q2", "A", "A0", "G3", "G2"])
def test_survey_dichotomy_rejects_bad_type(name):
    done = run_script("scripts/survey_dichotomy.py", "--types", "A1", name)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error: type ")
    assert repr(name) in done.stderr
    assert len(done.stderr.splitlines()) == 1


def test_survey_dichotomy_rejects_empty_type_list():
    done = run_script("scripts/survey_dichotomy.py", "--types")
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error: ")
    assert len(done.stderr.splitlines()) == 1


def test_stage_times_on_the_shipped_scenarios():
    done = run_script("scripts/stage_times.py", "scenarios", "--rounds", "1")
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    lines = done.stdout.splitlines()
    count = len(list((ROOT / "scenarios").glob("*.json")))
    assert lines[0] == f"{count} scenarios, 1 timed rounds each"
    stages = [
        "parse_scenario_text",
        "run_scenario",
        "emit_report_machine",
        "parse_report_text",
        "check",
        "datum",
    ]
    assert [line.split("`")[1] for line in lines[3:]] == stages
    assert all(float(line.split("|")[2]) >= 0 for line in lines[3:])
    # the datum row times a fresh enumeration, which the warm caches never skip
    assert float(lines[-1].split("|")[2]) > 0


def test_stage_times_names_each_failing_file(tmp_path):
    good = (ROOT / "scenarios" / "a1-principal.json").read_text()
    (tmp_path / "good.json").write_text(good)
    (tmp_path / "broken.json").write_text("{")
    (tmp_path / "huge.json").write_text(good.replace('"rank": 1', '"rank": 100000'))
    done = run_script("scripts/stage_times.py", str(tmp_path))
    assert done.returncode == 1
    assert done.stdout == ""
    errors = done.stderr.splitlines()
    assert [line.split(": ")[1] for line in errors] == [
        str(tmp_path / "broken.json"),
        str(tmp_path / "huge.json"),
    ]
