import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_elsewhere(tmp_path, script, *args):
    # no PYTHONPATH: the script must find the package on its own
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script, seeds", [("corpus_sweep.py", "2"),
                                           ("theorem_survey.py", "5")])
def test_script_runs_from_any_directory(tmp_path, script, seeds):
    assert _run_elsewhere(tmp_path, script, "--seeds", seeds).strip()


def test_size_wall_prints_one_row_per_grassmann_dual(tmp_path):
    lines = _run_elsewhere(tmp_path, "size_wall.py", "--max", "3").splitlines()
    assert lines[0].split() == ["coalgebra", "dim", "dual+validate", "filtration",
                                "flat_check", "components", "validate", "radical+ksdim"]
    assert [line.split()[:2] for line in lines[1:]] == [
        ["Grassmann(1)*", "2"], ["Grassmann(2)*", "4"], ["Grassmann(3)*", "8"]]


def test_size_wall_prints_its_rows_as_one_json_object(tmp_path):
    rows = json.loads(_run_elsewhere(tmp_path, "size_wall.py", "--max", "3", "--json"))
    assert list(rows) == ["Grassmann(1)*", "Grassmann(2)*", "Grassmann(3)*"]
    assert [row["dim"] for row in rows.values()] == [2, 4, 8]
    for row in rows.values():
        assert list(row) == ["dim", "dual+validate", "filtration", "flat_check", "components",
                             "validate", "radical+ksdim"]
        assert all(isinstance(t, float) and t >= 0 for t in list(row.values())[1:])


def test_report_digest_prints_one_stable_digest_per_workload(tmp_path):
    args = ("report_digest.py", "--seeds", "1", "--corpus", "2")
    lines = _run_elsewhere(tmp_path, *args).splitlines()
    assert [line.split()[:-1] for line in lines] == [
        ["structure-q", "seed", "1"], ["descent-fp", "seed", "1"],
        ["descent-fp", "seed", "1", "depth", "0"],
        ["grouplike-scan-fp", "seed", "1"], ["corpus", "seeds", "0..1"]]
    assert all(len(line.split()[-1]) == 64 for line in lines)
    assert len({line.split()[-1] for line in lines}) == 5
    assert _run_elsewhere(tmp_path, *args).splitlines() == lines
    assert not list(tmp_path.iterdir())     # the inputs went to a temporary directory


def test_footprint_prints_one_row_per_workload(tmp_path):
    lines = _run_elsewhere(tmp_path, "footprint.py", "--seeds", "1").splitlines()
    assert lines[0].split() == ["workload", "seed", "jobs", "import_s", "first_job_s",
                                "median_job_s", "vmhwm_mb", "ru_maxrss_mb"]
    rows = [line.split() for line in lines[1:]]
    assert [row[:2] for row in rows] == [["structure-q", "1"], ["descent-fp", "1"],
                                         ["grouplike-scan-fp", "1"]]
    for row in rows:
        assert int(row[2]) > 0
        assert all(float(value) > 0 for value in row[3:6] + row[7:])
        assert row[6] == "-" or float(row[6]) > 0     # "-" without /proc/self/status
    assert not list(tmp_path.iterdir())     # the inputs went to a temporary directory
