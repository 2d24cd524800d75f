import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quatperiods
from quatperiods import cli

SRC = str(Path(quatperiods.__file__).resolve().parents[1])


def run_cli(*args):
    """Run the CLI in a fresh interpreter; return the completed process."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "quatperiods.cli", *args],
                          capture_output=True, text=True, env=env,
                          timeout=300)


def test_period_11a_both_weightings(capsys):
    quad = ["--h1", "11a", "--h2", "11a", "--f1", "11a", "--f2", "11a"]
    for weighting, value in (("unweighted", "-19"), ("mass", "-5/2")):
        assert cli.main(["period", *quad, "--weighting", weighting]) == 0
        report = json.loads(capsys.readouterr().out)["period"]
        assert report["S1"] == report["S2"] == value
        assert report["conventions"][weighting] == [value, value]


def test_eigen_output_is_byte_identical_across_processes():
    runs = [run_cli("eigen", "--disc", "7", "--level", "14")
            for _ in range(2)]
    assert all(r.returncode == 0 for r in runs)
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["class_number"] == 2


@pytest.mark.parametrize("args", [
    ("brandt", "--disc", "11", "--p", "11"),
    ("brandt", "--disc", "11", "--p", "4"),
    ("classset", "--disc", "4"),
    ("classset", "--disc", "6"),
    ("theta", "--disc", "11", "--prec", "0"),
])
def test_unsupported_input_exits_2(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
