"""Each script under scripts/ runs to completion on small arguments."""

import os
import pathlib
import subprocess
import sys

import pytest

import ultrametric

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"

RUNS = [
    ("dimension_survey.py", "--depth", "4"),
    ("hensel_trace_demo.py", "--prec", "8"),
    ("weak_type_audit.py", "--trials", "3", "--depth", "3"),
]


def test_every_script_has_a_run():
    assert {run[0] for run in RUNS} == {path.name for path in SCRIPTS.glob("*.py")}


@pytest.mark.parametrize("script, args", [(r[0], r[1:]) for r in RUNS], ids=[r[0] for r in RUNS])
def test_script_exits_0(script, args):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ultrametric.__file__)))
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
