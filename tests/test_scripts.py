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


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ultrametric.__file__)))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)


def test_every_script_has_a_run():
    assert {run[0] for run in RUNS} == {path.name for path in SCRIPTS.glob("*.py")}


@pytest.mark.parametrize("script, args", [(r[0], r[1:]) for r in RUNS], ids=[r[0] for r in RUNS])
def test_script_exits_0(script, args):
    proc = run_python(str(SCRIPTS / script), *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_weak_type_audit_checks_under_python_O():
    script = str(SCRIPTS / "weak_type_audit.py")
    proc = run_python("-O", script, "--trials", "3", "--depth", "3")
    assert proc.returncode == 0, proc.stderr
    assert "all pass with C1 = 1" in proc.stdout
    # a verifier that refutes every threshold must stop the run with exit 1
    broken = (
        "import runpy, sys\n"
        "from fractions import Fraction\n"
        "from ultrametric import harmonic\n"
        "harmonic.weak_type_verify = lambda tree, t: "
        "{'holds': False, 'lhs': Fraction(1), 'rhs': Fraction(0)}\n"
        f"sys.argv = [{script!r}, '--trials', '3', '--depth', '3']\n"
        f"runpy.run_path({script!r}, run_name='__main__')\n"
    )
    proc = run_python("-O", "-c", broken)
    assert proc.returncode == 1, proc.stderr
    assert "C1 = 1 fails at t = " in proc.stdout
    assert "all pass" not in proc.stdout


def test_hensel_trace_demo_retries_only_a_failed_precondition():
    # a v1 lift that fails its certificate must stop the run, not fall back to v2
    script = str(SCRIPTS / "hensel_trace_demo.py")
    broken = (
        "import runpy, sys\n"
        "from ultrametric import errors, hensel\n"
        "def v1(f, x0):\n"
        "    raise errors.CertificationFailed('broken v1')\n"
        "hensel.hensel_v1 = v1\n"
        f"sys.argv = [{script!r}, '--prec', '8']\n"
        f"runpy.run_path({script!r}, run_name='__main__')\n"
    )
    proc = run_python("-c", broken)
    assert proc.returncode == 1
    assert "CertificationFailed: broken v1" in proc.stderr
    assert proc.stdout == ""
