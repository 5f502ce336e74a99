"""The benchmark's calls into the package still run and still check out.

``bench/workloads.py`` calls the package's public functions by name.  This
builds its arith, geometry and analysis workloads at seed 0 and runs each
warm-up operation with its own check and counts, so a renamed function or
a changed signature that the benchmark relies on fails here.  The bench
modules are only imported.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads as W  # noqa: E402
from spans import plain_call  # noqa: E402


@pytest.mark.parametrize(
    "build", [W.build_arith, W.build_geometry, W.build_analysis], ids=["arith", "geometry", "analysis"]
)
def test_warm_ops_pass_their_checks(build):
    for op in build(0).warm:
        out = op.run(plain_call)
        assert op.check(out), op.kind
        if op.counts is not None:
            assert all(n >= 0 for n in op.counts(out).values()), op.kind
