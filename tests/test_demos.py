import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

# demo 03's whole stdout: its flips are Brent searches through lindlyap.scan, so a change to the
# search or to a criterion shows here digit for digit
THRESHOLD_HUNTING = """\
stable for zeta > 1.05

environment-route flips, bisection vs closed form:
  classicality  bisected = 1.750000000000   closed form = 1.750000000000
  separability  bisected = 1.666666666667   closed form = 1.666666666667

state-route flips, bisection only (no closed form here):
  classicality  bisected = 1.750000000000
  separability  bisected = 1.665885118893

separability flips differ: environment 1.666666666667 vs state 1.665885118893
inside the gap the two routes disagree about separability:
  zeta = 1.666: environment violated (inconclusive), state holds (holds)
the drift matrix is symmetric here but does not commute with the shifted
diffusion, so the environment test is only sufficient: its violation is
inconclusive and does not contradict the state.  The environment route
certifies the noise feeding the mode pair, the state route certifies the
steady state itself.  Always bisect the route whose verdict you care about.

steerability flip formula gives 0.510310, below the stability edge 1.05:
  no steering transition is reachable at these parameters
"""


def run_demo(path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    assert run_demo(path)


def test_threshold_hunting_prints_the_same_values():
    (path,) = [p for p in DEMOS if p.name == "03_threshold_hunting.py"]
    assert run_demo(path) == THRESHOLD_HUNTING
