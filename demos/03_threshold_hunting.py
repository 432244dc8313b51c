"""Locating criterion flips in a driven mode with a thermal contact.

A below-threshold parametric drive fights a thermal bath of strength zeta.
Raising zeta eventually washes out nonclassical features; each criterion
flips verdict at a sharp zeta value.  Closed forms exist for the
environment-route flips, and bisection on the smallest shifted eigenvalue
recovers them.  The state-route flips sit nearby but are not identical,
which is the real message of this script.
"""

from lindlyap import (
    Classicality,
    Partition,
    Separability,
    catalog_analytic,
    environment_criterion,
    state_criterion,
)
from lindlyap.scan import ScanPoint, threshold

PARAMS = dict(epsilon=0.05, kappa=1.0, nbar=0.3)
HALF = Partition(2, frozenset({1}))

edge = catalog_analytic("OPOThermal", "stability_edge", dict(PARAMS, zeta=1.0))
lo, hi = 1.001 * edge, 12.0  # bisection bracket inside the stable window
print(f"stable for zeta > {edge}")

print("\nenvironment-route flips, bisection vs closed form:")
for name, kind in (("classicality", Classicality()), ("separability", Separability(HALF))):
    found, _ = threshold("OPOThermal", PARAMS, ("zeta",), "env", kind, (lo, hi))  # (flip, None) or (nan, why not)
    form = catalog_analytic("OPOThermal", f"{name}_flip", dict(PARAMS, zeta=1.0))
    print(f"  {name:<13s} bisected = {found:.12f}   closed form = {form:.12f}")

print("\nstate-route flips, bisection only (no closed form here):")
state_sep, _ = threshold("OPOThermal", PARAMS, ("zeta",), "state", Separability(HALF), (lo, hi))
state_cls, _ = threshold("OPOThermal", PARAMS, ("zeta",), "state", Classicality(), (lo, hi))
print(f"  classicality  bisected = {state_cls:.12f}")
print(f"  separability  bisected = {state_sep:.12f}")

env_sep = catalog_analytic("OPOThermal", "separability_flip", dict(PARAMS, zeta=1.0))
print(f"\nseparability flips differ: environment {env_sep:.12f} vs state {state_sep:.12f}")
print("inside the gap the two routes disagree about separability:")
for zeta in (1.666,):
    point = ScanPoint("OPOThermal", dict(PARAMS, zeta=zeta))
    e = environment_criterion(point.dyn, Separability(HALF))
    s = state_criterion(point.steady_cm, Separability(HALF))
    print(
        f"  zeta = {zeta}: environment {e.verdict.value} ({e.conclusion}),"
        f" state {s.verdict.value} ({s.conclusion})"
    )
print(
    "the drift matrix is symmetric here but does not commute with the shifted"
    "\ndiffusion, so the environment test is only sufficient: its violation is"
    "\ninconclusive and does not contradict the state.  The environment route"
    "\ncertifies the noise feeding the mode pair, the state route certifies the"
    "\nsteady state itself.  Always bisect the route whose verdict you care about."
)

# a flip formula can also land outside the stable window; then the verdict
# simply never changes while the model is stable
steer = catalog_analytic("OPOThermal", "steerability_flip", dict(PARAMS, zeta=1.0))
print(f"\nsteerability flip formula gives {steer:.6f}, below the stability edge {edge}:")
print("  no steering transition is reachable at these parameters")
