"""Compute the same stationary covariance matrix three ways, and check that they agree.

A pair of position-coupled oscillators, each leaking into its own thermal
bath, relaxes to a unique Gaussian steady state.  We obtain its covariance
matrix by solving the stationary equation on a Schur form, from the
integral representation cut at a long horizon, and by propagating the
moment equations exactly until the transient has died.  The last two share
one exact flow, a block matrix exponential, so the independent checks are
the solve against that flow and against the closed form for these
parameters.  The script asserts that every route is within 1e-12 relative
of the solve.
"""

import numpy as np

from lindlyap import (
    catalog_analytic,
    catalog_build,
    evolve,
    solve_integral,
    stability_check,
    steady_covariance,
)

params = dict(omega=0.5, kappa=1.0, zeta=0.7, nbar=0.3)
dyn = catalog_build("TwoOscThermal", params).build()

report = stability_check(dyn)
print(f"spectral abscissa: {report.spectral_abscissa:+.6f}  (stable: {report.is_stable})")

# route 1: solve the stationary equation on a Schur form (Bartels-Stewart)
v_solve = steady_covariance(dyn)
print("\nstationary covariance matrix:")
print(np.array_str(v_solve, precision=6, suppress_small=True))


def rel_dev(v):
    return np.abs(v - v_solve).max() / np.abs(v_solve).max()


# route 2: the integral of the propagated diffusion matrix up to a long horizon, exactly
v_integral = solve_integral(dyn.drift_matrix, dyn.diffusion)
print(f"\nintegral route, relative deviation:  {rel_dev(v_integral):.2e}")

# route 3: propagate the moment equations exactly from a hot uncorrelated start
t_end = 40.0 / abs(report.spectral_abscissa)
traj = evolve(dyn, np.zeros(4), 5.0 * np.eye(4), t_end=t_end, dt=5e-3, record_every=4000)
print(f"exact propagation to t = {t_end:.1f}:")
for t, v in zip(traj.times, traj.cms):
    print(f"  t = {t:7.2f}   |V(t) - V_ss|_max = {np.abs(v - v_solve).max():.3e}")

# and the closed form available for symmetric parameters
v_formula = catalog_analytic("TwoOscThermal", "steady_cm", params)
print(f"\nclosed form, relative deviation:     {rel_dev(v_formula):.2e}")

for route, v in (("integral", v_integral), ("evolve", traj.final_cm), ("closed form", v_formula)):
    assert rel_dev(v) <= 1e-12, f"{route} route is {rel_dev(v):.2e} off the solve"
print("all three routes agree with the solve within 1e-12 relative")
