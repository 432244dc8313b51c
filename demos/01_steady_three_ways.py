"""Compute the same stationary covariance matrix three independent ways.

A pair of position-coupled oscillators, each leaking into its own thermal
bath, relaxes to a unique Gaussian steady state.  We obtain its covariance
matrix from the stationary equation directly, from the integral
representation, and by propagating the moment equations exactly until the
transient has died, then check that all three agree.
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

# route 2: quadrature of the propagated diffusion matrix
v_quad = solve_integral(dyn.drift_matrix, dyn.diffusion)
print(f"\nquadrature route, max deviation:  {np.abs(v_quad - v_solve).max():.2e}")

# route 3: propagate the moment equations exactly from a hot uncorrelated start
t_end = 40.0 / abs(report.spectral_abscissa)
traj = evolve(dyn, np.zeros(4), 5.0 * np.eye(4), t_end=t_end, dt=5e-3, record_every=4000)
print(f"exact propagation to t = {t_end:.1f}:")
for t, v in zip(traj.times, traj.cms):
    print(f"  t = {t:7.2f}   |V(t) - V_ss|_max = {np.abs(v - v_solve).max():.3e}")

# and the closed form available for symmetric parameters
v_formula = catalog_analytic("TwoOscThermal", "steady_cm", params)
print(f"\nclosed form, max deviation:       {np.abs(v_formula - v_solve).max():.2e}")
