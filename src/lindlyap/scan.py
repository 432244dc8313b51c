"""Parameter scans of catalog models: one point's values, and where a verdict flips.

:class:`ScanPoint` builds a catalog model at one parameter point and checks its stability once;
every value read from it shares that build, the steady covariance and its symplectic spectrum.

:func:`threshold` finds where a criterion's smallest eigenvalue changes sign as parameters move
through a bracket [a, b].  The bracket rule: the value must be finite at every point the search
evaluates, the endpoints included, and of opposite signs at a and b.  The search is Brent's method
(``scipy.optimize.brentq``) with xtol = rtol = 5e-15, so it stops once the bracket is narrower than
about 1e-14 * max(1, |x|).  Where the rule fails the result is nan, together with the reason:
no sign change in the bracket, or a point that is unstable, outside the family's domain, or whose
solve failed.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import catalog as catalog_mod, criteria as criteria_mod, lyapunov, williamson
from .core import DEFAULT_TOL, Tolerances
from .model import stability_check

__all__ = ["ScanPoint", "threshold"]


class ScanPoint:
    """One catalog model at one parameter point, built and stability-checked once.

    ``dyn`` and ``report`` are the model and its stability report.  Where the parameters lie
    outside the family's domain both are None, and ``failure`` says why.
    """

    def __init__(self, cid, params: dict, tol: Tolerances = DEFAULT_TOL):
        self.tol = tol
        self.dyn = self.report = self.failure = None
        try:
            self.dyn = catalog_mod.catalog_build(cid, params, tol).build(tol)
            self.report = stability_check(self.dyn, tol)
        except ValueError as exc:
            self.dyn, self.failure = None, f"outside the family's domain: {exc}"

    @functools.cached_property
    def steady_cm(self) -> np.ndarray:
        return lyapunov.steady_covariance(self.dyn, self.tol)

    @functools.cached_property
    def spectrum(self) -> np.ndarray | None:
        """Symplectic eigenvalues of the steady state, descending; None where rounding hides them."""
        return williamson.physical_spectrum(self.steady_cm, self.tol)

    def value(self, quantity: str, kind=None) -> float:
        """``quantity`` "abscissa", "purity" or "min_symplectic_eig", or the smallest eigenvalue of
        criterion ``kind`` at level ``quantity`` "state" or "env"; nan where it is undefined."""
        try:
            return self._value(quantity, kind)
        except ValueError:
            return math.nan

    def _value(self, quantity: str, kind) -> float:
        """As :meth:`value`, with a ValueError saying why where the value is undefined."""
        if self.report is None:
            raise ValueError(self.failure)
        if quantity == "abscissa":
            return self.report.spectral_abscissa
        if not self.report.is_stable:
            state = "marginally stable" if self.report.is_marginal else "unstable"
            raise ValueError(f"{state} (spectral abscissa {self.report.spectral_abscissa:.17g})")
        try:
            if kind is None:
                nu = self.spectrum
                if nu is None:
                    raise ValueError("symplectic spectrum hidden by rounding")
                return float(1.0 / np.prod(nu)) if quantity == "purity" else float(nu[-1])
            if quantity == "state":
                return float(criteria_mod.state_criterion(self.steady_cm, kind, self.tol).spectrum[0])
            return float(criteria_mod.environment_criterion(self.dyn, kind, self.tol).spectrum[0])
        except ValueError as exc:
            raise ValueError(f"failed solve: {exc}") from exc


class _Undefined(Exception):
    """Why a search point has no finite value; not a ValueError, which brentq raises for no sign change."""


def threshold(cid, params: dict, names, level: str, kind, bracket,
              tol: Tolerances = DEFAULT_TOL) -> tuple[float, str | None]:
    """Where criterion ``kind``'s smallest eigenvalue at ``level`` ("state" or "env") changes sign
    as the parameters ``names`` (a tuple, set together) move through ``bracket`` (a, b), the
    others held at ``params``.  Returns (value, None), or (nan, reason) where the bracket rule of
    this module fails."""
    from scipy.optimize import brentq  # imported here: at module level it would slow the CLI's start-up

    label = ",".join(names)
    values = []  # f at each point evaluated, the endpoints first

    def f(x):
        try:
            val = ScanPoint(cid, {**params, **dict.fromkeys(names, x)}, tol)._value(level, kind)
        except ValueError as exc:
            raise _Undefined(f"{label} = {x:.17g}: {exc}") from exc
        if not math.isfinite(val):
            raise _Undefined(f"{label} = {x:.17g}: smallest eigenvalue {val}")
        values.append(val)
        return val

    try:
        return brentq(f, *bracket, xtol=5e-15, rtol=5e-15), None
    except _Undefined as exc:
        return math.nan, str(exc)
    except ValueError:  # brentq's refusal of f(a) and f(b) of one sign
        (a, b), (fa, fb) = bracket, values
        return math.nan, (f"no sign change: smallest eigenvalue {fa:.17g} at {label} = {a:.17g}, "
                          f"{fb:.17g} at {label} = {b:.17g}")
