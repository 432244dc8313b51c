"""Parameter scans of catalog models: one point's values, where a verdict flips, and grids of both.

:class:`ScanPoint` builds a catalog model at one parameter point and checks its stability once;
every value read from it shares that build, the steady covariance and its symplectic spectrum.
:func:`scan` walks one or two parameter grids and tabulates point values and thresholds, each
cell with the reason it is nan, if it is.

:func:`threshold` finds where a criterion's smallest eigenvalue changes sign as parameters move
through a bracket [a, b].  The bracket rule: the value must be finite at every point the search
evaluates, the endpoints included, and of opposite signs at a and b.  The search is Brent's method
(the compiled kernel of ``scipy.optimize.brentq``, loaded without the ``scipy.optimize`` package by
:mod:`lindlyap._lapack`) with xtol = rtol = 5e-15, so it stops once the bracket is narrower than
about 1e-14 * max(1, |x|).  Where the rule fails the result is nan, together with the reason:
no sign change in the bracket, or a point that is unstable, outside the family's domain, or whose
solve failed.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import catalog as catalog_mod, criteria as criteria_mod, lyapunov, williamson
from ._lapack import load
from .core import DEFAULT_TOL, Tolerances, read_choice, read_number, read_vector
from .model import stability_check

__all__ = ["ScanPoint", "threshold", "scan"]

_POINT_QUANTITIES, _LEVELS = ("abscissa", "purity", "min_symplectic_eig"), ("state", "env")


def _read_value(quantity, kind, what: str, quantities=_POINT_QUANTITIES + _LEVELS) -> None:
    """Refuse, by a ValueError naming ``what``, a ``quantity`` not among ``quantities``, or a ``kind`` that
    is not a criterion kind at a criterion level or not None elsewhere."""
    if read_choice(quantity, what, quantities) in _LEVELS:
        criteria_mod._read_kind(kind, f"{what} {quantity!r} kind")
    elif kind is not None:
        raise ValueError(f"{what} {quantity!r} takes no criterion kind, got {kind!r}")


def _read_names(cid, names, what: str) -> tuple[str, ...]:
    """``names``, a nonempty tuple or list of the family's own parameter names, as a tuple; a refusal
    is a ValueError naming ``what``."""
    if not isinstance(names, (tuple, list)) or not names:
        raise ValueError(f"{what} must be a nonempty tuple of parameter names, got {names!r}")
    return tuple(read_choice(name, what, catalog_mod.PARAM_NAMES[catalog_mod.catalog_id(cid)]) for name in names)


def _read_search(cid, names, level, kind, bracket) -> tuple[tuple[str, ...], tuple[float, ...]]:
    """The names and the bracket of a threshold search, a pair of finite real numbers (not text), once
    its level and kind are read."""
    _read_value(level, kind, "level", _LEVELS)
    read_vector(bracket, "bracket", 2, finite=False)  # its length; the entries are read one by one
    return _read_names(cid, names, "names"), tuple(read_number(x, "bracket endpoint", "finite") for x in bracket)


class ScanPoint:
    """One catalog model at one parameter point, built and stability-checked once.

    ``dyn`` and ``report`` are the model and its stability report.  Where the parameters lie
    outside the family's domain both are None, and ``failure`` says why.  ``tol`` judges every value
    read from the point; the build takes no tolerance, so ``dyn`` is the same model at any ``tol``.
    """

    def __init__(self, cid, params: dict, tol: Tolerances = DEFAULT_TOL):
        self.tol = tol
        self.dyn = self.report = self.failure = None
        try:
            self.dyn = catalog_mod.catalog_build(cid, params).build()
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
        criterion ``kind`` at level ``quantity`` "state" or "env" (``kind`` is None otherwise).  Where it
        is undefined, a ValueError says why: outside the family's domain, not stable, or a failed solve."""
        _read_value(quantity, kind, "quantity")
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
    this module fails.  Before the search, a ValueError refuses a level other than "state" or "env",
    a ``kind`` that is not a criterion kind, ``names`` that are not a tuple or list of the family's own
    parameter names, or a bracket that is not two finite real numbers."""
    names, bracket = _read_search(cid, names, level, kind, bracket)
    label = ",".join(names)
    values = []  # f at each point evaluated, the endpoints first

    def f(x):
        try:
            val = ScanPoint(cid, {**params, **dict.fromkeys(names, x)}, tol).value(level, kind)
        except ValueError as exc:
            raise _Undefined(f"{label} = {x:.17g}: {exc}") from exc
        if not math.isfinite(val):
            raise _Undefined(f"{label} = {x:.17g}: smallest eigenvalue {val}")
        values.append(val)
        return val

    try:
        # brentq(f, a, b, xtol=5e-15, rtol=5e-15) without the scipy.optimize package: its kernel, given the
        # arguments brentq passes it (no args, no full output, raise on non-convergence); brentq's NaN guard
        # is not needed, as f raises _Undefined on any value that is not finite
        return load("optimize", "_zeros")._brentq(f, *bracket, 5e-15, 5e-15, 100, (), False, True), None
    except _Undefined as exc:
        return math.nan, str(exc)
    except ValueError:  # brentq's refusal of f(a) and f(b) of one sign
        (a, b), (fa, fb) = bracket, values
        return math.nan, (f"no sign change: smallest eigenvalue {fa:.17g} at {label} = {a:.17g}, "
                          f"{fb:.17g} at {label} = {b:.17g}")


def scan(cid, params: dict, axes, columns=(), thresholds=(), bracket=None,
         tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, list[list[str | None]]]:
    """Point values and thresholds over one or two parameter grids, the first axis outermost.

    ``axes`` holds (grid, names) pairs: each grid value sets the parameters ``names`` (a tuple)
    together, over the others held at ``params``; all are the family's own parameter names, as
    :func:`lindlyap.catalog.resolve_param` gives them for an alias.  Each grid point contributes one
    row: its axis values, then :meth:`ScanPoint.value` for each (quantity, kind) of ``columns``,
    then :func:`threshold` over ``bracket`` for each (names, level, kind) of ``thresholds``.  A
    search depends only on the parameters it does not override, so it runs once for each distinct
    set of them, compared bit for bit, and its result fills every such cell; a threshold over a
    swept parameter is one search.

    Returns the float table and, for each of its cells, None or the reason the cell is nan.  Before
    the walk, a ValueError refuses the arguments that :meth:`ScanPoint.value` and :func:`threshold`
    refuse, and axes that set a common parameter.
    """
    # every argument is read before the walk, so that bad input is refused, not tabulated as nan
    swept = [name for _, names in axes for name in _read_names(cid, names, "axis names")]
    if twice := [name for name in swept if swept.count(name) > 1]:
        raise ValueError(f"parameter {twice[0]!r} is set by more than one axis")
    for quantity, kind in columns:
        _read_value(quantity, kind, "quantity")
    for names, level, kind in thresholds:
        _read_search(cid, names, level, kind, bracket)
    rows, searches = [], {}
    for values in itertools.product(*(grid for grid, _ in axes)):
        point = {**params, **{name: float(v) for (_, names), v in zip(axes, values) for name in names}}
        model = ScanPoint(cid, point, tol)
        row = [(v, None) for v in values]  # (value, reason) per cell
        for quantity, kind in columns:
            try:
                row.append((model.value(quantity, kind), None))
            except ValueError as exc:
                row.append((math.nan, str(exc)))
        for j, (names, level, kind) in enumerate(thresholds):
            key = (j, *(float(v).hex() for k, v in point.items() if k not in names))  # -0.0 is not 0.0
            if key not in searches:
                searches[key] = threshold(cid, point, names, level, kind, bracket, tol)
            row.append(searches[key])
        rows.append(row)
    return np.array([[value for value, _ in row] for row in rows]), [[why for _, why in row] for row in rows]
