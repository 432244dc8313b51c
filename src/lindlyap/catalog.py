"""Built-in model families with closed-form reference results.

Each catalog entry builds a ModelSpec from named parameters; where a closed
form for the steady state, a criterion spectrum, or a parameter threshold is
known, catalog_analytic returns it so numerical routes can be checked against
an independent expression.  Catalog ids and parameter names are stable and
are part of the CLI/JSON contract.

Families
--------
TwoOscThermal : two harmonic modes, position-position coupling, each damped
    by its own thermal bath.  Params: omega1, omega2, kappa, zeta1, zeta2,
    nbar1, nbar2.
TwoOscRWA : two modes with excitation-exchange coupling (equal q and p
    coupling blocks), thermal baths.  Params: varpi, Omega, zeta1, zeta2,
    nbar1, nbar2.
OPO : one mode, quadrature squeezing drive against vacuum decay.
    Params: epsilon, kappa.
CascadedOPO : two squeezed modes sharing one unidirectional decay channel.
    Params: epsilon1, epsilon2, kappa.
OPOThermal : two modes with joint squeezing and beamsplitter coupling, equal
    thermal baths; symmetric drift matrix.  Params: epsilon, kappa, zeta,
    nbar.
TMTSS : two-mode squeezed thermal target state alpha S S^T.  The model is
    realized from its Gibbs pair (-I/2, alpha S S^T), the reservoir that
    prepares it; it is not engineered at build time, so no solve checks it
    against the target.  Params: r, nbar.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .core import read_integer, read_number
from .model import LindbladVector, ModelSpec, QuadraticHamiltonian, realize_lindblad, stability_check

__all__ = [
    "CatalogId",
    "catalog_id",
    "PARAM_NAMES",
    "NONNEGATIVE_PARAMS",
    "resolve_param",
    "resolve_params",
    "catalog_build",
    "catalog_analytic",
    "thermal_bath",
    "squeeze_transform",
]


class CatalogId(enum.Enum):
    TWO_OSC_THERMAL = "TwoOscThermal"
    TWO_OSC_RWA = "TwoOscRWA"
    OPO = "OPO"
    CASCADED_OPO = "CascadedOPO"
    OPO_THERMAL = "OPOThermal"
    TMTSS = "TMTSS"


def catalog_id(value, what: str = "catalog id") -> CatalogId:
    """``value`` as a CatalogId; an unknown id is a ValueError naming ``what`` and the valid ids."""
    try:
        return CatalogId(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be one of {[c.value for c in CatalogId]}, got {value!r}") from None


PARAM_NAMES: dict[CatalogId, tuple[str, ...]] = {
    CatalogId.TWO_OSC_THERMAL: ("omega1", "omega2", "kappa", "zeta1", "zeta2", "nbar1", "nbar2"),
    CatalogId.TWO_OSC_RWA: ("varpi", "Omega", "zeta1", "zeta2", "nbar1", "nbar2"),
    CatalogId.OPO: ("epsilon", "kappa"),
    CatalogId.CASCADED_OPO: ("epsilon1", "epsilon2", "kappa"),
    CatalogId.OPO_THERMAL: ("epsilon", "kappa", "zeta", "nbar"),
    CatalogId.TMTSS: ("r", "nbar"),
}

# parameters that are rates or occupations, so must be >= 0; the others (frequencies, Hamiltonian
# couplings such as OPOThermal's kappa, drive strengths and squeezing) are free
NONNEGATIVE_PARAMS: dict[CatalogId, frozenset[str]] = {
    CatalogId.TWO_OSC_THERMAL: frozenset({"zeta1", "zeta2", "nbar1", "nbar2"}),
    CatalogId.TWO_OSC_RWA: frozenset({"zeta1", "zeta2", "nbar1", "nbar2"}),
    CatalogId.OPO: frozenset({"kappa"}),
    CatalogId.CASCADED_OPO: frozenset({"kappa"}),
    CatalogId.OPO_THERMAL: frozenset({"zeta", "nbar"}),
    CatalogId.TMTSS: frozenset({"nbar"}),
}

# parameter aliases that fan out to several underlying names (sweep convenience)
PARAM_ALIASES: dict[CatalogId, dict[str, tuple[str, ...]]] = {
    CatalogId.TWO_OSC_THERMAL: {
        "omega": ("omega1", "omega2"),
        "zeta": ("zeta1", "zeta2"),
        "nbar": ("nbar1", "nbar2"),
    },
    CatalogId.TWO_OSC_RWA: {
        "zeta": ("zeta1", "zeta2"),
        "nbar": ("nbar1", "nbar2"),
    },
}

# occupations below this are treated as exactly zero in threshold formulas
_NBAR_FLOOR = 1e-12


def thermal_bath(n: int, mode: int, rate: float, occupation: float) -> list[LindbladVector]:
    """Coupling vectors of one mode damped by a thermal bath.

    Returns the loss vector (weight rate * (occupation + 1)) and, for nonzero
    occupation, the gain vector (weight rate * occupation).
    """
    n, mode = read_integer(n, "mode count"), read_integer(mode, "bath mode")
    if not 0 <= mode < n:
        raise ValueError(f"mode index {mode} out of range for {n} modes")
    rate = read_number(rate, "bath rate", "nonnegative")
    occupation = read_number(occupation, "bath occupation", "nonnegative")
    out = []
    # the loss couples (i c, -c) to the mode's (q, p) slots, the gain (-i c, -c); c = sqrt(rate * weight / 2)
    for weight, q_phase in ((occupation + 1.0, 1j), (occupation, -1j)):
        if weight > 0:
            c = math.sqrt(rate * weight / 2.0)
            lam = np.zeros(2 * n, dtype=complex)
            lam[mode], lam[n + mode] = q_phase * c, -c
            out.append(LindbladVector(lam))
    return out


def squeeze_transform(r: float) -> np.ndarray:
    """Two-mode squeezing symplectic: cosh/sinh mixing of the quadrature pairs.  r must be finite."""
    r = read_number(r, "squeezing r", "finite")
    try:
        c, s = math.cosh(r), math.sinh(r)
    except OverflowError:
        raise ValueError(f"squeezing {r!r} overflows double precision") from None
    return _two_mode_matrix(np.array([[c, s], [s, c]]), 0.0, 0.0, np.array([[c, -s], [-s, c]]))


def _two_mode_matrix(qq, qp, pq, pp) -> np.ndarray:
    """The 4 x 4 float matrix [[qq, qp], [pq, pp]] of 2 x 2 blocks (a scalar block is filled with it),
    written into one array by slices: the result of ``np.block``, bit for bit, at a fraction of its cost."""
    m = np.empty((4, 4))
    m[:2, :2], m[:2, 2:], m[2:, :2], m[2:, 2:] = qq, qp, pq, pp
    return m


def resolve_param(cid: CatalogId, key: str) -> tuple[str, ...]:
    """The parameter names ``key`` sets: itself, or the per-mode names an alias fans out to."""
    names = PARAM_ALIASES.get(cid, {}).get(key, (key,))
    if not set(names) <= set(PARAM_NAMES[cid]):
        raise ValueError(
            f"unknown parameter {key!r} for {cid.value}; expected {sorted(PARAM_NAMES[cid])}"
        )
    return names


def resolve_params(cid: CatalogId, params: dict) -> dict[str, float]:
    """Complete, finite parameters of a catalog model by their own names, aliases fanned out.

    Rates and occupations (``NONNEGATIVE_PARAMS``) must be >= 0.  An error
    names the parameter as given, alias included.
    """
    expected = set(PARAM_NAMES[cid])
    resolved: dict[str, float] = {}
    for key, value in params.items():
        for name in resolve_param(cid, key):
            if name in resolved:
                raise ValueError(f"parameter {name!r} of {cid.value} given more than once")
            what = f"parameter {key!r} of {cid.value}"
            # text, as float() parses it, is read first: parameters may come from a document
            resolved[name] = read_number(read_number(value, what), what, "finite")
            if resolved[name] < 0 and name in NONNEGATIVE_PARAMS[cid]:
                raise ValueError(
                    f"parameter {key!r} of {cid.value} is a rate or occupation and must be >= 0, "
                    f"got {value!r}"
                )
    missing = expected - set(resolved)
    if missing:
        raise ValueError(f"missing parameters for {cid.value}: {sorted(missing)}")
    return resolved


def catalog_build(cid: CatalogId | str, params: dict) -> ModelSpec:
    """Instantiate a catalog model from its named parameters (a failed TMTSS recipe names r).

    A build takes no tolerance: TMTSS's realization drops its Gram eigenvalues inside the zero band of
    DEFAULT_TOL, so one document names one model whatever tolerances later judge it.
    """
    cid = catalog_id(cid)
    p = resolve_params(cid, params)

    if cid is CatalogId.TWO_OSC_THERMAL:
        hq = np.array(
            [
                [p["omega1"] + p["kappa"] / 2, -p["kappa"] / 2],
                [-p["kappa"] / 2, p["omega2"] + p["kappa"] / 2],
            ]
        )
        hp = np.diag([p["omega1"], p["omega2"]])
        ham = QuadraticHamiltonian(_two_mode_matrix(hq, 0.0, 0.0, hp))
        vecs = thermal_bath(2, 0, p["zeta1"], p["nbar1"]) + thermal_bath(2, 1, p["zeta2"], p["nbar2"])
        return ModelSpec(ham, vecs)

    if cid is CatalogId.TWO_OSC_RWA:
        hb = np.array([[p["varpi"], p["Omega"]], [p["Omega"], p["varpi"]]])
        ham = QuadraticHamiltonian(_two_mode_matrix(hb, 0.0, 0.0, hb))
        vecs = thermal_bath(2, 0, p["zeta1"], p["nbar1"]) + thermal_bath(2, 1, p["zeta2"], p["nbar2"])
        return ModelSpec(ham, vecs)

    if cid is CatalogId.OPO:
        eps, kap = p["epsilon"], p["kappa"]
        ham = QuadraticHamiltonian(np.array([[0.0, eps / 2], [eps / 2, 0.0]]))
        lam = math.sqrt(kap / 2.0) * np.array([1j, -1.0], dtype=complex)
        return ModelSpec(ham, [LindbladVector(lam)])

    if cid is CatalogId.CASCADED_OPO:
        e1, e2, kap = p["epsilon1"], p["epsilon2"], p["kappa"]
        c = np.array([[e1 / 2, -kap / 2], [kap / 2, e2 / 2]])
        ham = QuadraticHamiltonian(_two_mode_matrix(0.0, c, c.T, 0.0))
        lam = math.sqrt(kap / 2.0) * np.array([1j, 1j, -1.0, -1.0], dtype=complex)
        return ModelSpec(ham, [LindbladVector(lam)])

    if cid is CatalogId.OPO_THERMAL:
        eps, kap = p["epsilon"], p["kappa"]
        c = np.array([[eps / 2, kap / 2], [kap / 2, eps / 2]])
        ham = QuadraticHamiltonian(_two_mode_matrix(0.0, c, c.T, 0.0))
        vecs = thermal_bath(2, 0, p["zeta"], p["nbar"]) + thermal_bath(2, 1, p["zeta"], p["nbar"])
        return ModelSpec(ham, vecs)

    if cid is CatalogId.TMTSS:
        # the Gibbs pair (-I/2, alpha S S^T), its drift built as engineer_target builds it
        return _tmtss(p, p["r"] / 2.0,
                      lambda s: realize_lindblad(np.diag(np.full(4, -0.5)), (2.0 * p["nbar"] + 1.0) * (s @ s.T)).spec)

    raise ValueError(f"unknown catalog id {cid!r}")


def _tmtss(p: dict[str, float], squeezing: float, recipe):
    """``recipe(S)`` of the two-mode squeeze S = squeeze_transform(squeezing) for the TMTSS parameters p,
    with overflow and invalid operations raised; a failure is refused by a ValueError naming r and nbar."""
    try:  # squeezing beyond what double precision resolves is bad input, not an engineering request
        with np.errstate(over="raise", invalid="raise"):
            return recipe(squeeze_transform(squeezing))
    except (ValueError, ArithmeticError) as exc:
        raise ValueError(f"TMTSS parameters r = {p['r']!r}, nbar = {p['nbar']!r} lie outside the "
                         f"range its engineering recipe realizes: {exc}") from exc


def _symmetric_two_osc(p: dict[str, float]) -> tuple[float, float, float]:
    pairs = [("omega1", "omega2"), ("zeta1", "zeta2"), ("nbar1", "nbar2")]
    for a, b in pairs:
        if not math.isclose(p[a], p[b], rel_tol=1e-12, abs_tol=1e-15):
            raise ValueError(f"closed form needs symmetric parameters, {a} != {b}")
    return p["omega1"], p["zeta1"], p["nbar1"]


def _two_osc_thermal_cm(p: dict[str, float]) -> np.ndarray:
    om, z, nb = _symmetric_two_osc(p)
    kap = p["kappa"]
    c = (2 * nb + 1) * kap / (z**2 + 4 * om * (om + kap))
    mode_part = np.array([[-1.0, 1.0], [1.0, -1.0]])
    block_part = np.array([[om, z / 2], [z / 2, -(om + kap)]])
    return (2 * nb + 1) * np.eye(4) + c * np.kron(block_part, mode_part)


def _rwa_cm(p: dict[str, float]) -> np.ndarray:
    z1, z2, om = p["zeta1"], p["zeta2"], p["Omega"]
    n1, n2 = p["nbar1"], p["nbar2"]
    den = (z1 + z2) * (4 * om**2 + z1 * z2)
    base = 2 * (z1 * n1 + z2 * n2) / (z1 + z2)
    v1 = base + 2 * (n1 - n2) * z1 * z2**2 / den + 1
    v2 = base + 2 * (n2 - n1) * z1**2 * z2 / den + 1
    v14 = 4 * z1 * z2 * om * (n2 - n1) / den
    return np.array(
        [
            [v1, 0, 0, v14],
            [0, v2, -v14, 0],
            [0, -v14, v1, 0],
            [v14, 0, 0, v2],
        ]
    )


def _cascade_cm(p: dict[str, float]) -> np.ndarray:
    e1, e2, kap = p["epsilon1"], p["epsilon2"], p["kappa"]
    gm = (e1 + e2 - 2 * kap) * (e1 - kap)
    gp = (e1 + e2 + 2 * kap) * (e1 + kap)
    hp = (e1**2 + e1 * e2 + e1 * kap + 2 * kap**2 - kap * e2) / (e2 - kap)
    hm = (e1**2 + e1 * e2 - e1 * kap + 2 * kap**2 + kap * e2) / (e2 + kap)
    vq = np.array([[kap / (kap - e1), -2 * kap * e1 / gm], [-2 * kap * e1 / gm, -kap * hp / gm]])
    vp = np.array([[kap / (kap + e1), 2 * kap * e1 / gp], [2 * kap * e1 / gp, kap * hm / gp]])
    z2 = np.zeros((2, 2))
    return np.block([[vq, z2], [z2, vp]])


def _cascade_pure_cm(p: dict[str, float]) -> np.ndarray:
    e1, e2, kap = p["epsilon1"], p["epsilon2"], p["kappa"]
    if not math.isclose(e1, -e2, rel_tol=1e-12, abs_tol=1e-15):
        raise ValueError("pure steady state needs epsilon1 = -epsilon2")
    ratio = math.sqrt((kap - e2) / (kap + e2))
    up = 0.5 * np.array([[1 + ratio, 1 - ratio], [1 - ratio, 1 + ratio]])
    dn = 0.5 / ratio * np.array([[1 + ratio, ratio - 1], [ratio - 1, 1 + ratio]])
    z2 = np.zeros((2, 2))
    s = np.block([[up, z2], [z2, dn]])
    return s @ s.T


def _require_steady(cid: CatalogId, p: dict[str, float], quantity: str) -> None:
    """Refuse ``quantity``, a steady state, where the model built from ``p`` has none, as its drift is not
    asymptotically stable: there a closed form would divide by zero or return a false state."""
    report = stability_check(catalog_build(cid, p).build())
    if not report.is_stable:
        raise ValueError(f"{quantity} of {cid.value}: the model has no steady state at these parameters, "
                         f"its drift has spectral abscissa {report.spectral_abscissa:.6e}")


def _guard_nbar(nbar: float) -> float | None:
    # thresholds diverge like 1/nbar (steering like 1/sqrt(nbar)); below the floor report inf
    if nbar < _NBAR_FLOOR:
        return math.inf
    return None


def catalog_analytic(cid: CatalogId | str, quantity: str, params: dict):
    """Closed-form reference quantities for catalog models.

    Spectra are returned ascending; thresholds are scalar parameter values at
    which the named criterion changes verdict.  Threshold quantities diverge
    as occupations vanish and return inf below an occupation floor; threshold
    formulas whose argument leaves the valid window return nan (no crossing).
    A steady state (steady_cm, pure_cm) is refused by a ValueError where the
    model is not asymptotically stable, as it has none there.

    Quantities by id
    ----------------
    TwoOscThermal : steady_cm (symmetric params), drift_spectrum (symmetric),
        classicality_threshold_env, separability_threshold_env (zeta/kappa
        units, any occupations), classicality_threshold_state,
        separability_threshold_state (zeta/kappa units, symmetric params).
    TwoOscRWA : steady_cm, classicality_spectrum_env.
    OPO : steady_cm, drift_spectrum, classicality_spectrum_env.
    CascadedOPO : steady_cm, pure_cm (epsilon1 = -epsilon2), drift_spectrum,
        separability_spectrum_env, steerability_spectrum_part1_env,
        steerability_spectrum_part2_env.
    OPOThermal : drift_spectrum, classicality_spectrum_env,
        separability_spectrum_env, steerability_spectrum_env,
        classicality_flip, separability_flip, steerability_flip,
        stability_edge (zeta units).
    TMTSS : target_cm, separability_flip, steerability_flip (r units).
    """
    cid = catalog_id(cid)
    p = resolve_params(cid, params)

    if cid is CatalogId.TWO_OSC_THERMAL:
        if quantity == "steady_cm":
            _require_steady(cid, p, quantity)
            return _two_osc_thermal_cm(p)
        if quantity == "drift_spectrum":
            om, z, _ = _symmetric_two_osc(p)
            kap = p["kappa"]
            hybrid = math.sqrt(om * (om + kap))
            return np.sort_complex(
                np.array([-z / 2 + 1j * om, -z / 2 - 1j * om, -z / 2 + 1j * hybrid, -z / 2 - 1j * hybrid])
            )
        if quantity == "classicality_threshold_env":
            n1, n2 = p["nbar1"], p["nbar2"]
            guard = _guard_nbar(min(n1, n2))
            return guard if guard is not None else (n1 + n2) / (4 * n1 * n2)
        if quantity == "separability_threshold_env":
            n1, n2 = p["nbar1"], p["nbar2"]
            guard = _guard_nbar(min(n1, n2))
            if guard is not None:
                return guard
            return math.sqrt(
                (2 * n1 + 1) * (2 * n2 + 1) / (16 * n1 * n2 * (n1 + 1) * (n2 + 1))
            )
        if quantity == "classicality_threshold_state":
            om, _, nb = _symmetric_two_osc(p)
            kap = p["kappa"]
            guard = _guard_nbar(nb)
            if guard is not None:
                return guard
            arg = 1.0 / (4 * nb**2) - (2 * om / kap + 1) ** 2
            return math.sqrt(arg) if arg >= 0 else math.nan
        if quantity == "separability_threshold_state":
            om, _, nb = _symmetric_two_osc(p)
            kap = p["kappa"]
            guard = _guard_nbar(nb)
            if guard is not None:
                return guard
            arg = 1.0 / (16 * nb**2 * (nb + 1) ** 2) - (2 * om / kap + 1) ** 2
            return math.sqrt(arg) if arg >= 0 else math.nan

    elif cid is CatalogId.TWO_OSC_RWA:
        if quantity == "steady_cm":
            _require_steady(cid, p, quantity)
            return _rwa_cm(p)
        if quantity == "classicality_spectrum_env":
            a, b = 2 * p["zeta1"] * p["nbar1"], 2 * p["zeta2"] * p["nbar2"]
            return np.sort(np.array([a, a, b, b]))

    elif cid is CatalogId.OPO:
        eps, kap = p["epsilon"], p["kappa"]
        if quantity == "steady_cm":
            _require_steady(cid, p, quantity)
            return np.diag([kap / (kap - eps), kap / (kap + eps)])
        if quantity == "drift_spectrum":
            return np.sort(np.array([(eps - kap) / 2, -(eps + kap) / 2]))
        if quantity == "classicality_spectrum_env":
            return np.sort(np.array([eps, -eps]))

    elif cid is CatalogId.CASCADED_OPO:
        kap = p["kappa"]
        if quantity in ("steady_cm", "pure_cm"):
            _require_steady(cid, p, quantity)
            return _cascade_cm(p) if quantity == "steady_cm" else _cascade_pure_cm(p)
        if quantity == "drift_spectrum":
            e1, e2 = p["epsilon1"], p["epsilon2"]
            return np.sort(
                np.array([(e1 - kap) / 2, (e2 - kap) / 2, -(e1 + kap) / 2, -(e2 + kap) / 2])
            )
        if quantity == "separability_spectrum_env":
            r5 = math.sqrt(5.0)
            return np.sort(kap * np.array([1 + r5, 1 - r5, 2.0, 0.0]))
        if quantity == "steerability_spectrum_part1_env":
            r17 = math.sqrt(17.0)
            return np.sort(kap * np.array([(3 + r17) / 2, (3 - r17) / 2, 1.0, 0.0]))
        if quantity == "steerability_spectrum_part2_env":
            r5 = math.sqrt(5.0)
            return np.sort(kap * np.array([(1 + r5) / 2, (1 - r5) / 2, (3 + r5) / 2, (3 - r5) / 2]))

    elif cid is CatalogId.OPO_THERMAL:
        eps, kap, z, nb = p["epsilon"], p["kappa"], p["zeta"], p["nbar"]
        if quantity == "drift_spectrum":
            return np.sort(
                np.array(
                    [
                        (eps + kap) / 2 - z / 2,
                        (eps - kap) / 2 - z / 2,
                        -(eps + kap) / 2 - z / 2,
                        -(eps - kap) / 2 - z / 2,
                    ]
                )
            )
        if quantity == "classicality_spectrum_env":
            return np.sort(
                np.array(
                    [
                        2 * z * nb + (eps + kap),
                        2 * z * nb - (eps + kap),
                        2 * z * nb + (eps - kap),
                        2 * z * nb - (eps - kap),
                    ]
                )
            )
        if quantity == "separability_spectrum_env":
            return np.sort(
                np.array(
                    [
                        2 * z * nb + kap,
                        2 * z * nb - kap,
                        2 * z * (nb + 1) + kap,
                        2 * z * (nb + 1) - kap,
                    ]
                )
            )
        if quantity == "steerability_spectrum_env":
            root = 0.5 * math.sqrt(z**2 + kap**2)
            lo = (2 * nb + 0.5) * z
            hi = (2 * nb + 1.5) * z
            return np.sort(np.array([lo - root, lo + root, hi - root, hi + root]))
        if quantity == "classicality_flip":
            guard = _guard_nbar(nb)
            return guard if guard is not None else (eps + kap) / (2 * nb)
        if quantity == "separability_flip":
            guard = _guard_nbar(nb)
            return guard if guard is not None else kap / (2 * nb)
        if quantity == "steerability_flip":
            guard = _guard_nbar(nb)
            return guard if guard is not None else kap / math.sqrt(4 * (2 * nb + 0.5) ** 2 - 1.0)
        if quantity == "stability_edge":
            return eps + kap

    elif cid is CatalogId.TMTSS:
        r, nb = p["r"], p["nbar"]
        if quantity == "target_cm":
            return _tmtss(p, r, lambda s: (2 * nb + 1) * s)
        if quantity == "separability_flip":
            return math.log(2 * nb + 1)
        if quantity == "steerability_flip":
            return math.acosh(2 * nb + 1)

    raise ValueError(f"no closed form for quantity {quantity!r} of {cid.value}")
