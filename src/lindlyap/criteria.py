"""Spectral tests on stationary states and on the environment matrices that
generate them.

Every test has the same shape: a Hermitian test matrix Xi is fixed by the
criterion kind, and one asks whether V + Xi >= 0 (state level) or whether the
correspondingly shifted diffusion matrix D^ is PSD (environment level).  Both
levels read the verdict off the inertia of the tested matrix, in one place.
State level verdicts are two-sided; environment level verdicts are two-sided
only when the drift matrix is symmetric and commutes with D^, otherwise
positivity is merely sufficient and a violated test is inconclusive.

D^ = D - Xi Gamma^T - Gamma Xi is formed here, from the drift and diffusion of
a model as :mod:`lindlyap.model` built and read them, so the environment level
never reaches the solver: this module imports from ``core`` and ``model`` only.

Partitions split the n modes into part one and part two; part two is the set
whose momenta are flipped by the partial time reversal entering separability
and steerability tests.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    DEFAULT_TOL,
    InertiaIndex,
    Tolerances,
    check_hermitian,
    classify_spectrum,
    read_integer,
    read_matrix,
    symplectic_form,
    within,
)
from .model import GaussianDynamics, require_stable

__all__ = [
    "Level",
    "Verdict",
    "Conclusiveness",
    "Partition",
    "Uncertainty",
    "Classicality",
    "Separability",
    "Steerability",
    "CriterionResult",
    "xi_matrix",
    "state_criterion",
    "environment_criterion",
]


class Level(enum.Enum):
    STATE = "state"
    ENVIRONMENT = "environment"


class Verdict(enum.Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    MARGINAL = "marginal"


class Conclusiveness(enum.Enum):
    IFF = "iff_condition"
    SUFFICIENT_ONLY = "sufficient_only"


@dataclass(frozen=True)
class Partition:
    """Bipartition of n modes; flipped_modes is part two (0-based indices)."""

    mode_count: int
    flipped_modes: frozenset[int]

    def __post_init__(self):
        read_integer(self.mode_count, "mode_count")
        try:
            entries = iter(self.flipped_modes)
        except TypeError:
            raise ValueError(f"flipped_modes (part two) must be a set of mode indices, "
                             f"got {self.flipped_modes!r}") from None
        flipped = frozenset(read_integer(k, "flipped_modes entry") for k in entries)
        if not flipped or len(flipped) >= self.mode_count:
            raise ValueError("part two must be a nonempty proper subset of the modes")
        if any(k < 0 or k >= self.mode_count for k in flipped):
            raise ValueError(f"mode indices must lie in [0, {self.mode_count})")
        object.__setattr__(self, "flipped_modes", flipped)

    @property
    def part_one(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.mode_count) if k not in self.flipped_modes)

    @property
    def part_two(self) -> tuple[int, ...]:
        return tuple(sorted(self.flipped_modes))


@dataclass(frozen=True)
class Uncertainty:
    name: str = field(default="uncertainty", init=False)


@dataclass(frozen=True)
class Classicality:
    name: str = field(default="classicality", init=False)


@dataclass(frozen=True)
class Separability:
    partition: Partition
    name: str = field(default="separability", init=False)


@dataclass(frozen=True)
class Steerability:
    """Test for steering of the given part (1 or 2) by the other part."""

    partition: Partition
    steered_part: int = 1
    name: str = field(default="steerability", init=False)

    def __post_init__(self):
        if read_integer(self.steered_part, "steered_part") not in (1, 2):
            raise ValueError(f"steered_part must be 1 or 2, got {self.steered_part}")

    @property
    def steered(self) -> tuple[int, ...]:
        """The modes of the steered part."""
        return self.partition.part_one if self.steered_part == 1 else self.partition.part_two


CriterionKind = Uncertainty | Classicality | Separability | Steerability


def _read_kind(kind, what: str) -> CriterionKind:
    """``kind`` if it is a criterion kind; anything else is refused by a ValueError naming ``what``."""
    if not isinstance(kind, CriterionKind):
        raise ValueError(f"{what} must be a criterion kind (Uncertainty, Classicality, Separability or "
                         f"Steerability), got {kind!r}")
    return kind


def xi_matrix(kind: CriterionKind, n: int) -> np.ndarray:
    """Hermitian test matrix of a criterion on n modes.

    Uncertainty tests i J and classicality -I.  Separability and steering test
    i J with the rows of each mode k (its q and p rows) weighted by w_k:
    separability sets w_k = -1 on part two and +1 elsewhere, the partial time
    reversal T J T; steering sets w_k = 1 on the steered modes and 0
    elsewhere, (J + T J T) / 2 with T flipping the momenta of the other part.

    The result is built once per (kind, n) and shared by every caller, so it
    is read-only; copy it before modifying it.  A kind that is not a criterion kind, or a mode count that
    is not an integer >= 1, is refused by a ValueError naming it.
    """
    return _xi_matrix(_read_kind(kind, "kind"), n)


@functools.lru_cache(maxsize=64, typed=True)  # typed: 2.0 must not hit the entry of 2 and pass unread
def _xi_matrix(kind: CriterionKind, n: int) -> np.ndarray:
    n = read_integer(n, "mode count", 1)
    if isinstance(kind, Uncertainty):
        xi = 1j * symplectic_form(n)
    elif isinstance(kind, Classicality):
        xi = -np.eye(2 * n, dtype=complex)
    else:
        part = kind.partition
        if part.mode_count != n:
            raise ValueError(f"partition is over {part.mode_count} modes, expected {n}")
        if isinstance(kind, Separability):
            w = np.where(np.isin(np.arange(n), part.part_two), -1.0, 1.0)
        else:
            w = np.isin(np.arange(n), kind.steered) * 1.0
        # + 0.0 clears the signed zeros that 0 * -1 leaves
        xi = 1j * (symplectic_form(n) * np.tile(w, 2)[:, None] + 0.0)
    xi.flags.writeable = False
    return xi


@dataclass(frozen=True)
class CriterionResult:
    """Spectral outcome of one criterion at one level."""

    kind: CriterionKind
    level: Level
    tested_matrix: np.ndarray
    spectrum: np.ndarray  # ascending, real
    inertia: InertiaIndex
    verdict: Verdict
    conclusiveness: Conclusiveness
    label: str = ""

    @property
    def conclusion(self) -> str:
        """Verdict with one-sidedness folded in: a violated sufficient test decides nothing."""
        if self.verdict is Verdict.VIOLATED and self.conclusiveness is Conclusiveness.SUFFICIENT_ONLY:
            return "inconclusive"
        return self.verdict.value


def _result(
    kind: CriterionKind, level: Level, tested: np.ndarray, concl: Conclusiveness, tol: Tolerances, size: float
) -> CriterionResult:
    """The result of the test ``tested`` >= 0, from one eigensolve.

    The verdict is read off the inertia (:func:`classify_spectrum`, whose zero band also spans
    ``size``, that of the shift's terms, which can cancel): violated if an eigenvalue lies below the
    band, otherwise marginal if one lies inside it, otherwise holds.
    """
    spectrum = np.linalg.eigvalsh(tested)
    idx = classify_spectrum(spectrum, tol, size)
    verdict = Verdict.VIOLATED if idx.negative else Verdict.MARGINAL if idx.zero else Verdict.HOLDS
    # a passed transposition test on a many-vs-many split does not exclude bound entanglement
    ppt = (
        isinstance(kind, Separability)
        and verdict is Verdict.HOLDS
        and min(len(kind.partition.part_one), len(kind.partition.part_two)) > 1
    )
    return CriterionResult(
        kind=kind,
        level=level,
        tested_matrix=tested,
        spectrum=spectrum,
        inertia=idx,
        verdict=verdict,
        conclusiveness=concl,
        label="PPT (separable or bound entangled)" if ppt else "",
    )


def state_criterion(
    cm: np.ndarray, kind: CriterionKind, tol: Tolerances = DEFAULT_TOL
) -> CriterionResult:
    """Evaluate a criterion on a covariance matrix: tested matrix is cm + Xi."""
    v = check_hermitian(read_matrix(cm, "covariance matrix"), tol, what="covariance matrix")
    n = v.shape[0] // 2
    # exactly Hermitian, with no second check: v is, and Xi's entries are 0 or +-i, or -1 on the diagonal
    # for classicality
    tested = v + xi_matrix(kind, n)
    # 1 is max|Xi|, the same for every kind
    return _result(kind, Level.STATE, tested, Conclusiveness.IFF, tol, 1.0)


def environment_criterion(
    dyn: GaussianDynamics, kind: CriterionKind, tol: Tolerances = DEFAULT_TOL
) -> CriterionResult:
    """Evaluate a criterion directly on the model, without solving for the state.

    The tested matrix is the diffusion matrix shifted by the criterion's Xi,
    D^ = D - Xi Gamma^T - Gamma Xi.  For any stable drift matrix Gamma, D^ >= 0
    implies V + Xi >= 0.  The test is two-sided only when Gamma is symmetric
    and commutes with D^: then V + Xi = D^ (-2 Gamma)^-1, a product of
    commuting factors with -2 Gamma > 0.  Otherwise a violation proves nothing.
    The uncertainty kind reduces to twice the conjugate noise Gram matrix,
    which is PSD for every model, so its verdict is always "holds" and its
    test two-sided.
    """
    require_stable(dyn, "environment criterion", tol)
    gamma = dyn.drift_matrix
    g = gamma @ xi_matrix(kind, dyn.n)  # the kind's partition is read before the diffusion
    # One product G = Gamma Xi gives both terms, as Xi is exactly Hermitian: Xi Gamma^T = G^dag.  The
    # sum G + G^dag is exactly Hermitian, since its (i, j) entry g_ij + conj(g_ji) and the conjugate of
    # its (j, i) entry add the same two numbers, so D^ is exactly Hermitian with the checked diffusion,
    # as the eigensolve needs, and is not measured against its own size, which cancellation can shrink.
    # Two subtractions, D - G - G^dag, would round the mirrored entries in different orders.
    tested = check_hermitian(dyn.diffusion, tol, what="diffusion") - (g + g.conj().T)
    if isinstance(kind, Uncertainty):
        gram_twice = 2.0 * dyn.noise_gram.conj()
        dev = np.abs(tested - gram_twice).max()
        if not within(dev, tol.residual_tol, np.abs(gram_twice).max(), dyn.drift_schur.size):
            raise RuntimeError(
                f"internal inconsistency: shifted diffusion deviates from twice the "
                f"conjugate noise Gram matrix by {dev:.3e}"
            )
        two_sided = True
    else:
        two_sided = within(np.abs(gamma - gamma.T).max(), tol.residual_tol, dyn.drift_schur.size)
        if two_sided:
            # G - G^dag with G = Gamma D^ is the commutator [Gamma, D^] of a symmetric Gamma
            g = gamma @ tested
            dev = np.abs(g - g.conj().T).max()
            two_sided = within(dev, tol.residual_tol, dyn.drift_schur.size * np.abs(tested).max())
    concl = Conclusiveness.IFF if two_sided else Conclusiveness.SUFFICIENT_ONLY
    # the shift's terms Xi Gamma^T and Gamma Xi have the size of Gamma, as max|Xi| = 1
    res = _result(kind, Level.ENVIRONMENT, tested, concl, tol, dyn.drift_schur.size)
    if isinstance(kind, Uncertainty):
        if res.inertia.negative:
            raise RuntimeError("noise Gram matrix has a negative eigenvalue beyond the zero band")
        # a marginal Gram matrix still satisfies the uncertainty relation
        res = replace(res, verdict=Verdict.HOLDS)
    return res
