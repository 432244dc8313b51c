"""Spectral tests on stationary states and on the environment matrices that
generate them.

Every test has the same shape: a Hermitian test matrix Xi is fixed by the
criterion kind, and one asks whether V + Xi >= 0 (state level) or whether the
correspondingly shifted diffusion matrix is PSD (environment level).  State
level verdicts are two-sided; environment level verdicts are two-sided only
when the drift matrix is symmetric, otherwise positivity is merely sufficient
and a violated test is inconclusive.

Partitions split the n modes into part one and part two; part two is the set
whose momenta are flipped by the partial time reversal entering separability
and steerability tests.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_TOL,
    Definiteness,
    InertiaIndex,
    Tolerances,
    check_hermitian,
    classify_spectrum,
    read_matrix,
    symplectic_form,
    within,
)
from .lyapunov import shifted_source
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
        flipped = frozenset(int(k) for k in self.flipped_modes)
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

    def time_reversal(self) -> np.ndarray:
        """Diagonal matrix flipping the momenta of part two."""
        t = np.ones(2 * self.mode_count)
        for k in self.flipped_modes:
            t[self.mode_count + k] = -1.0
        return np.diag(t)


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
        if self.steered_part not in (1, 2):
            raise ValueError(f"steered_part must be 1 or 2, got {self.steered_part}")


CriterionKind = Uncertainty | Classicality | Separability | Steerability


@functools.lru_cache(maxsize=64)
def xi_matrix(kind: CriterionKind, n: int) -> np.ndarray:
    """Hermitian test matrix of a criterion on n modes.

    The result is built once per (kind, n) and shared by every caller, so it
    is read-only; copy it before modifying it.
    """
    if isinstance(kind, Uncertainty):
        xi = 1j * symplectic_form(n)
    elif isinstance(kind, Classicality):
        xi = -np.eye(2 * n, dtype=complex)
    elif isinstance(kind, (Separability, Steerability)):
        part = kind.partition
        if part.mode_count != n:
            raise ValueError(f"partition is over {part.mode_count} modes, expected {n}")
        if isinstance(kind, Separability):
            t = part.time_reversal()
            xi = 1j * (t @ symplectic_form(n) @ t)
        else:
            # (J + T J T) / 2 with T flipping the momenta of the part that is not steered
            steered = part.part_one if kind.steered_part == 1 else part.part_two
            t = Partition(n, frozenset(range(n)) - frozenset(steered)).time_reversal()
            j = symplectic_form(n)
            xi = 1j * (0.5 * (j + t @ j @ t))
    else:
        raise TypeError(f"unknown criterion kind {kind!r}")
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


_VERDICTS = {
    Definiteness.POSITIVE_DEFINITE: Verdict.HOLDS,
    Definiteness.POSITIVE_SEMIDEFINITE_MARGINAL: Verdict.MARGINAL,
    Definiteness.INDEFINITE: Verdict.VIOLATED,
}


def _verdict_of(tested: np.ndarray, tol: Tolerances, size: float) -> tuple[Verdict, np.ndarray, InertiaIndex]:
    # one eigensolve: spectrum, inertia and verdict; size is that of the shift's terms, which can cancel
    spectrum = np.linalg.eigvalsh(tested)
    idx, definiteness = classify_spectrum(spectrum, tol, size)
    return _VERDICTS[definiteness], spectrum, idx


def _ppt_label(kind: CriterionKind, verdict: Verdict) -> str:
    # a passed transposition test on a many-vs-many split does not exclude bound entanglement
    if (
        isinstance(kind, Separability)
        and verdict is Verdict.HOLDS
        and min(len(kind.partition.part_one), len(kind.partition.part_two)) > 1
    ):
        return "PPT (separable or bound entangled)"
    return ""


def state_criterion(
    cm: np.ndarray, kind: CriterionKind, tol: Tolerances = DEFAULT_TOL
) -> CriterionResult:
    """Evaluate a criterion on a covariance matrix: tested matrix is cm + Xi."""
    v = check_hermitian(read_matrix(cm, "covariance matrix"), tol, what="covariance matrix")
    n = v.shape[0] // 2
    # exactly Hermitian, with no second check: v is, and Xi's entries are 0, +-1 or +-1/2 times i
    tested = v + xi_matrix(kind, n)
    verdict, spectrum, idx = _verdict_of(tested, tol, 1.0)  # 1 is max|Xi|, the same for every kind
    return CriterionResult(
        kind=kind,
        level=Level.STATE,
        tested_matrix=tested,
        spectrum=spectrum,
        inertia=idx,
        verdict=verdict,
        conclusiveness=Conclusiveness.IFF,
        label=_ppt_label(kind, verdict),
    )


def environment_criterion(
    dyn: GaussianDynamics, kind: CriterionKind, tol: Tolerances = DEFAULT_TOL
) -> CriterionResult:
    """Evaluate a criterion directly on the model, without solving for the state.

    The tested matrix is the diffusion matrix shifted by the criterion's Xi,
    D - Xi Gamma^T - Gamma Xi.  For a symmetric drift matrix the test is
    two-sided; otherwise positivity is sufficient for the state-level property
    but a violation proves nothing.  The uncertainty kind reduces to twice the
    conjugate noise Gram matrix, which is PSD for every model, so its verdict
    is always "holds".
    """
    require_stable(dyn, "environment criterion", tol)
    n = dyn.n
    gamma = dyn.drift_matrix
    xi = xi_matrix(kind, n)

    # exactly Hermitian, as the checked diffusion is, and not measured against its own size, which
    # cancellation can shrink
    tested = shifted_source(check_hermitian(dyn.diffusion, tol, what="diffusion"), gamma, xi, tol)
    if isinstance(kind, Uncertainty):
        gram_twice = 2.0 * dyn.noise_gram.conj()
        dev = np.abs(tested - gram_twice).max()
        if not within(dev, tol.residual_tol, np.abs(gram_twice).max(), dyn.drift_schur.size):
            raise RuntimeError(
                f"internal inconsistency: shifted diffusion deviates from twice the "
                f"conjugate noise Gram matrix by {dev:.3e}"
            )
        concl = Conclusiveness.IFF
    else:
        symmetric = within(dyn._drift_asymmetry, tol.residual_tol, dyn.drift_schur.size)  # both measured once
        concl = Conclusiveness.IFF if symmetric else Conclusiveness.SUFFICIENT_ONLY
    # the shift's terms Xi Gamma^T and Gamma Xi have the size of Gamma, as max|Xi| = 1
    verdict, spectrum, idx = _verdict_of(tested, tol, dyn.drift_schur.size)
    if isinstance(kind, Uncertainty):
        if idx.negative:
            raise RuntimeError("noise Gram matrix has a negative eigenvalue beyond the zero band")
        verdict = Verdict.HOLDS  # a marginal Gram matrix still satisfies the uncertainty relation
    return CriterionResult(
        kind=kind,
        level=Level.ENVIRONMENT,
        tested_matrix=tested,
        spectrum=spectrum,
        inertia=idx,
        verdict=verdict,
        conclusiveness=concl,
        label=_ppt_label(kind, verdict),
    )
