import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from lindlyap import (
    LindbladVector,
    QuadraticHamiltonian,
    build_dynamics,
    local_rotation,
    rotation_from_unitary,
    squeeze_transform,
    stability_check,
    thermal_bath,
)

# Property tests draw the same examples on every run and store none, so a rare
# draw cannot fail one run and then replay in every later run of a checkout.
# `--hypothesis-profile explore --hypothesis-seed N` draws afresh from seed N.
settings.register_profile("ci", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None)
settings.load_profile("ci")


@pytest.fixture
def drift_factorizations(monkeypatch):
    """Names of the eigensolvers run from here on: ``numpy.linalg.eigvals`` anywhere, and
    ``scipy.linalg.schur`` where a lindlyap module calls it (each one factorizes a matrix)."""
    calls = []

    def counting(fn):
        def counted(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(np.linalg, "eigvals", counting(np.linalg.eigvals))
    for name, module in list(sys.modules.items()):
        if name.startswith("lindlyap") and getattr(module, "schur", None) is scipy.linalg.schur:
            monkeypatch.setattr(module, "schur", counting(scipy.linalg.schur))
    return calls


def random_stable_model(rng, n=None, max_tries=60):
    """Draw a random asymptotically stable model with thermal damping on every mode."""
    if n is None:
        n = int(rng.integers(1, 4))
    for _ in range(max_tries):
        h = 0.35 * rng.normal(size=(2 * n, 2 * n))
        ham = QuadraticHamiltonian(0.5 * (h + h.T))
        vectors = []
        for mode in range(n):
            rate = float(rng.uniform(0.6, 1.8))
            occ = float(rng.uniform(0.0, 2.0))
            vectors.extend(thermal_bath(n, mode, rate, occ))
        extra = 0.3 * (rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n))
        vectors.append(LindbladVector(extra))
        dyn = build_dynamics(ham, vectors)
        if stability_check(dyn).is_stable:
            return dyn
    raise RuntimeError("no asymptotically stable draw within the retry budget")


def haar_unitary(rng, n):
    """Haar-random n x n unitary: QR of a complex Gaussian matrix, phases fixed by R's diagonal."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def two_mode_symplectic(max_squeeze, max_factors):
    """Strategy: a product of 1 to max_factors two-mode symplectic factors, each a two-mode
    squeeze by at most max_squeeze, a local rotation or a Haar-random passive rotation."""
    factor = st.one_of(
        st.floats(-max_squeeze, max_squeeze).map(squeeze_transform),
        st.lists(st.floats(-np.pi, np.pi), min_size=2, max_size=2).map(local_rotation),
        st.integers(0, 2**32 - 1).map(
            lambda seed: rotation_from_unitary(haar_unitary(np.random.default_rng(seed), 2))
        ),
    )
    return st.lists(factor, min_size=1, max_size=max_factors).map(
        lambda factors: np.linalg.multi_dot([np.eye(4), *factors])
    )


def random_physical_cm(rng, n):
    """Random covariance matrix with symplectic eigenvalues >= 1."""
    a = rng.normal(size=(2 * n, 2 * n))
    v = a @ a.T + np.eye(2 * n)
    # scale up until the uncertainty test matrix is PSD
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    while np.linalg.eigvalsh(v + 1j * j).min() < 0:
        v = 1.3 * v
    return v


def locate_flip(f, lo, hi, xtol=1e-10):
    """Zero of a scalar function via Brent bracketing."""
    return brentq(f, lo, hi, xtol=xtol)
