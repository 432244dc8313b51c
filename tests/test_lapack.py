"""Schur factorization, Bartels-Stewart solve, matrix exponential and Brent search through scipy's
compiled modules, without the scipy.linalg and scipy.optimize packages."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lindlyap.model
from lindlyap._lapack import load
from lindlyap.lyapunov import _expm
from lindlyap.model import schur_form

SRC = os.path.dirname(os.path.dirname(lindlyap.__file__))
MODULES = ("scipy.linalg._flapack", "scipy.linalg._matfuncs_expm", "scipy.optimize._zeros")


def run_python(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r})\n" + code],
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


def test_scipy_imported_later_shares_the_module():
    """scipy.linalg, imported after lindlyap, hands out lindlyap's LAPACK functions."""
    out = run_python(
        "import numpy as np\n"
        "from lindlyap import _lapack, model\n"
        "import scipy.linalg\n"
        "from scipy.linalg import get_lapack_funcs\n"
        "f, c = np.eye(2), np.eye(2, dtype=complex)\n"
        "print(scipy.linalg.lapack.dgees is _lapack.flapack.dgees is model._gees_of(f.dtype),\n"
        "      scipy.linalg.lapack.zgees is _lapack.flapack.zgees is model._gees_of(c.dtype),\n"
        "      get_lapack_funcs(('trsyl',), (f, f))[0] is _lapack.flapack.dtrsyl,\n"
        "      get_lapack_funcs(('trsyl',), (c, c))[0] is _lapack.flapack.ztrsyl)\n"
    )
    assert out == "True True True True\n"


def test_scipy_imported_first_is_reused():
    out = run_python(
        "import scipy.linalg, scipy.optimize\n"
        "from lindlyap import _lapack\n"
        "print(_lapack.flapack is scipy.linalg._flapack,\n"
        "      _lapack.load('linalg', '_matfuncs_expm') is sys.modules['scipy.linalg._matfuncs_expm'],\n"
        "      _lapack.load('optimize', '_zeros') is scipy.optimize._zeros_py._zeros)\n"
    )
    assert out == "True True True\n"


def test_falls_back_to_the_package_import():
    """Where scipy cannot be found without importing it, the package import gives the module."""
    out = run_python(
        "import importlib.util\n"
        "importlib.util.find_spec = lambda *args: None\n"
        "from lindlyap import _lapack\n"
        "print('scipy.linalg' in sys.modules, _lapack.flapack is sys.modules['scipy.linalg']._flapack)\n"
        "expm, zeros = _lapack.load('linalg', '_matfuncs_expm'), _lapack.load('optimize', '_zeros')\n"
        "print('scipy.optimize' in sys.modules, expm is sys.modules['scipy.linalg']._matfuncs_expm,\n"
        "      zeros is sys.modules['scipy.optimize']._zeros)\n"
    )
    assert out == "True True\nTrue True True\n"


def test_kernels_load_on_first_use_alone():
    """import lindlyap loads _flapack only; each kernel module loads, once, when first asked for, with no
    scipy package."""
    out = run_python(
        f"import lindlyap\nfrom lindlyap._lapack import load\nMODULES = {MODULES!r}\n"
        "print([m in sys.modules for m in MODULES])\n"
        "print(load('linalg', '_matfuncs_expm') is load('linalg', '_matfuncs_expm'),\n"
        "      load('optimize', '_zeros') is load('optimize', '_zeros'))\n"
        "print([m in sys.modules for m in MODULES], 'scipy.linalg' in sys.modules, 'scipy.optimize' in sys.modules)\n"
    )
    assert out == "[True, False, False]\nTrue True\n[True, True, True] False False\n"


def square(n, dtype):
    elements = st.floats(-1e3, 1e3) if dtype is float else st.complex_numbers(max_magnitude=1e3)
    return hnp.arrays(dtype, (n, n), elements=elements)


SHAPES = {"generic": lambda a: a, "upper": np.triu, "lower": np.tril, "diagonal": lambda a: np.diag(np.diag(a))}


def assert_scipys_expm(a):
    with np.errstate(all="ignore"):  # entries up to 1e3 overflow, in both
        got, want = _expm(a), scipy.linalg.expm(a)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 10).flatmap(lambda n: st.sampled_from([float, complex]).flatmap(lambda dtype: square(n, dtype))),
    st.sampled_from(sorted(SHAPES)),
    st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_expm_is_scipys_expm(a, shape, scale):
    """_expm is scipy.linalg.expm, bit for bit, on generic, triangular and diagonal matrices."""
    assert_scipys_expm(SHAPES[shape](a) * scale / 1e3)


def van_loan_block(drift, source):
    n = len(drift)
    return np.block([[-drift, source], [np.zeros((n, n)), drift.conj().T]])


@pytest.mark.parametrize(
    "a",
    [
        van_loan_block(np.diag([-0.5, -1.0, -4.0]), np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.0], [0.1, 0.0, 3.0]])),
        van_loan_block(np.diag([-0.5 + 1j, -2.0]), np.array([[1.0, 0.5j], [-0.5j, 2.0]])),
        np.tril(np.arange(1.0, 26.0).reshape(5, 5)),
        np.array([[-1.0, 7.0, 0.0], [-3.0, 2.0, 5.0], [0.0, 1.0, -8.0]]),
    ],
    ids=["van-loan-diagonal-drift", "van-loan-complex", "lower", "generic"],
)
def test_expm_squares_as_scipy_does(a):
    """Pinned matrices that scale and square (s > 0): the Van Loan block of a diagonal drift is upper
    triangular, so its squarings take the triangular branch."""
    work = np.empty((5, *a.shape), dtype=a.dtype)
    work[0] = 10.0 * a
    assert load("linalg", "_matfuncs_expm").pick_pade_structure(work)[1] > 0
    assert_scipys_expm(10.0 * a)


@pytest.mark.parametrize("info, error", [(-11, MemoryError), (-3, RuntimeError), (2, RuntimeError)])
def test_expm_kernel_failure_raises_scipys_errors(monkeypatch, info, error):
    kernels = load("linalg", "_matfuncs_expm")
    monkeypatch.setattr(kernels, "pade_UV_calc", lambda am, m: info)
    with pytest.raises(error, match=rf"\(error code {info}\)\.?$"):
        _expm(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def brentq_kernel(f, a, b):
    """scan.threshold's call: brentq's kernel with the arguments brentq(f, a, b, xtol=rtol=5e-15) passes."""
    return load("optimize", "_zeros")._brentq(f, a, b, 5e-15, 5e-15, 100, (), False, True)


@pytest.mark.parametrize(
    "f, a, b",
    [(lambda x: x * x - 2.0, 0.0, 2.0), (np.cos, 0.0, 3.0), (lambda x: np.exp(x) - 1e-3, -20.0, 1.0),
     (lambda x: x**3 - x - 1.0, 1.0, 2.0), (lambda x: 1.0 - x, 0.0, 1.0)],
)
def test_brentq_kernel_is_scipys_brentq(f, a, b):
    assert brentq_kernel(f, a, b).hex() == scipy.optimize.brentq(f, a, b, xtol=5e-15, rtol=5e-15).hex()


def test_brentq_kernel_refuses_one_sign_as_scipy_does():
    with pytest.raises(ValueError) as want:
        scipy.optimize.brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=5e-15, rtol=5e-15)
    with pytest.raises(ValueError) as got:
        brentq_kernel(lambda x: x * x + 1.0, -1.0, 1.0)
    assert str(got.value) == str(want.value) == "f(a) and f(b) must have different signs"


def scipy_package_imports(tree: ast.Module):
    """(line, statement) of each import of or from scipy.linalg or scipy.optimize in a module."""
    packages = ("scipy.linalg", "scipy.optimize")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
        else:
            continue
        if any(m == p or m.startswith(p + ".") for m in modules for p in packages):
            yield node.lineno, ast.unparse(node)


def test_only_the_loader_imports_a_scipy_package():
    """The seam: every kernel comes through lindlyap._lapack, and no other module imports from the
    scipy.linalg or scipy.optimize package."""
    found = [f"{path.name}:{line}: {statement}"
             for path in sorted(Path(SRC, "lindlyap").glob("*.py")) if path.name != "_lapack.py"
             for line, statement in scipy_package_imports(ast.parse(path.read_text()))]
    assert found == []


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 9).flatmap(
        lambda n: st.sampled_from([float, complex]).flatmap(
            lambda dtype: hnp.arrays(dtype, (n, n), elements=st.floats(-1e3, 1e3) if dtype is float
                                     else st.complex_numbers(max_magnitude=1e3))
        )
    )
)
def test_schur_form_is_scipys_schur(a):
    """The form is scipy.linalg.schur's, bit for bit."""
    form = schur_form(a)
    t, u = scipy.linalg.schur(a, output="real" if a.dtype == float else "complex")
    assert form.t.dtype == t.dtype and form.u.dtype == u.dtype
    assert form.t.tobytes() == t.tobytes() and form.u.tobytes() == u.tobytes()


@pytest.mark.parametrize("dtype", [float, complex])
def test_failed_factorization_raises_scipys_errors(monkeypatch, dtype):
    """A gees failure raises the LinAlgError (info > 0) or ValueError (info < 0) of scipy.linalg.schur."""
    gees = lindlyap.model._gees
    a = np.array([[-1.0, 2.0], [0.5, -3.0]], dtype=dtype)
    monkeypatch.setattr(lindlyap.model, "_gees", lambda *args: (*gees(*args)[:-1], 1))
    with pytest.raises(scipy.linalg.LinAlgError, match=r"^Schur form not found\. Possibly ill-conditioned\.$"):
        schur_form(a)
    monkeypatch.setattr(lindlyap.model, "_gees", lambda *args: (*gees(*args)[:-1], -2))
    with pytest.raises(ValueError, match=r"^illegal value in 2-th argument of internal gees$"):
        schur_form(a)
