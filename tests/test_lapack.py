"""Schur factorization and Bartels-Stewart solve through scipy's compiled LAPACK module,
without the scipy.linalg package."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lindlyap.model
from lindlyap.model import schur_form

SRC = os.path.dirname(os.path.dirname(lindlyap.__file__))


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
        "import scipy.linalg\n"
        "from lindlyap import _lapack\n"
        "print(_lapack.flapack is scipy.linalg._flapack)\n"
    )
    assert out == "True\n"


def test_falls_back_to_the_package_import():
    """Where scipy cannot be found without importing it, the package import gives the module."""
    out = run_python(
        "import importlib.util\n"
        "importlib.util.find_spec = lambda *args: None\n"
        "from lindlyap import _lapack\n"
        "print('scipy.linalg' in sys.modules, _lapack.flapack is sys.modules['scipy.linalg']._flapack)\n"
    )
    assert out == "True True\n"


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
