"""scipy's compiled kernels, loaded without importing the ``scipy.linalg`` or ``scipy.optimize`` package.

The Schur factorization and the Bartels-Stewart solve need two LAPACK routines, ``gees`` and
``trsyl``.  ``scipy.linalg.lapack`` re-exports them from the f2py extension module
``scipy.linalg._flapack``, but ``import scipy.linalg`` also runs scipy's vendored
``array_api_compat.numpy``, which clones the numpy namespace and so loads ``numpy.f2py``,
``numpy.testing`` and ``numpy.ma``: about 0.3 s of a 0.5 s ``import lindlyap`` (``python -X
importtime``, 2 vCPUs).  :data:`flapack` is loaded with this module.  It is all the Lyapunov solve
needs: a complex source on a real Schur form is solved as two real ``trsyl`` systems, not through
``scipy.linalg.rsf2csf``, so no module of lindlyap imports the ``scipy.linalg`` package.

Two more extension modules are loaded on first use, by :func:`load`:
``scipy.linalg._matfuncs_expm``, whose ``pick_pade_structure`` and ``pade_UV_calc`` are the
kernels of ``scipy.linalg.expm`` (for :func:`lindlyap.lyapunov._expm`), and ``scipy.optimize._zeros``,
whose ``_brentq`` is the kernel of ``scipy.optimize.brentq`` (for :func:`lindlyap.scan.threshold`).
Both import only numpy; ``from scipy.optimize import brentq`` costs about 0.7 s cold, loading
``_zeros`` alone 0.5 ms.

An extension module is found through ``importlib.util.find_spec("scipy")``, which runs no
scipy code, and is registered in ``sys.modules`` under its own name, so a later
``import scipy.linalg`` (or ``scipy.optimize``) reuses this very module and its functions are the
ones scipy's wrappers call; for ``_flapack``, the ones ``get_lapack_funcs`` returns.  The import
machinery then routes every lookup, but the package's attribute for the module is not set when
this module loaded it first.  A module already loaded is reused; if the file is not where
scipy's layout puts it (the private name moved, say), importing the module through its package
gives the same module, only with the slower start.
"""

import functools
import importlib.machinery
import importlib.util
import os
import sys


@functools.cache
def load(subpackage: str, module: str):
    """The extension module ``scipy.<subpackage>.<module>``, loaded once."""
    name = f"scipy.{subpackage}.{module}"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    for root in scipy.submodule_search_locations if scipy else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, subpackage, module + suffix)
            if os.path.exists(path):
                spec = importlib.util.spec_from_file_location(name, path)
                extension = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(extension)
                return sys.modules.setdefault(name, extension)
    return importlib.import_module(name)  # not where scipy's layout puts it: the package import finds it


flapack = load("linalg", "_flapack")
