"""scipy's compiled LAPACK wrappers, loaded without importing the ``scipy.linalg`` package.

The Schur factorization and the Bartels-Stewart solve need two LAPACK routines, ``gees`` and
``trsyl``.  ``scipy.linalg.lapack`` re-exports them from the f2py extension module
``scipy.linalg._flapack``, but ``import scipy.linalg`` also runs scipy's vendored
``array_api_compat.numpy``, which clones the numpy namespace and so loads ``numpy.f2py``,
``numpy.testing`` and ``numpy.ma``: about 0.3 s of a 0.5 s ``import lindlyap`` (``python -X
importtime``, 2 vCPUs).

The extension module is found through ``importlib.util.find_spec("scipy")``, which runs no
scipy code, and is registered in ``sys.modules`` under its own name, so a later
``import scipy.linalg`` reuses this very module and its functions are the ones that
``get_lapack_funcs`` returns.  The import machinery then routes every lookup, but the
``_flapack`` attribute of the ``scipy.linalg`` package is not set when this module loaded the
extension first.  A module already loaded is reused; if the file is not where scipy's layout
puts it (the private name moved, say), ``from scipy.linalg import _flapack`` gives the same
module, only with the slower start.
"""

import importlib.machinery
import importlib.util
import os
import sys

NAME = "scipy.linalg._flapack"


def _load():
    if NAME in sys.modules:
        return sys.modules[NAME]
    scipy = importlib.util.find_spec("scipy")
    for root in scipy.submodule_search_locations if scipy else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.exists(path):
                spec = importlib.util.spec_from_file_location(NAME, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                return sys.modules.setdefault(NAME, module)
    from scipy.linalg import _flapack  # not where scipy's layout puts it: the package import finds it

    return _flapack


flapack = _load()
