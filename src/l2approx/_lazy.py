"""numpy and scipy's LAPACK wrapper, each loaded on first use.

``import l2approx`` loads this module and the description layer
(``errors``, ``groups``, ``groupring``, ``matrices``, ``jsonio``) and no
module of the numerics layer.  Reading and validating a problem is exact
Python work in that layer, so set-up and every input error finish without
numpy and without a numerics module; ``--help`` imports the numerics
modules through the CLI but not numpy.  A report loads numpy before its
first solve.  ``np`` is numpy registered through
``importlib.util.LazyLoader``: numpy's ``__init__`` runs on the first
attribute access, so no library module may touch ``np`` at import time.
Before Python 3.12 that first access is not guarded by a lock, so two
threads that make it at once could both run numpy's ``__init__``; the
library starts no threads.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from functools import cache


def _lazy_module(name: str):
    """The module ``name``, loaded on first attribute access.  A module
    already imported is returned as it is, and a blocked one
    (``sys.modules[name] = None``) or a missing one raises ImportError
    here, as ``import name`` would."""
    if name in sys.modules:
        return importlib.import_module(name)
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy_module("numpy")


@cache
def flapack():
    """scipy's f2py LAPACK wrapper ``scipy.linalg._flapack``, loaded from its
    file.  Importing ``scipy.linalg`` instead runs its ``__init__``, which
    takes about a quarter second (it loads numpy.f2py, numpy.testing and
    more through scipy's array API layer) for a solve that needs none of it."""
    where = [
        os.path.join(path, "linalg")
        for path in importlib.util.find_spec("scipy").submodule_search_locations
    ]
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", where)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
