"""numpy, bound lazily: the only package module that loads it.

A continuous ``solve`` or ``game`` runs on Python floats and never reads a
numpy attribute, so it should not pay numpy's import, the largest part of a
command's start-up.  The module below is loaded on its first attribute
read.  When numpy is already imported, that module is used as it is.

The lazy module takes no lock: the first attribute read belongs on one
thread, before any worker thread starts.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    np = importlib.util.module_from_spec(spec)
    # Registered first, so that a plain ``import numpy`` elsewhere finds
    # this module and loads it through its spec.
    sys.modules["numpy"] = np
    spec.loader.exec_module(np)
