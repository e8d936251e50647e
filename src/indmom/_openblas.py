"""BLAS and LAPACK routines from the OpenBLAS that numpy's wheels bundle.

numpy's wheels ship OpenBLAS beside the package (``numpy.libs/`` on Linux
and Windows, ``numpy/.dylibs/`` on macOS), built with 64-bit integers and
its symbols renamed to ``scipy_<name>_64_``.  Callers bind a routine with
:func:`symbol` and fall back to numpy where it returns None.  A Fortran
CHARACTER argument is passed as ``CHAR``, and its length (``LEN``) is
appended after the other arguments.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np

INT = ctypes.POINTER(ctypes.c_int64)
DOUBLES = ctypes.POINTER(ctypes.c_double)
CHAR = ctypes.c_char_p
LEN = ctypes.c_size_t


@functools.cache
def symbol(name: str, *argtypes):
    """``scipy_<name>_64_`` from numpy's bundled OpenBLAS with ``argtypes``, or None."""
    root = Path(np.__file__).resolve().parent
    for folder in (root.parent / "numpy.libs", root / ".dylibs"):
        for path in sorted(folder.glob("*openblas*")):
            try:
                fn = getattr(ctypes.CDLL(str(path)), f"scipy_{name}_64_")
            except (OSError, AttributeError):
                continue
            fn.argtypes = list(argtypes)
            fn.restype = None
            return fn
    return None
