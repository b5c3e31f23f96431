"""The thread count of numpy's bundled OpenBLAS, set in-process through ctypes.

numpy wheels ship OpenBLAS under a renamed prefix (``scipy_openblas_...64_``)
in the ``numpy.libs`` directory beside the package, so the functions are
found by pattern: the first exported names matching
``*openblas*get_num_threads*`` and ``*openblas*set_num_threads*``
(``openblas_set_num_threads_local``, a per-thread variant, is passed over),
read from the library's bytes on first use; no package beyond numpy is
needed.  With another BLAS, `openblas_threads` is None and callers skip.
"""

import ctypes
import fnmatch
import re
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import numpy as np

_LIBS = Path(np.__file__).resolve().parent.parent / "numpy.libs"
_NAME = re.compile(rb"[A-Za-z0-9_]+")


def _names_with(blob: bytes, word: bytes) -> list:
    """The NUL-delimited identifiers in `blob` that contain `word`."""
    names, at = set(), blob.find(word)
    while at >= 0:
        start, end = blob.rfind(b"\0", 0, at) + 1, blob.find(b"\0", at)
        if _NAME.fullmatch(blob, start, end):
            names.add(blob[start:end].decode("ascii"))
        at = blob.find(word, at + 1)
    return sorted(names)


@lru_cache(maxsize=1)
def openblas_threads():
    """(get, set): ctypes functions for numpy's OpenBLAS thread count, or
    None when no library under numpy.libs exports both."""
    for path in sorted(_LIBS.glob("*openblas*")):
        names = _names_with(path.read_bytes(), b"num_threads")
        getters = fnmatch.filter(names, "*openblas*get_num_threads*")
        setters = [n for n in fnmatch.filter(names, "*openblas*set_num_threads*")
                   if not n.endswith("_local")]
        if not (getters and setters):
            continue
        lib = ctypes.CDLL(str(path))
        get, set_ = getattr(lib, getters[0]), getattr(lib, setters[0])
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def set_blas_threads(n: int) -> int:
    """Set numpy's OpenBLAS to `n` threads; returns the count it had."""
    if n < 1:
        raise ValueError(f"thread count must be positive, got {n}")
    get, set_ = openblas_threads()
    before = get()
    set_(n)
    return before


@contextmanager
def blas_threads(n: int):
    """numpy's OpenBLAS at `n` threads inside, restored on exit."""
    before = set_blas_threads(n)
    try:
        yield
    finally:
        set_blas_threads(before)
