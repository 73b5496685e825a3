"""A memo of pure orbit computations that lives for one suite run.

The half-period image and the section crossings are functions of the exact
bits of their inputs, so a value stored under a key that holds the kind of
value, the field, the integrator settings, the curve for a crossing, and
``z.tobytes()`` is the value a fresh call returns.  Values are small tuples
of floats and shape-(2,) arrays, never a cycle or a trajectory; arrays are
copied on the way out, so a caller cannot change an entry.  Exceptions are
not stored.

Nothing is stored outside ``suite_scope()``.  A scope opened inside another
reuses the outer one, and the memo is dropped when the outermost closes.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

__all__ = ["suite_scope", "memoized"]

_MEMO: ContextVar[dict | None] = ContextVar("annulus_involutions_memo", default=None)


@contextmanager
def suite_scope():
    """Keep memoized values until the outermost scope closes."""
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def memoized(key, compute) -> tuple:
    """``compute()``, stored under ``key`` while a scope is open."""
    memo = _MEMO.get()
    if memo is None:
        return compute()
    value = memo.get(key)
    if value is None:
        value = memo[key] = compute()
    return tuple(v.copy() if isinstance(v, np.ndarray) else v for v in value)
