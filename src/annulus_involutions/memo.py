"""A memo of pure orbit computations that lives for one suite run.

The half-period image and the section crossings are functions of the exact
bits of their inputs, so a value stored under a key that holds the kind of
value, the field, the integrator settings, the section for a crossing, and
the point's bits ``struct.pack("<2d", x, y)`` is the value a fresh call
returns.  Only this module forms the bits.  The key holds bits rather than
floats because 0.0 == -0.0.
Values are small tuples of floats and points, never a cycle or a
trajectory; they are immutable, so the stored value itself is returned.
Exceptions are not stored.  A crossing is read off one cycle detection of
its point, which also stores that point's half-period image; the section's
event does not steer the integration, so the image has the bits of the
symmetry's own computation.

Nothing is stored outside ``suite_scope()``, and a value offered with
``keep`` is not even computed there.  A scope opened inside another
reuses the outer one, and the memo is dropped when the outermost closes.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from contextvars import ContextVar

__all__ = ["suite_scope", "memoized", "keep"]

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


def memoized(parts: tuple, z, compute) -> tuple:
    """``compute()``, stored under ``parts`` and the bits of the point z
    while a scope is open."""
    memo = _MEMO.get()
    if memo is None:
        return compute()
    key = (*parts, struct.pack("<2d", *z))
    value = memo.get(key)
    if value is None:
        value = memo[key] = compute()
    return value


def keep(parts: tuple, z, compute) -> None:
    """Store ``compute()`` under ``parts`` and the bits of the point z
    while a scope is open that holds no value there; otherwise compute is
    not called."""
    memo = _MEMO.get()
    if memo is not None:
        key = (*parts, struct.pack("<2d", *z))
        if key not in memo:
            memo[key] = compute()
