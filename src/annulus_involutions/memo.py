"""A memo of pure orbit computations that lives for one suite run.

The half-period image and the section crossings are functions of the exact
bits of their inputs, so a value stored under a key that holds the kind of
value, the field, the integrator settings, the section for a crossing, and
the point's bits ``struct.pack("<2d", x, y)`` is the value a fresh call
returns.  Only this module forms the bits.  The key holds bits rather than
floats because 0.0 == -0.0.
Values are small tuples of floats and points, never a cycle or a
trajectory; they are immutable, so the stored value itself is returned.

The rule: inside ``suite_scope()`` each record is computed once.  A known
numerical failure (``errors.SAMPLE_FAILURES``) is a record too: it is
stored without its traceback, cause or context, so it holds no frames or
steps, and each later read raises a copy with the same type and message.
Outside a scope nothing is stored and every call computes.  A scope
opened inside another reuses the outer one, and the memo is dropped when
the outermost closes.
"""

from __future__ import annotations

import copy
import struct
from contextlib import contextmanager
from contextvars import ContextVar

from .errors import SAMPLE_FAILURES

__all__ = ["suite_scope", "memoized"]

_MEMO: ContextVar[dict | None] = ContextVar("annulus_involutions_memo", default=None)


@contextmanager
def suite_scope():
    """Keep memoized records until the outermost scope closes."""
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def memoized(parts: tuple, z, compute) -> tuple:
    """``compute()``, or the known failure it raises, stored under
    ``parts`` and the bits of the point z while a scope is open."""
    memo = _MEMO.get()
    if memo is None:
        return compute()
    key = (*parts, struct.pack("<2d", *z))
    value = memo.get(key)
    if value is None:
        try:
            value = memo[key] = compute()
        except SAMPLE_FAILURES as exc:
            memo[key] = copy.copy(exc)  # a copy carries no frames
            raise
    elif isinstance(value, BaseException):
        raise copy.copy(value)
    return value
