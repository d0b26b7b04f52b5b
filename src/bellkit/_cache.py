"""One per-process cache for arrays that depend on structure alone, never on values.

lhv keeps each layout's outcome matrices, LP columns and sign patterns here,
multiset its expansion plans and Gram plans, and qstate its kernel index
plans.  It imports nothing of bellkit but limits, so every module can reach
it without a cycle.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import limits

#: What a structure alone determines, built once per process: (kind, shape) ->
#: (value, its arrays), every array read-only.  The arrays of all entries hold
#: at most limits.MAX_COUNT items (8 MiB of int64 or float64) in all; a new
#: entry that does not fit in what is left drops the oldest entries until it
#: does, and a value that alone passes the budget is built again on every call.
_LAYOUT_CACHE: dict[tuple, tuple] = {}


def _cached(key: tuple):
    """The value kept under key, or None."""
    entry = _LAYOUT_CACHE.get(key)
    return None if entry is None else entry[0]


def _kept(key: tuple, value, arrays: Sequence[np.ndarray]):
    """value, cached under key with its arrays made read-only if they fit in
    limits.MAX_COUNT items, and returned either way.  To make room, the
    entries kept first are dropped, in insertion order, until it fits."""
    size = sum(a.size for a in arrays)
    if size <= limits.MAX_COUNT:
        held = sum(a.size for _, kept in _LAYOUT_CACHE.values() for a in kept)
        while held + size > limits.MAX_COUNT:
            _, dropped = _LAYOUT_CACHE.pop(next(iter(_LAYOUT_CACHE)))
            held -= sum(a.size for a in dropped)
        for a in arrays:
            a.flags.writeable = False
        _LAYOUT_CACHE[key] = value, arrays
    return value
