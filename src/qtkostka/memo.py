"""The one registry of in-process memos.

Every module-level memo of the package is made here, so one call empties
them all: a memoized function is an unbounded lru_cache, and a table is a
plain dict.  Tables remain only for the hot-loop memos of coeffs.py: the
exponent-pair table, the intern table (one CoeffPoly per value the memos
keep) and the shift memo of the orbit expansions.  Both kinds register how
to clear themselves; clear_caches walks that list.
"""

from __future__ import annotations

import functools

_CLEARS = []


def memoized(fn):
    """fn behind an unbounded lru_cache whose cache_clear is registered."""
    cached = functools.lru_cache(maxsize=None)(fn)
    _CLEARS.append(cached.cache_clear)
    return cached


def table():
    """A registered dict memo."""
    memo = {}
    _CLEARS.append(memo.clear)
    return memo


def clear_caches():
    """Drop every memoized object; used before timed or cold-start runs."""
    for clear in _CLEARS:
        clear()
