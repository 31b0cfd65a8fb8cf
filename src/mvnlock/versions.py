"""Version ordering for Maven-style version strings.

Total order used everywhere a "highest version" decision is made (range
resolution, metadata sorting). Tokenization splits on ``.``/``-`` and on
digit<->letter transitions; numeric tokens compare numerically; qualifiers
rank alpha < beta < milestone < rc < snapshot < '' (plain release) < sp,
with unknown qualifiers after sp in lexical order. Trailing zero tokens are
insignificant (1.0.0 == 1). Comparison is case-insensitive.
"""

from __future__ import annotations

import re
from functools import cmp_to_key, lru_cache
from typing import Iterable

LESS = -1
EQUAL = 0
GREATER = 1

_TOKEN_RE = re.compile(r"\d+|[^\d.-]+")

# rank of the known qualifiers; plain release ('') sits between snapshot and sp
_QUALIFIER_RANK = {
    "alpha": 0,
    "beta": 1,
    "milestone": 2,
    "rc": 3,
    "snapshot": 4,
    "": 5,
    "sp": 6,
}
_UNKNOWN_RANK = 7
_RELEASE_KEY = (0, _QUALIFIER_RANK[""], "")


def tokenize(version: str) -> list[str]:
    """Split a version string into numeric and qualifier tokens."""
    return _TOKEN_RE.findall(version.lower())


def _token_key(token: str) -> tuple:
    # nonzero numeric tokens outrank every qualifier, hence the leading 1/0;
    # a zero is weightless and keys exactly like the plain-release marker, so
    # 1.0-snapshot lines up against 1.0 the same way 1-snapshot does against 1
    if token.isdigit():
        value = int(token)
        return (1, value, "") if value else _RELEASE_KEY
    rank = _QUALIFIER_RANK.get(token, _UNKNOWN_RANK)
    return (0, rank, token if rank == _UNKNOWN_RANK else "")


@lru_cache(maxsize=1 << 16)
def _keys(version: str) -> tuple[tuple, ...]:
    keys = [_token_key(t) for t in tokenize(version)]
    # trailing zeros/release markers carry no ordering weight: 1.0.0 == 1
    while keys and keys[-1] == _RELEASE_KEY:
        keys.pop()
    return tuple(keys)


def compare_versions(a: str, b: str) -> int:
    """Return -1, 0, or 1 ordering version ``a`` against ``b``. Total function."""
    ka, kb = _keys(a), _keys(b)
    # the shorter key is padded with release markers, never compared as a prefix:
    # a prefix would rank 1 below 1.0-alpha, padding ranks it above
    if len(ka) < len(kb):
        ka += (_RELEASE_KEY,) * (len(kb) - len(ka))
    elif len(kb) < len(ka):
        kb += (_RELEASE_KEY,) * (len(ka) - len(kb))
    if ka == kb:
        return EQUAL
    return LESS if ka < kb else GREATER


def sorted_versions(versions: Iterable[str]) -> list[str]:
    """Sort ascending under compare_versions."""
    return sorted(versions, key=cmp_to_key(compare_versions))


def max_version(versions: Iterable[str]) -> str:
    return max(versions, key=cmp_to_key(compare_versions))
