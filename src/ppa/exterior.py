"""Exterior-algebra bookkeeping over the polynomial ring in at most eight
variables.

A graded coefficient table is a dict from index-subset bitmask to its
nonzero ``PolyExpr``: the Casimir minors of ``structures.casimir_minors``
(the coefficients of dQ_1 ^ ... ^ dQ_l), the bivector of
``PoissonStructure.as_bivector`` and the dual side of theorem31.  This module
holds the mask helpers, the shuffle sign of two disjoint masks, which maps a
mask to its signed complement, and the principal Pfaffians as fused
expansions.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import ArityError, DomainError
from .poly import PolyExpr, _sum_of_products

MAX_DIM = 8


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def indices_of(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def require_max_dim(n: int) -> None:
    if n > MAX_DIM:
        raise DomainError(f"ambient dimension {n} exceeds {MAX_DIM}")


def merge_sign(mask_a: int, mask_b: int) -> int:
    """Sign of sorting the concatenation (sorted A, sorted B); 0 on overlap."""
    if mask_a & mask_b:
        return 0
    inversions = 0
    for b in range(mask_b.bit_length()):
        if mask_b >> b & 1:
            inversions += (mask_a >> (b + 1)).bit_count()
    return -1 if inversions & 1 else 1


def pfaffian(matrix, subset: Sequence[int]) -> PolyExpr:
    """Pfaffian of the principal block on an ordered index tuple.

    ``matrix[i][j]`` entries are polynomial-grade PolyExpr over one variable
    set; only the entries (s_i, s_j) with i < j in tuple order are read, so
    the tuple order matters (an odd reordering flips the sign).  A 2-subset
    gives its entry; a larger one is expanded along its first row as one
    fused sum of products (+-p_{s0 sk}, Pf(rest)).
    """
    subset = tuple(subset)
    if len(subset) % 2 != 0:
        raise ArityError("pfaffian needs an even-size index set")
    if len(subset) > MAX_DIM:
        raise ArityError(f"pfaffian block larger than {MAX_DIM}")
    if not subset:
        some = matrix[0][0]
        return PolyExpr.const(some.vars, 1)
    if len(subset) > 2:
        for pos, a in enumerate(subset):
            for b in subset[pos + 1:]:
                if not matrix[a][b]._grade:
                    matrix[a][b].require_polynomial_grade(f"pfaffian entry ({a},{b})")
    return _expanded(matrix, subset)


def _expanded(matrix, order: tuple) -> PolyExpr:
    row = matrix[order[0]]
    if len(order) == 2:
        return row[order[1]]
    pairs = []
    for pos in range(1, len(order)):
        entry = row[order[pos]]
        if entry._num:
            sub = _expanded(matrix, order[1:pos] + order[pos + 1:])
            pairs.append((entry, sub, 1 if pos % 2 else -1))
    return _sum_of_products(row[order[1]].vars, pairs)
