"""Exterior algebra over the polynomial ring in at most eight variables.

Grade-k objects store coefficients keyed by index-subset bitmasks.  Forms and
multivectors share the combinatorics and differ only in how they pair; the
volume-form duality maps one onto the other with the signature of the
(subset, complement) shuffle.  Principal Pfaffians are fused expansions.
The minors of gradient rows, the coefficients of wedges of differentials,
are not built here: ``structures.casimir_minors`` reads them off one
Laplace table.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

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
            inversions += bin(mask_a >> (b + 1)).count("1")
    return -1 if inversions & 1 else 1


class _GradedElement:
    """Common storage for forms and multivectors."""

    kind = "element"

    def __init__(self, variables: Sequence[str], grade: int,
                 coeffs: Mapping[int, PolyExpr] | None = None):
        self.vars = tuple(variables)
        self.n = len(self.vars)
        require_max_dim(self.n)
        self.grade = grade
        self.coeffs: dict[int, PolyExpr] = {}
        if coeffs:
            for mask, p in coeffs.items():
                if p.is_zero():
                    continue
                if bin(mask).count("1") != grade:
                    raise ArityError(f"mask {mask:b} is not a {grade}-subset")
                self.coeffs[mask] = p

    def __eq__(self, other):
        return (type(self) is type(other) and self.vars == other.vars
                and self.grade == other.grade and self.coeffs == other.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, indices: Sequence[int]) -> PolyExpr:
        """Coefficient on a sorted index subset."""
        return self.coeffs.get(mask_of(indices), PolyExpr.zero(self.vars))

    def __add__(self, other):
        if type(other) is not type(self) or other.grade != self.grade:
            raise ArityError("can only add equal-kind, equal-grade elements")
        out = dict(self.coeffs)
        for mask, p in other.coeffs.items():
            s = out.get(mask, PolyExpr.zero(self.vars)) + p
            if s.is_zero():
                out.pop(mask, None)
            else:
                out[mask] = s
        return type(self)(self.vars, self.grade, out)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, c):
        return type(self)(self.vars, self.grade,
                          {m: p * c for m, p in self.coeffs.items()})

    def __repr__(self):
        basis = "dx" if self.kind == "form" else "d/dx"
        body = " + ".join(
            f"({p}) {basis}{'^'.join(str(i + 1) for i in indices_of(m))}"
            for m, p in sorted(self.coeffs.items())) or "0"
        return f"<{self.kind} grade {self.grade}: {body}>"


class PolyForm(_GradedElement):
    kind = "form"


class PolyMultivector(_GradedElement):
    kind = "multivector"


def wedge(a: _GradedElement, b: _GradedElement):
    """Exterior product with standard shuffle signs.

    Grade overflow past the ambient dimension is a legitimate zero, not an
    error.
    """
    if type(a) is not type(b):
        raise ArityError("cannot wedge a form with a multivector")
    if a.vars != b.vars:
        raise ArityError("wedge operands live over different variables")
    grade = a.grade + b.grade
    out: dict[int, PolyExpr] = {}
    for ma, pa in a.coeffs.items():
        for mb, pb in b.coeffs.items():
            sign = merge_sign(ma, mb)
            if sign == 0:
                continue
            mask = ma | mb
            term = pa * pb if sign > 0 else pa * pb * -1
            s = out.get(mask)
            s = term if s is None else s + term
            if s.is_zero():
                out.pop(mask, None)
            else:
                out[mask] = s
    return type(a)(a.vars, grade, out)


def volume_dual(element: _GradedElement):
    """Duality through the standard volume form.

    The coefficient on the complement T of a subset S picks up the signature
    of the shuffle (S, T) of (1..n); forms become multivectors and back.
    Applying it twice returns (-1)**(l*(n-l)) times the original.
    """
    n = element.n
    full = (1 << n) - 1
    target = PolyMultivector if isinstance(element, PolyForm) else PolyForm
    out: dict[int, PolyExpr] = {}
    for mask, p in element.coeffs.items():
        comp = full & ~mask
        out[comp] = p if merge_sign(mask, comp) > 0 else -p
    return target(element.vars, n - element.grade, out)


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
