"""Exact traces, isotropy sums and truncated representation matrices.

Two functionals live here: the canonical trace integrates the element's
restriction to unit germs (per diagonal term, the interior fixed
measure), and the isotropy trace integrates the sum over all isotropy
germs (per diagonal term, the full fixed measure).  Boundary-null decay
makes the two fixed measures one rational, mu_fix_exact, so both traces
are the same diagonal sum; the isotropy trace first checks the decay
certificate of every diagonal state rather than assuming it.

The pointwise functionals read only the terms' own germs, since an
element vanishes off them: F(a)(x) and each matrix coefficient sum the
coefficients of the terms whose germ lands where it must.
"""

from __future__ import annotations

from dataclasses import dataclass

from .convalg import ZERO, AlgebraElement, Scalar, _weighted_sum
from .errors import DomainError
from .fixedpoints import closure_boundary_null, mu_fix_exact
from .germs import Germ, _after_key, _germ_key, _unit_key, _unit_map
from .mealy import _shown
from .points import Point


def _diagonal_terms(a: AlgebraElement):
    return [(b, c) for b, c in a.terms.items() if b.range_prefix == b.source_prefix]


def canonical_trace(a: AlgebraElement) -> Scalar:
    """Integral of the element over unit germs against Bernoulli measure:
    the sum over diagonal terms of coeff * mu(Fix of the state) / d^|v|."""
    d = a.alphabet_size
    weighted = []
    for pmap, coeff in _diagonal_terms(a):
        mu = mu_fix_exact(pmap.state)
        weighted.append((coeff, mu.numerator, mu.denominator * d ** len(pmap.source_prefix)))
    return _weighted_sum(weighted)


def isotropy_trace(a: AlgebraElement) -> Scalar:
    """Integral over the boundary of the sum over all isotropy germs.

    mu(Fix) equals the interior measure of the canonical trace only
    because the boundary of each fixed set is null, so that is checked.
    """
    for pmap, _ in _diagonal_terms(a):
        if not closure_boundary_null(pmap.state):
            raise DomainError("boundary decay certificate failed")
    return canonical_trace(a)


def F_eval(a: AlgebraElement, x: Point) -> Scalar:
    """Sum of the element over the isotropy germs at one point.

    a(g) is the sum of c_t over the terms t with t_x = g, so the sum
    over all g fixing x is the sum of c_t over the terms whose source
    cylinder holds x and whose germ there fixes x.
    """
    return sum((c for b, c in a.terms.items()
                if b.contains_base(x) and _germ_key(b, x)[1] == x), ZERO)


def isotropy_defect(a: AlgebraElement, x: Point) -> Scalar:
    """F(a)(x) - E(a)(x): the mass on non-unit isotropy germs at x."""
    return F_eval(a, x) - a.unit_restriction_eval(x)


# ---------------------------------------------------------------------------
# truncated quasi-regular representation

@dataclass(frozen=True)
class RepMatrix:
    """Matrix of an element on a germ basis with common source.

    closed reports whether every term of the element maps every basis
    germ back into the basis and no two basis germs lie in one coset of
    the isotropy subgroup (or coincide); only then is the truncation
    multiplicative.
    """

    labels: tuple[str, ...]
    entries: tuple[tuple[Scalar, ...], ...]
    closed: bool

    @property
    def size(self) -> int:
        return len(self.labels)

    def product(self, other: "RepMatrix") -> "RepMatrix":
        if self.labels != other.labels:
            raise DomainError("matrices use different bases")
        n = self.size
        rows = tuple(
            tuple(sum((self.entries[i][k] * other.entries[k][j]
                       for k in range(n)), ZERO) for j in range(n))
            for i in range(n))
        return RepMatrix(self.labels, rows, self.closed and other.closed)


def _germ_label(g: Germ, i: int) -> str:
    lab = g.map.label
    u, v = g.map.range_prefix, g.map.source_prefix
    if lab is None:
        lab = f"g{i}"
    if u or v:
        return f"{lab}:{_shown(u)}>{_shown(v)}"
    return lab


def rep_matrix(a: AlgebraElement, x: Point, basis: list[Germ],
               iso=()) -> RepMatrix:
    """Matrix coefficients entry(i, j) = sum over h of a(g_i h g_j^{-1}).

    basis germs must all have source x; iso, when nonempty, must be a
    finite set of isotropy germs at x closed under composition and
    inverse (the unit is adjoined automatically), and the matrix then
    acts on the basis germs' cosets.  Germs are handled by key, and each
    composite's key is memoised (see germs._after_key), so a repeated
    call builds no shift or germ.
    """
    for g in basis:
        if g.base != x:
            raise DomainError("basis germ does not have source x")
    if not basis:
        raise DomainError("basis must be nonempty")
    unit = _unit_key(a.alphabet_size, x)
    subgroup = {unit: _unit_map(a.alphabet_size)}  # key -> shift
    for h in iso:
        if h.base != x or h.range() != x:
            raise DomainError("iso germ is not isotropy at x")
        subgroup.setdefault(h.key, h.map)
    for h1 in subgroup.values():
        products = {_after_key(h1, h2, x) for h2 in subgroup.values()}
        if not products <= subgroup.keys():
            raise DomainError("iso germs are not closed under composition")
        if unit not in products:  # h1 h2 = 1 for no h2 in the subgroup
            raise DomainError("iso germs are not closed under inverse")

    # a(g_i h g_j^-1) sums c_t over the terms t with t o g_j = g_i o h
    rows: dict[tuple, list[int]] = {}
    for i, gi in enumerate(basis):
        for h in subgroup.values():
            rows.setdefault(_after_key(gi.map, h, x), []).append(i)
    members = {g.key for g in basis}
    entries = [[ZERO] * len(basis) for _ in basis]
    # two rows under one key: basis germs that share a coset, or repeat
    closed = all(len(r) == 1 for r in rows.values())
    for pmap, coeff in a.terms.items():
        for j, gj in enumerate(basis):
            if pmap.contains_base(gj.range()):
                moved = _after_key(pmap, gj.map, x)
                closed = closed and moved in members
                for i in rows.get(moved, ()):
                    entries[i][j] += coeff
    labels = tuple(_germ_label(g, i) for i, g in enumerate(basis))
    return RepMatrix(labels, tuple(map(tuple, entries)), closed)
