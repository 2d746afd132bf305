"""Cylinder shifts and their germs.

A cylinder shift is a partial homeomorphism of the boundary sending the
cylinder of a source prefix v onto the cylinder of a range prefix u of
the same length by v y -> u q(y) for a finite-state automorphism q.
These maps preserve the uniform Bernoulli measure, are closed under
composition, inversion and source refinement, and their germs form the
groupoid on which convolution operators act.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError
from .mealy import (Aut, Machine, Word, _canonical_pair, _memoised, _minimal, _shown,
                    _state_hashes, _walk, check_word, compose_labels, identity_aut,
                    invert_label, restrict_label)
from .points import BOUNDARY, Point, fixed_walk, state_lasso


@dataclass(frozen=True, slots=True, eq=False)
class PartialMap:
    """A cylinder shift v y -> u q(y); label is display-only.

    The state is kept in a minimal machine (see mealy._minimal_pair), so
    two maps whose states share that machine are equal iff they have the
    same state and their prefixes agree; only maps over two machines
    compare canonical forms, as Aut.__eq__ does.  The hash is computed
    once, from content: the state's content hash (mealy._state_hashes)
    with u and v, so equal maps hash alike whatever their machines.  The
    germ, after and times memos sit on that minimal machine.
    """

    state: Aut
    range_prefix: Word
    source_prefix: Word
    label: str | None = None
    _hash: int = field(init=False, repr=False)

    def __post_init__(self):
        u = check_word(self.range_prefix, self.alphabet_size)
        v = check_word(self.source_prefix, self.alphabet_size)
        if len(u) != len(v):
            raise DomainError("range and source prefixes must have equal length")
        _fill(self, _minimal(self.state), u, v, self.label)

    @property
    def alphabet_size(self) -> int:
        return self.state.machine.alphabet_size

    @property
    def depth(self) -> int:
        return len(self.source_prefix)

    def source_measure(self) -> Fraction:
        return Fraction(1, self.alphabet_size ** len(self.source_prefix))

    def range_measure(self) -> Fraction:
        return Fraction(1, self.alphabet_size ** len(self.range_prefix))

    def contains_base(self, x: Point) -> bool:
        return x.starts_with(self.source_prefix)

    def apply(self, w) -> Word:
        """Image of a finite word lying in the source cylinder."""
        w = check_word(w, self.alphabet_size)
        k = len(self.source_prefix)
        if w[:k] != self.source_prefix:
            raise DomainError("word lies outside the source cylinder")
        return self.range_prefix + self.state.apply_word(w[k:])

    def restrict_source(self, w) -> "PartialMap":
        """The same map cut down to the source cylinder extended by w."""
        w = check_word(w, self.alphabet_size)
        image, below = _walk(self.state, w)
        return _shift(below, self.range_prefix + image, self.source_prefix + w,
                      restrict_label(self.label, w))

    def inverse(self) -> "PartialMap":
        return _shift(self.state.inverse(), self.source_prefix, self.range_prefix,
                      invert_label(self.label))

    def germ_at(self, x: Point) -> "Germ":
        return Germ(self, x)

    def __eq__(self, other):
        if not isinstance(other, PartialMap):
            return NotImplemented
        if (self._hash != other._hash or self.range_prefix != other.range_prefix
                or self.source_prefix != other.source_prefix):
            return False
        a, b = self.state, other.state
        if a.machine is b.machine:
            return a.state == b.state
        return _canonical_pair(a.machine, a.state) == _canonical_pair(b.machine, b.state)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        name = self.label if self.label is not None else "?"
        return f"<shift {name}:{_shown(self.range_prefix)}>{_shown(self.source_prefix)}>"


def _fill(pmap: PartialMap, state: Aut, u: Word, v: Word, label) -> PartialMap:
    """Set pmap's fields to a state of a minimal machine, checked prefixes
    of equal length and a label, and its hash."""
    put = object.__setattr__
    put(pmap, "state", state)
    put(pmap, "range_prefix", u)
    put(pmap, "source_prefix", v)
    put(pmap, "label", label)
    put(pmap, "_hash", hash((_state_hashes(state.machine)[state.state], u, v)))
    return pmap


def _shift(state: Aut, u: Word, v: Word, label) -> PartialMap:
    """PartialMap(state, u, v, label) from parts that pass its checks
    already: a state of a minimal machine and checked prefixes of equal
    length."""
    return _fill(object.__new__(PartialMap), state, u, v, label)


def bisection_product(b1: PartialMap, b2: PartialMap) -> list[PartialMap]:
    """Pieces of the composite b1 after b2, one shift per surviving cylinder.

    Because shifts preserve prefix length, the range cylinder of b2
    either misses the source cylinder of b1 (no piece) or the overlap is
    the image of a single refinement of b2 (one piece), found by pulling
    the missing source letters of b1 back through b2.  The piece is built
    once, from the two states in their minimal machines, labelled as b1's
    restriction after b2's; nothing is canonicalised.
    """
    if b1.alphabet_size != b2.alphabet_size:
        raise DomainError("alphabet size mismatch")
    v1, u2 = b1.source_prefix, b2.range_prefix
    if len(u2) >= len(v1):
        if u2[:len(v1)] != v1:
            return []
        w = u2[len(v1):]
        image, left = _walk(b1.state, w)
        return [_shift(left * b2.state, b1.range_prefix + image, b2.source_prefix,
                       compose_labels(restrict_label(b1.label, w), b2.label))]
    if v1[:len(u2)] != u2:
        return []
    g = b2.state
    w = g.inverse().apply_word(v1[len(u2):])
    right = _walk(g, w)[1]
    return [_shift(b1.state * right, b1.range_prefix, b2.source_prefix + w,
                   compose_labels(b1.label, restrict_label(b2.label, w)))]


class Germ:
    """The germ of a cylinder shift at a point of its source cylinder.

    Equality is semantic: two germs agree iff their shifts coincide on a
    neighbourhood of the base point x.  Near x a shift (q, u, v) sends
    the cylinder of x[:n] to that of the range's first n letters and
    acts below it by the restriction q|x[|v|:n], so the key is (base,
    range, cycle): cycle holds the eventual restrictions as canonical
    (machine, state) pairs, so keys compare without calling Aut.__eq__,
    the one at depth n stored at index n mod len(cycle).  Invariant: two
    germs are equal iff their keys are, so equal germs hash equal.
    Anchoring the cycle to the depth keeps apart two states that chase
    each other round the same cycle.  The key comes from one walk of q's
    lasso along the shifted base, which yields the range's letters and
    the cycle together; range() reads it off the key.  The walk runs
    once per (shift, base): its key is memoised on the minimal machine
    of q (see _germ_key), so a germ rebuilt from a fresh map looks its
    key up.
    """

    __slots__ = ("map", "base", "_key")

    def __init__(self, pmap: PartialMap, base: Point):
        if not pmap.contains_base(base):
            raise DomainError("base point lies outside the source cylinder")
        self.map = pmap
        self.base = base
        self._key = None

    def range(self) -> Point:
        return self.key[1]

    @property
    def key(self) -> tuple:
        if self._key is None:
            self._key = _germ_key(self.map, self.base)
        return self._key

    def compose(self, other: "Germ") -> "Germ":
        """Germ of self after other, based where other is."""
        if self.base != other.range():
            raise DomainError("germ sources and ranges do not match up")
        pieces = bisection_product(self.map, other.map)
        if not pieces:
            raise AssertionError("composable germs must overlap")
        return Germ(pieces[0], other.base)

    def inverse(self) -> "Germ":
        return Germ(self.map.inverse(), self.range())

    def __mul__(self, other):
        if not isinstance(other, Germ):
            return NotImplemented
        return self.compose(other)

    def __eq__(self, other):
        if not isinstance(other, Germ):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"<germ {self.map!r} at {self.base!r}>"


def unit_germ(alphabet_size: int, x: Point) -> Germ:
    return Germ(_unit_map(alphabet_size), x)


# Derived germ data is memoised on the minimal machine that a shift's
# state lies in, next to its products and inverses, so it lives and dies
# with the machine and adds no module state; canonical forms are built
# only for the cycle of a germ key, which germs of two machines compare.

def _germ_key(pmap: PartialMap, x: Point) -> tuple:
    """Germ.key of pmap's germ at x, where pmap's source cylinder holds x,
    memoised under ("germ", state, u, v, x) on pmap's state's minimal
    machine; the cycle's restrictions are its canonical pairs."""
    aut = pmap.state
    u, v = pmap.range_prefix, pmap.source_prefix
    memo = aut.machine._memo
    slot = ("germ", aut.state, u, v, x)
    key = memo.get(slot)
    if key is None:
        k = len(v)
        y = x.shift(k)
        states, start = state_lasso(aut, y)
        out = aut.machine.outputs
        image = u + tuple(out[q][y.letter(i)] for i, q in enumerate(states))
        cycle = states[start:]  # cycle[i] sits at depth k + start + i
        r = (k + start) % len(cycle)
        cycle = cycle[-r:] + cycle[:-r]
        key = memo[slot] = (x, Point(image[:k + start], image[k + start:]),
                            tuple(_canonical_pair(aut.machine, s) for s in cycle))
    return key


def _unit_map(alphabet_size: int) -> PartialMap:
    """The identity shift, memoised on the identity machine."""
    e = identity_aut(alphabet_size)
    unit = e.machine._memo.get("unit")
    if unit is None:
        unit = e.machine._memo["unit"] = PartialMap(e, (), (), "e")
    return unit


def _unit_key(alphabet_size: int, x: Point) -> tuple:
    return _germ_key(_unit_map(alphabet_size), x)


def _after_key(t: PartialMap, g: PartialMap, x: Point) -> tuple:
    """Key of the germ at x of t after g, where g's source cylinder holds
    x and t's holds g(x): the germ of t at g(x) composed with g's at x.
    Memoised under ("after", t, g, x) through mealy._memoised, so a hit is
    refused as a fresh build would be."""
    aut, gaut = t.state, g.state
    slot = ("after", aut.state, t.range_prefix, t.source_prefix,
            gaut.machine, gaut.state, g.range_prefix, g.source_prefix, x)
    return _memoised(aut.machine._memo, slot, _composite_key, t, g, x)


def _composite_key(t: PartialMap, g: PartialMap, x: Point) -> tuple:
    """_after_key built afresh."""
    pieces = bisection_product(t, g)
    if not pieces or not pieces[0].contains_base(x):
        raise DomainError("germ sources and ranges do not match up")
    return _germ_key(pieces[0], x)


def isotropy_germs_at(x: Point, machine: Machine, depth_cap: int) -> list[Germ]:
    """All non-unit germs fixing x arising from shifts q_{u,u} with |u| <= cap.

    A shift u y -> u q(y) along a prefix u of x has a non-unit isotropy
    germ at x exactly when q fixes the shifted tail with every
    restriction along it nontrivial.  Distinct (q, u) pairs often give
    the same germ; the returned list is deduplicated by germ equality.
    """
    if depth_cap < 0:
        raise DomainError("depth cap must be >= 0")
    germs: dict[Germ, None] = {}
    for n in range(depth_cap + 1):
        u = x.prefix(n)
        y = x.shift(n)
        for q in range(machine.size):
            aut = machine.state(q)
            status, _ = fixed_walk(aut, y)
            if status != BOUNDARY:
                continue
            germs.setdefault(PartialMap(aut, u, u, machine.name_of(q)).germ_at(x))
    return list(germs)
