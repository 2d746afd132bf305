"""Eventually periodic boundary points of the rooted tree.

A point is an infinite word over the alphabet, stored as a preperiod and
a repeating cycle.  The constructor normalises to the unique shortest
form: the cycle is primitive and the preperiod cannot be shortened by
rotating its last letter into the cycle, so equal points compare equal
componentwise.
"""

from __future__ import annotations

import re

from .errors import DomainError, PointParseError, excerpt
from .mealy import Aut, Word, _minimal, _shown, parse_word, word_text

# outcomes of walking a state along a point while it keeps fixing letters
MOVED = "moved"        # some prefix is moved: the point is not fixed
INTERIOR = "interior"  # a whole cylinder around the point is fixed
BOUNDARY = "boundary"  # fixed, but no neighbourhood is


class Point:
    """An eventually periodic infinite word u v v v ...

    Its hash is computed once, from the normalised preperiod and period.
    """

    __slots__ = ("preperiod", "period", "_hash")

    def __init__(self, preperiod, period):
        pre, per = tuple(preperiod), tuple(period)
        if not all(isinstance(x, int) and x >= 0 for x in pre + per):
            raise ValueError("point letters must be non-negative ints")
        if not per:
            raise ValueError("period must be nonempty")
        n = len(per)
        for k in range(1, n):
            if n % k == 0 and per[:k] * (n // k) == per:
                per = per[:k]
                break
        while pre and pre[-1] == per[-1]:
            per = (per[-1],) + per[:-1]
            pre = pre[:-1]
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)
        object.__setattr__(self, "_hash", hash((pre, per)))

    def __setattr__(self, name, value):
        raise AttributeError("Point is immutable")

    def __reduce__(self):
        return Point, (self.preperiod, self.period)

    def letter(self, i: int) -> int:
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def prefix(self, n: int) -> Word:
        return tuple(self.letter(i) for i in range(n))

    def shift(self, n: int) -> "Point":
        """Drop the first n letters."""
        if n <= len(self.preperiod):
            return Point(self.preperiod[n:], self.period)
        k = (n - len(self.preperiod)) % len(self.period)
        return Point((), self.period[k:] + self.period[:k])

    def starts_with(self, w: Word) -> bool:
        return self.prefix(len(w)) == tuple(w)

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        return (self._hash == other._hash and self.preperiod == other.preperiod
                and self.period == other.period)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{_shown(self.preperiod)}({_shown(self.period)})"


_POINT_RE = re.compile(r"^([0-9]*)\(([0-9]+)\)$")


def parse_point(text: str, alphabet_size: int) -> Point:
    m = _POINT_RE.match(text.strip())
    if not m:
        raise PointParseError(f"point {excerpt(text)} must look like u(v), e.g. 01(10)")
    try:
        pre = parse_word(m.group(1), alphabet_size)
        per = parse_word(m.group(2), alphabet_size)
    except ValueError as exc:
        raise PointParseError(f"point {excerpt(text)}: {exc}") from None
    return Point(pre, per)


def format_point(p: Point) -> str:
    return f"{word_text(p.preperiod)}({word_text(p.period)})"


def check_letters(x: Point, alphabet_size: int) -> None:
    """Raise DomainError if a letter of x lies outside the alphabet."""
    top = max(x.preperiod + x.period)
    if top >= alphabet_size:
        raise DomainError(f"point letter {top} outside alphabet of size {alphabet_size}")


def state_lasso(g: Aut, x: Point) -> tuple[list[int], int]:
    """States of g's machine met along x, as a lasso (states, start).

    states[i] is the restriction of g below the first i letters of x.
    The walk stops at the first repeat of (state, position in the
    period): from index start on, the sequence of (state, letter) pairs
    repeats with period len(states) - start, a multiple of x's period.
    A letter of x outside g's alphabet raises DomainError.
    """
    trans = g.machine.transitions
    per = x.period
    check_letters(x, g.machine.alphabet_size)
    q = g.state
    states: list[int] = []
    for a in x.preperiod:
        states.append(q)
        q = trans[q][a]
    seen: dict[tuple[int, int], int] = {}
    phase = 0
    while (q, phase) not in seen:
        seen[q, phase] = len(states)
        states.append(q)
        q = trans[q][per[phase]]
        phase = (phase + 1) % len(per)
    return states, seen[q, phase]


def apply_to_point(g: Aut, x: Point) -> Point:
    """Image of a point; eventual periodicity is preserved.

    Along the lasso of g at x the output letters repeat with the
    lasso's cycle, which yields the image's preperiod and cycle.
    """
    out = g.machine.outputs
    states, start = state_lasso(g, x)
    image = [out[q][x.letter(i)] for i, q in enumerate(states)]
    return Point(image[:start], image[start:])


def fixed_walk(g: Aut, x: Point):
    """Classify how a state relates to a point it might fix.

    Returns (status, states) where status is MOVED, INTERIOR or BOUNDARY
    and states lists the distinct restrictions met along the way, in the
    order the walk first meets them, as states of g's minimal machine
    (mealy._minimal), whose one trivial state is its identity.
    INTERIOR means some finite prefix is fixed with trivial restriction
    below it; BOUNDARY means every prefix is fixed but the restriction
    never trivialises, i.e. the lasso of g at x closes without either
    happening.
    """
    c = _minimal(g)
    m = c.machine
    states, _ = state_lasso(c, x)
    for i, q in enumerate(states):
        a = x.letter(i)
        if q == m.identity or m.outputs[q][a] != a:
            status = INTERIOR if q == m.identity else MOVED
            break
    else:
        status, i = BOUNDARY, len(states)
    return status, [Aut(m, s) for s in dict.fromkeys(states[:i + 1])]
