"""Exact convolution algebra spanned by indicators of cylinder shifts.

An element is a finite Gaussian-rational combination of indicators of
basis shifts and represents a function on germs.  Convolution, adjoint
and evaluation are exact; is_zero decides function equality (distinct
term lists can represent the same function when the germ space is not
Hausdorff) and is_singular decides whether the nonzero-germ set sits
over a meagre part of the boundary.  Both bucket the terms over a prefix
code of their source cylinders.  A bucket whose coefficients do not sum
to 0 makes both False at once; otherwise each bucket is walked over joint
states, one class of its pattern graph (pairs of restrictions, no
products of automorphisms) per pair of terms, by one lazy pass over its
strongly connected components that counts the joint states it enters
against the pattern cap: False can come early, True walks it whole.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Mapping
from fractions import Fraction
from itertools import count
from math import gcd

from .errors import (DomainError, ElementParseError, ParseError, PatternCapError,
                     excerpt)
from .germs import PartialMap, _germ_key, _shift, _unit_key, bisection_product
from .mealy import (Aut, Machine, Word, _canonical_pair, _cap_error, _explore, _index,
                    _least_states, _memoised, _minimal, _minimized, _parse_memo, _quotient,
                    _state_cap, _state_hashes, _walk, identity_aut, parse_state_expr,
                    parse_word, strong_components, word_text)
from .points import Point

PATTERN_CAP = 10 ** 6


# ---------------------------------------------------------------------------
# scalars

def _frac_text(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


class Scalar:
    """Gaussian rational re + im*i with exact arithmetic.

    Stored as three ints (a, b, den) meaning (a + b*i)/den, with den > 0
    and gcd(a, b, den) == 1.  That form is unique, so equality compares
    the triple and arithmetic builds no Fraction.  Scalar(re, im) takes
    ints or Fractions, and .re and .im are still Fractions, built when
    read.  Instances are immutable.
    """

    __slots__ = ("_a", "_b", "_den")

    def __new__(cls, re=0, im=0):
        p, q = _ratio(re)
        r, s = _ratio(im)
        return _store(_new(cls), p * s, r * q, q * s)

    def __setattr__(self, *args):
        raise AttributeError("Scalar is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Scalar, (self.re, self.im)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._den)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._den)

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def is_real(self) -> bool:
        return not self._b

    def conjugate(self) -> "Scalar":
        return _scalar(self._a, -self._b, self._den)

    def __eq__(self, other):
        if type(other) is not Scalar:
            return NotImplemented
        return (self._a == other._a and self._b == other._b
                and self._den == other._den)

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        if type(other) is not Scalar:
            other = as_scalar(other)
        a, b, den = other._a, other._b, other._den
        if not (a or b):
            return self
        if not (self._a or self._b):
            return other
        if den == self._den:
            return _scalar(self._a + a, self._b + b, den)
        return _scalar(self._a * den + a * self._den, self._b * den + b * self._den,
                       self._den * den)

    __radd__ = __add__

    def __neg__(self):
        return _scalar(-self._a, -self._b, self._den)

    def __sub__(self, other):
        return self + (-as_scalar(other))

    def __rsub__(self, other):
        return as_scalar(other) + (-self)

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = as_scalar(other)
        a, b, c, d = self._a, self._b, other._a, other._b
        if not (a or b):
            return self
        if not (c or d):
            return other
        if not (b or d):
            return _scalar(a * c, 0, self._den * other._den)
        return _scalar(a * c - b * d, a * d + b * c, self._den * other._den)

    __rmul__ = __mul__

    def __repr__(self):
        return f"Scalar({format_scalar(self)!r})"


_new = object.__new__
_set_a = Scalar._a.__set__
_set_b = Scalar._b.__set__
_set_den = Scalar._den.__set__


def _store(s: Scalar, a: int, b: int, den: int) -> Scalar:
    """Fill the slots of s with (a + b*i)/den, den > 0, reduced by one gcd."""
    g = gcd(a, b, den)
    if g != 1:
        a //= g
        b //= g
        den //= g
    _set_a(s, a)
    _set_b(s, b)
    _set_den(s, den)
    return s


def _scalar(a: int, b: int, den: int) -> Scalar:
    return _store(_new(Scalar), a, b, den)


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of an int, a Fraction or what Fraction takes."""
    if type(x) is int:
        return x, 1
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator, x.denominator


def _weighted_sum(terms) -> Scalar:
    """Sum of c * n / m over triples (c, n, m) of a Scalar c and ints n and
    m > 0, accumulated over one denominator and reduced once."""
    ta = tb = 0
    td = 1
    for c, n, m in terms:
        a, b, den = c._a * n, c._b * n, c._den * m
        if den == td:
            ta += a
            tb += b
        elif td % den == 0:
            k = td // den
            ta += a * k
            tb += b * k
        else:
            ta, tb, td = ta * den + a * td, tb * den + b * td, td * den
    return _scalar(ta, tb, td)


ZERO = Scalar()
ONE = Scalar(1)


def as_scalar(v) -> Scalar:
    if isinstance(v, Scalar):
        return v
    if isinstance(v, (int, Fraction)):
        return Scalar(v)
    raise TypeError(f"cannot interpret {v!r} as a scalar")


_NUM_RE = re.compile(r"([0-9]+)(?:/([0-9]+))?")


def parse_scalar(text: str) -> Scalar:
    """Parse forms like 4/7, -2, 1/2+3i, -i, 2/5i: one sign per part."""
    s = text.strip()
    if not s:
        raise ElementParseError("empty scalar")
    pos = 0
    re_num, re_den, im_num, im_den = 0, 1, 0, 1
    seen_re = seen_im = False
    while pos < len(s):
        if seen_im:
            raise ElementParseError(
                f"bad scalar {excerpt(text)}: imaginary part must come last")
        if seen_re and s[pos] not in "+-":
            raise ElementParseError(f"bad scalar {excerpt(text)}")
        sign = 1
        if s[pos] in "+-":
            sign = -1 if s[pos] == "-" else 1
            pos += 1
        if pos < len(s) and s[pos] == "i":
            num, den, imag = 1, 1, True
            pos += 1
        else:
            m = _NUM_RE.match(s, pos)
            if not m:
                raise ElementParseError(f"bad scalar {excerpt(text)}")
            try:
                num, den = int(m.group(1)), int(m.group(2) or 1)
            except ValueError:  # more digits than int() converts
                raise ElementParseError(
                    f"bad scalar {excerpt(text)}: numeral too long") from None
            if not den:
                raise ElementParseError(f"bad scalar {excerpt(text)}: zero denominator")
            pos = m.end()
            imag = pos < len(s) and s[pos] == "i"
            if imag:
                pos += 1
        if imag:
            im_num, im_den = sign * num, den
            seen_im = True
        else:
            if seen_re:
                raise ElementParseError(f"bad scalar {excerpt(text)}: two real parts")
            re_num, re_den = sign * num, den
            seen_re = True
    return _scalar(re_num * im_den, im_num * re_den, re_den * im_den)


def format_scalar(s: Scalar) -> str:
    if s.is_zero():
        return "0"
    out = ""
    if s.re:
        out = _frac_text(s.re)
    if s.im:
        mag = _frac_text(abs(s.im))
        core = "i" if mag == "1" else mag + "i"
        if not out:
            out = core if s.im > 0 else "-" + core
        else:
            out += ("+" if s.im > 0 else "-") + core
    return out


# ---------------------------------------------------------------------------
# elements

class AlgebraElement:
    """Finite Gaussian-rational combination of cylinder-shift indicators.

    Terms are kept merged: equal shifts added into one, zero
    coefficients dropped.  Equality of AlgebraElement objects is
    termwise; use equals (is_zero of the difference) for equality as
    functions on germs.  A product memoises the pieces of each pair of
    terms (bisection_product), through mealy._memoised on the minimal
    machine the left term's state lies in, under the two shifts' content
    and labels, so every piece carries the label its terms give.
    """

    __slots__ = ("machine", "terms")

    def __init__(self, machine: Machine, terms=()):
        if isinstance(terms, Mapping):
            terms = [(coeff, pmap) for pmap, coeff in terms.items()]
        checked = []
        for coeff, pmap in terms:
            if not isinstance(pmap, PartialMap):
                raise TypeError("term must be (scalar, PartialMap)")
            if pmap.alphabet_size != machine.alphabet_size:
                raise DomainError("term alphabet does not match the machine")
            checked.append((as_scalar(coeff), pmap))
        self.machine = machine
        self.terms = _merged(checked)

    @property
    def alphabet_size(self) -> int:
        return self.machine.alphabet_size

    def term_list(self) -> list[tuple[Scalar, PartialMap]]:
        return [(c, b) for b, c in self.terms.items()]

    def _require_compatible(self, other: "AlgebraElement"):
        if not isinstance(other, AlgebraElement):
            raise TypeError("expected an AlgebraElement")
        if other.alphabet_size != self.alphabet_size:
            raise DomainError("elements live over different alphabets")

    def __add__(self, other):
        self._require_compatible(other)
        return _element(self.machine, self.term_list() + other.term_list())

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _element(self.machine, [(-c, b) for c, b in self.term_list()])

    def scale(self, coeff) -> "AlgebraElement":
        c = as_scalar(coeff)
        return _element(self.machine, [(c * t, b) for t, b in self.term_list()])

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        self._require_compatible(other)
        out = []
        for b1, c1 in self.terms.items():
            a = b1.state
            memo = a.machine._memo
            left = ("times", a.state, b1.range_prefix, b1.source_prefix, b1.label)
            for b2, c2 in other.terms.items():
                b = b2.state
                for piece in _memoised(memo, left + (b.machine, b.state, b2.range_prefix,
                                                     b2.source_prefix, b2.label),
                                       bisection_product, b1, b2):
                    out.append((c1 * c2, piece))
        return _element(self.machine, out)

    def adjoint(self) -> "AlgebraElement":
        return _element(self.machine, [(c.conjugate(), b.inverse())
                                       for c, b in self.term_list()])

    def unit_restriction_eval(self, x: Point) -> Scalar:
        """E(a)(x): the value at the unit germ over x, the sum of c_t over
        the terms t whose germ at x is the unit."""
        key = _unit_key(self.alphabet_size, x)
        return sum((c for b, c in self.terms.items()
                    if b.contains_base(x) and _germ_key(b, x) == key), ZERO)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (self.alphabet_size == other.alphabet_size
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.alphabet_size,
                     frozenset((b, c.re, c.im) for b, c in self.terms.items())))

    def is_zero(self, cap: int | None = None) -> bool:
        """Exactly decide whether the element vanishes at every germ.

        The terms are bucketed over a prefix code of their source
        cylinders; the element is zero iff no cyclic strongly connected
        component of a bucket's joint walk has a nonzero class sum (see
        _decide).  cap bounds the joint pattern states the search enters
        per bucket; None means PATTERN_CAP.  Exceeding it raises
        PatternCapError.  False can come before a walk is explored whole;
        True explores every walk whole.  The state cap (state_cap) bounds
        the states of a bucket's pattern graph, its pairs of restrictions
        and two sinks together; a one-term bucket builds none.  cap must be None or an
        integer (anything operator.index accepts) of at least 1, else
        ValueError, whatever the element.  An element with a bucket whose
        coefficients do not sum to 0 is answered without a walk, so
        neither cap ever refuses it.
        """
        return _decide(self, cap, False)

    def is_singular(self, cap: int | None = None) -> bool:
        """True iff the germs where the element is nonzero sit over a meagre set.

        Each realizable coincidence pattern is nonzero on a locally
        closed region, and a locally closed region is nowhere dense
        unless it contains a whole cylinder, so the element is singular
        exactly when no pattern with a nonzero class sum does.  cap is
        as for is_zero (joint states entered; False can come early, True
        walks whole), and accepts the same values; as there, an element
        with a bucket whose coefficients do not sum to 0 is answered
        without a walk and never refused.
        """
        return _decide(self, cap, True)

    def equals(self, other: "AlgebraElement", cap: int | None = None) -> bool:
        """Extensional equality: the difference vanishes at every germ."""
        return (self - other).is_zero(cap)

    def __repr__(self):
        try:
            text = format_element(self).replace("\n", "; ")
        except (DomainError, ValueError):  # a term with no name, or letters past 9
            text = "; ".join(f"{format_scalar(c)} {b!r}" for b, c in self.terms.items())
        return f"<element {text or '0'}>"


def _merged(terms) -> dict[PartialMap, Scalar]:
    """The terms dict of (Scalar, PartialMap) pairs: coefficients of equal
    shifts added, in order of first occurrence, and zeros dropped."""
    acc: dict[PartialMap, Scalar] = {}
    for c, pmap in terms:
        total = acc.get(pmap)
        acc[pmap] = c if total is None else total + c
    return {b: c for b, c in acc.items() if not c.is_zero()}


def _element(machine: Machine, terms) -> AlgebraElement:
    """AlgebraElement(machine, terms) of (Scalar, PartialMap) pairs the
    algebra built itself over machine's alphabet, without the checks."""
    elem = object.__new__(AlgebraElement)
    elem.machine = machine
    elem.terms = _merged(terms)
    return elem


def unit_element(machine: Machine) -> AlgebraElement:
    return indicator(machine, identity_aut(machine.alphabet_size), (), (), "e")


def indicator(machine: Machine, state, range_prefix=(), source_prefix=(),
              label: str | None = None) -> AlgebraElement:
    """1 times the indicator of the shift (state, range_prefix, source_prefix)."""
    if isinstance(state, (str, int)):
        state = machine.state(state)
        label = label if label is not None else machine.name_of(state.state)
    pmap = PartialMap(state, range_prefix, source_prefix, label)
    return AlgebraElement(machine, [(ONE, pmap)])


# ---------------------------------------------------------------------------
# the coincidence-pattern search behind is_zero / is_singular

def _refined_groups(elem: AlgebraElement):
    """Buckets of terms by (part, image), sorted, over a prefix code.

    A cylinder is split only between a source prefix and a deeper source
    below it, so the parts are at most 1 + (d - 1) * (sum of source
    lengths), and sources of one depth are not split.  Each term descends
    from its own source to the parts in its cylinder.  Within one bucket
    the states are pairwise distinct automorphisms, and germs from
    different buckets are never equal, so each bucket is decided alone.
    A bucket is keyed by (machine, state) pairs (_state_key), which hash
    and compare without calling Aut.__eq__, and lists each state as the
    first of its Auts that reached it.
    """
    # a source strictly below a word p comes directly after p in this order
    sources = sorted({b.source_prefix for b in elem.terms})
    d = elem.alphabet_size
    key = _state_key(b.state for b in elem.terms)
    buckets: dict[tuple[Word, Word], dict[tuple[Machine, int], tuple[Aut, Scalar]]] = {}
    for b, c in elem.terms.items():
        g, u, v = b.state, b.range_prefix, b.source_prefix
        below = [()]
        while below:
            w = below.pop()
            p = v + w
            i = bisect_right(sources, p)
            if i < len(sources) and sources[i][:len(p)] == p:
                below.extend(w + (x,) for x in range(d))
                continue
            image, s = _walk(g, w)
            bucket = buckets.setdefault((p, u + image), {})
            pair = key(s.machine, s.state)
            seen = bucket.get(pair)
            bucket[pair] = (s, c) if seen is None else (seen[0], seen[1] + c)
    out = []
    for key in sorted(buckets):
        cleaned = [(s, c) for s, c in buckets[key].values() if not c.is_zero()]
        if cleaned:
            out.append(cleaned)
    return out


def _own_pair(m: Machine, q: int) -> tuple[Machine, int]:
    return m, q


def _state_key(states):
    """The (machine, state) pair function that keys the given states of
    minimal machines, and their restrictions, so that two pairs are equal
    iff the automorphisms are: the states as they are when all lie in one
    machine, as every parsed element's do (restrictions stay in it, and
    a minimal machine's states are distinct automorphisms), else their
    canonical pairs (mealy._canonical_pair).  Either way the keys of
    given states correspond one to one, so what is built from them has
    the same size."""
    machines = {s.machine for s in states}
    return _own_pair if len(machines) == 1 else _canonical_pair


_TRIVIAL = "T"
_BROKEN = "B"


def _pattern_walk(states: list[Aut]):
    """The joint walk of a bucket's term pairs over its pattern graph.

    Restrictions are read as (machine, state) pairs (_state_key), equal
    iff the automorphisms are.  The pattern graph has as nodes the
    unordered pairs of distinct such pairs, plus two absorbing sinks,
    explored from the pairs of all term pairs at once.  On letter x a pair
    (s, t) moves to (s|x, t|x) if s and t output the same letter on x, and
    to B (the germs disagree below) otherwise; a pair of equal
    restrictions is T (the germs agree on the whole subtree).  The graph
    is refined once with the sinks' labels fixed, so a class holds the
    nodes with the same T/B future, and a joint state is a tuple of
    classes, one per term pair.  No product of automorphisms is formed.
    Returns (term pairs, start joint state, succ, T class): succ(joint)
    lists the successors of a joint state by letter.  A one-term bucket
    has one joint state, (), and no pairs.
    """
    d = states[0].machine.alphabet_size
    k = len(states)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    if not pairs:
        return pairs, (), lambda joint: (joint,) * d, None
    key = _state_key(states)

    def pair_or_sink(s, t):
        if s == t:
            return _TRIVIAL
        return (s, t) if (id(s[0]), s[1]) < (id(t[0]), t[1]) else (t, s)

    def label(q):
        return (1 if q is _TRIVIAL else 2 if q is _BROKEN else 0,)

    def step(q, x):
        if q is _TRIVIAL or q is _BROKEN:
            return q
        (m, s), (n, t) = q
        if m.outputs[s][x] != n.outputs[t][x]:
            return _BROKEN
        return pair_or_sink(key(m, m.transitions[s][x]), key(n, n.transitions[t][x]))

    term = [key(s.machine, s.state) for s in states]
    starts = [pair_or_sink(term[i], term[j]) for i, j in pairs]
    state_cap = _state_cap()
    state_error = _cap_error(state_cap, f"the pattern graph of a bucket of {k} terms "
                                        f"({len(pairs)} term pairs)")
    labels, qtrans, classes = _quotient(*_explore(d, starts, label, step, state_cap,
                                                  state_error))
    trivial = labels.index((1,)) if (1,) in labels else None
    columns = list(zip(*qtrans))  # columns[x][c]: the class c moves to on x
    # _explore numbers the distinct starts first, in order
    number = {q: i for i, q in enumerate(dict.fromkeys(starts))}

    def succ(joint):
        return [tuple(map(column.__getitem__, joint)) for column in columns]

    return pairs, tuple(classes[number[q]] for q in starts), succ, trivial


def _pattern_cap(cap) -> int:
    cap = PATTERN_CAP if cap is None else _index(cap, "pattern cap")
    if cap < 1:
        raise ValueError("pattern cap must be positive")
    return cap


def _decide(elem: AlgebraElement, cap: int | None, open_only: bool) -> bool:
    """is_zero (open_only False) or is_singular (True) of elem.

    A pattern (T-set) records which term pairs of a bucket have equal
    germs.  T-sets only grow along joint-walk edges, so each strongly
    connected component of the walk has one.  A pattern is realizable iff
    a cyclic component has it, and its region contains a cylinder iff a
    bottom component has it; refinement keeps both properties.  is_zero
    reads cyclic components and is_singular bottom ones as one lazy pass
    finds them, and either is False at the first with a nonzero class
    sum.  Every bucket has a bottom component, whose class sums partition
    the bucket's coefficients, so only elements whose buckets all sum to
    0 are walked.
    """
    cap = _pattern_cap(cap)
    buckets = _refined_groups(elem)
    if any(not sum((c for _, c in bucket), ZERO).is_zero() for bucket in buckets):
        return False
    for bucket in buckets:
        coeffs = [c for _, c in bucket]
        pairs, start, succ, trivial = _pattern_walk([s for s, _ in bucket])
        entered = count(1)

        def entering(joint):  # succ, counting the joint states entered
            if next(entered) > cap:
                raise PatternCapError(
                    f"pattern search on a bucket of {len(coeffs)} terms ({len(pairs)} term "
                    f"pairs) reached {cap + 1} joint states, more than the cap of {cap}; "
                    "raise the pattern cap to decide this element")
            return succ(joint)

        for component in strong_components([start], entering):
            members = set(component)
            if (all(members.issuperset(succ(q)) for q in component) if open_only  # bottom
                    else len(members) > 1 or component[0] in succ(component[0])):  # cyclic
                tset = frozenset(p for p, c in zip(pairs, component[0]) if c == trivial)
                if any(not s.is_zero() for s in _class_sums(coeffs, tset)):
                    return False
    return True


def _class_sums(coeffs: list[Scalar], tset: frozenset) -> list[Scalar]:
    """Coefficient sums per germ class, classes in order of least member.

    Germ equality is transitive, so the T-set is: term i's class is led
    by the least j with (j, i) in it, or by i itself.
    """
    sums: dict[int, Scalar] = {}
    for i, c in enumerate(coeffs):
        lead = next((j for j in range(i) if (j, i) in tset), i)
        total = sums.get(lead)
        sums[lead] = c if total is None else total + c
    return list(sums.values())


# ---------------------------------------------------------------------------
# text format

def parse_shift(machine: Machine, text: str) -> PartialMap:
    """Parse the shift syntax <state-expr>:<u>><v> into a PartialMap.

    Parsed shifts are memoised on machine through mealy._memoised, keyed
    by the stripped text, so they live as long as the machine.  A text is
    stored on its second sighting: the first is parsed without being
    stored and leaves only the key, with None for its entry, which
    _memoised reads as a miss.  Most element texts are seen once, so
    their shifts do not outlive the parse.  Keys count toward
    mealy._SHIFT_MEMO_LIMIT; past it new texts are parsed without leaving
    anything (mealy._parse_memo).  Texts that fail to parse or that a cap
    refuses leave no key.
    """
    shift_text = text.strip()
    memo = _parse_memo(machine, "shift", shift_text)
    pmap = _memoised(memo if shift_text in memo else {}, shift_text,
                     _parse_shift, machine, shift_text)
    memo.setdefault(shift_text, None)  # never over an entry another thread stored
    return pmap


def _parse_shift(machine: Machine, shift_text: str) -> PartialMap:
    """parse_shift of stripped text, built afresh."""
    if ":" not in shift_text:
        raise ElementParseError(f"shift {excerpt(shift_text)}: missing ':'")
    expr_text, _, words = shift_text.partition(":")
    if words.count(">") != 1:
        raise ElementParseError(f"shift {excerpt(shift_text)}: needs exactly one '>'")
    u_text, _, v_text = words.partition(">")
    try:
        state = parse_state_expr(machine, expr_text)
        u = parse_word(u_text, machine.alphabet_size)
        v = parse_word(v_text, machine.alphabet_size)
        if len(u) != len(v):
            raise DomainError("range and source prefixes must have equal length")
        return _shift(_minimal(state), u, v, expr_text.strip())
    except (ParseError, DomainError, ValueError) as exc:
        raise ElementParseError(f"shift {excerpt(shift_text)}: {exc}") from exc


_TERM_SPLIT_RE = re.compile(r"[\n;]")


def parse_element(machine: Machine, text: str) -> AlgebraElement:
    """Parse one term per line (or semicolon): <scalar> <state-expr>:<u>><v>."""
    terms = []
    for raw in _TERM_SPLIT_RE.split(text):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        split = line.split(None, 1)
        if len(split) != 2:
            raise ElementParseError(
                f"term {excerpt(line)}: expected '<scalar> <shift>'")
        coeff_text, shift_text = split
        coeff = parse_scalar(coeff_text)
        terms.append((coeff, parse_shift(machine, shift_text)))
    return _element(machine, terms)


def _term_label(machine: Machine, pmap: PartialMap) -> str:
    """The name of the least state of machine equal to the term's state,
    else the term's label.  The least state of each class of machine's
    quotient is read off mealy._least_states; a state of another machine
    is compared with the classes whose content hash is its own."""
    quotient = _minimized(machine)[0]
    least = _least_states(machine)
    s = pmap.state
    if s.machine is quotient:
        q = least.get(s.state)
    else:
        hashes, h = _state_hashes(quotient), hash(s)
        q = next((q for c, q in least.items() if hashes[c] == h and Aut(quotient, c) == s),
                 None)
    if q is not None:
        return machine.name_of(q)
    if pmap.label is not None:
        return pmap.label
    raise DomainError("term state has no printable name; supply a label")


def _term_sort_key(machine: Machine, label: str):
    try:
        return (0, machine.index_of(label))
    except DomainError:
        return (1, label)


def format_element(elem: AlgebraElement) -> str:
    """Canonical text: terms sorted by (source, range, state)."""
    rows = []
    for pmap, coeff in elem.terms.items():
        label = _term_label(elem.machine, pmap)
        rows.append((pmap.source_prefix, pmap.range_prefix,
                     _term_sort_key(elem.machine, label), label, coeff, pmap))
    rows.sort(key=lambda r: r[:3])
    lines = [f"{format_scalar(coeff)} {label}:"
             f"{word_text(pmap.range_prefix)}>{word_text(pmap.source_prefix)}"
             for _, _, _, label, coeff, pmap in rows]
    return "\n".join(lines)
