"""Scalars, span elements, convolution, adjoints, zero and singularity tests."""

import contextlib
import copy
import gc
import itertools
import pickle
import random
import threading
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import pytest

from germtrace import (
    AlgebraElement,
    DomainError,
    ElementParseError,
    Machine,
    PartialMap,
    PATTERN_CAP,
    ParseError,
    PatternCapError,
    Point,
    Scalar,
    StateCapError,
    as_scalar,
    format_element,
    format_scalar,
    format_machine,
    indicator,
    minimize,
    parse_element,
    parse_machine,
    parse_point,
    parse_scalar,
    parse_shift,
    parse_state_expr,
    parse_word,
    state_cap,
    unit_element,
    unit_germ,
)
from germtrace import convalg, mealy
from germtrace.convalg import (_BROKEN, _TRIVIAL, ZERO, _class_sums, _pattern_cap,
                               _pattern_walk)
from germtrace.errors import excerpt
from germtrace.germs import _walk, bisection_product
from germtrace.mealy import (_canonical_pair, _cap_error, _explore, _quotient, _state_cap,
                             backward_distances, compose_labels, infinite_path_nodes,
                             restrict_label, word_text)

from conftest import (evaluate, is_termwise_zero, pop_memos, random_element, random_machine,
                      random_scalar, random_state_expr, random_word, reference_quotient,
                      spinal_chain, zero_quartet)


def F(*args):
    return Fraction(*args)


# The bucketing and pattern search convalg used before the prefix code and
# the strongly-connected-components pass of _decide, kept as references.

def _refined_groups(elem: AlgebraElement):
    """Split terms to a common source depth and bucket by (source, range).

    Within one bucket the states are pairwise canonically distinct, and
    germs from different buckets are never equal (different base
    cylinder or different image cylinder), so each bucket is analysed on
    its own.
    """
    if not elem.terms:
        return []
    d = elem.alphabet_size
    depth = max(len(b.source_prefix) for b in elem.terms)
    buckets = {}
    for b, c in elem.terms.items():
        g, u, v = b.state, b.range_prefix, b.source_prefix
        for w in itertools.product(range(d), repeat=depth - len(v)):
            bucket = buckets.setdefault((v + w, u + g.apply_word(w)), {})
            s = g.restrict(w).canonical()
            total = bucket.get(s)
            bucket[s] = c if total is None else total + c
    out = []
    for key in sorted(buckets):
        cleaned = [(s, c) for s, c in buckets[key].items() if not c.is_zero()]
        if cleaned:
            out.append(cleaned)
    return out


def _joint_walk(states, cap: int):
    """The whole joint walk of _pattern_walk, explored breadth-first into
    dense tables as convalg did before _decide searched it lazily:
    (term pairs, T positions, successors), where positions[i] lists the
    pairs whose class is T in joint state i."""
    d = states[0].machine.alphabet_size
    pairs, start, succ, trivial = _pattern_walk(states)

    def trivial_positions(joint):
        return tuple(p for p, c in enumerate(joint) if c == trivial)

    error = PatternCapError(
        f"pattern search on a bucket of {len(states)} terms ({len(pairs)} term pairs) "
        f"reached {cap + 1} joint states, more than the cap of {cap}; raise the "
        "pattern cap to decide this element")
    positions, table = _explore(d, [start], trivial_positions,
                                lambda joint, x: succ(joint)[x], cap, error)
    return pairs, positions, table


def _bucket_class_sums(bucket, cap: int):
    """Yield (coefficient sums per germ class, region contains a cylinder).

    One item per realizable coincidence pattern of the bucket.  A pattern
    (T-set) records which term pairs have equal germs.  It is realizable
    iff the joint pattern states showing it contain an infinite path
    among themselves, and its region contains a cylinder iff one of
    those states cannot reach a joint state with a successor of a
    different T-set, i.e. can never be forced into a further
    coincidence.
    """
    coeffs = [c for _, c in bucket]
    pairs, positions, succ = _joint_walk([s for s, _ in bucket], cap)
    # joint states grouped by T-set, read as the positions holding T
    # (pairs are listed in order, so these sort as the T-sets would)
    groups = {}
    for i, tpos in enumerate(positions):
        groups.setdefault(tpos, []).append(i)
    growing = [i for i, row in enumerate(succ)
               if any(positions[j] != positions[i] for j in row)]
    can_grow = backward_distances(range(len(succ)), succ.__getitem__, growing)
    for tpos, members in sorted(groups.items()):
        if infinite_path_nodes(members, succ.__getitem__):
            tset = frozenset(pairs[p] for p in tpos)
            yield (_class_sums(coeffs, tset),
                   any(i not in can_grow for i in members))


def _realizable_class_sums(elem: AlgebraElement, cap: int | None):
    """Yield _bucket_class_sums over the buckets of elem, in order: the
    whole pattern search, with no test of the coefficients first (the
    reference for the coefficient-total shortcut of is_zero / is_singular)."""
    cap = _pattern_cap(cap)
    for bucket in _refined_groups(elem):
        yield from _bucket_class_sums(bucket, cap)


@dataclass(frozen=True)
class ReferenceScalar:
    """Scalar as it was before it kept Fraction parts unwrapped: every
    construction wraps both parts in Fraction."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def conjugate(self):
        return ReferenceScalar(self.re, -self.im)

    def __add__(self, other):
        return ReferenceScalar(self.re + other.re, self.im + other.im)

    def __neg__(self):
        return ReferenceScalar(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return ReferenceScalar(self.re * other.re - self.im * other.im,
                               self.re * other.im + self.im * other.re)


class TestScalar:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0", Scalar(F(0))),
            ("4/7", Scalar(F(4, 7))),
            ("-2", Scalar(F(-2))),
            ("i", Scalar(F(0), F(1))),
            ("-i", Scalar(F(0), F(-1))),
            ("3i", Scalar(F(0), F(3))),
            ("1/2+3i", Scalar(F(1, 2), F(3))),
            ("1/2-3/4i", Scalar(F(1, 2), F(-3, 4))),
            ("-1/2+i", Scalar(F(-1, 2), F(1))),
        ],
    )
    def test_parse_and_format_round_trip(self, text, value):
        assert parse_scalar(text) == value
        assert format_scalar(value) == text
        assert parse_scalar(format_scalar(value)) == value

    @pytest.mark.parametrize("text", ["", "1+", "i+1", "1/0", "2x", "1+2", "++1", "1 2"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ElementParseError):
            parse_scalar(text)

    @pytest.mark.parametrize("text", ["--1", "+-1", "-+1", "1--2i", "1+-2i", "1-+2i",
                                      "--2/3i", "1/2+-i", "-1/-2"])
    def test_rejects_doubled_signs(self, text):
        with pytest.raises(ElementParseError, match="bad scalar"):
            parse_scalar(text)

    def test_arithmetic(self):
        x = Scalar(F(1, 2), F(3))
        y = Scalar(F(2), F(-1))
        assert x + y == Scalar(F(5, 2), F(2))
        assert x - y == Scalar(F(-3, 2), F(4))
        assert x * y == Scalar(F(4), F(11, 2))  # (1/2+3i)(2-i)
        assert -x == Scalar(F(-1, 2), F(-3))
        assert x.conjugate() == Scalar(F(1, 2), F(-3))
        assert (x * x.conjugate()).is_real()
        assert Scalar(F(0)).is_zero()

    def test_matches_reference_class(self):
        """Parts of int, Fraction and mixed types give the values, types,
        equality, hashes, arithmetic and text of the kept class."""
        rng = random.Random(6060)

        def part():
            kind = rng.randrange(3)
            n = rng.randint(-6, 6)
            return n if kind == 0 else F(n) if kind == 1 else F(n, rng.randint(1, 4))

        pairs = [(part(), part()) for _ in range(400)]
        scalars = [(Scalar(a, b), ReferenceScalar(a, b)) for a, b in pairs]
        scalars.append((Scalar(), ReferenceScalar()))
        equal = 0
        for (x, rx), (y, ry) in zip(scalars, scalars[1:] + scalars[:1]):
            for got, want in ((x, rx), (x + y, rx + ry), (x - y, rx - ry),
                              (x * y, rx * ry), (-x, -rx), (x.conjugate(), rx.conjugate())):
                assert type(got.re) is Fraction and type(got.im) is Fraction
                assert (got.re, got.im) == (want.re, want.im)
                assert hash(got) == hash(want)
                assert format_scalar(got) == format_scalar(want)
        for (x, rx), (y, ry) in itertools.combinations(scalars[:80], 2):
            assert (x == y) == (rx == ry)
            equal += x == y
        assert equal >= 10, equal

    def test_as_scalar_coercions(self):
        assert as_scalar(3) == Scalar(F(3))
        assert as_scalar(F(2, 5)) == Scalar(F(2, 5))
        assert as_scalar(Scalar(F(1))) == Scalar(F(1))
        assert 2 * Scalar(F(1, 2)) == Scalar(F(1))


class TestScalarIntegerForm:
    """Scalar holds (a + b*i)/den as ints: its arithmetic builds no
    Fraction, and long chains agree with the kept Fraction class."""

    def test_arithmetic_builds_no_fractions(self, monkeypatch):
        rng = random.Random(1515)
        values = [Scalar(F(rng.randint(-9, 9), rng.randint(1, 9)),
                         F(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(60)]
        values += [Scalar(rng.randint(-5, 5)) for _ in range(10)] + [Scalar()]
        rng.shuffle(values)
        built = []
        fraction_new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return fraction_new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
        outcomes = set()
        for x, y in zip(values, values[1:] + values[:1]):
            for z in (x + y, x - y, x * y, -x, x.conjugate(), x + 3, 2 * x, 1 - x, x * 0):
                outcomes.add((z.is_zero(), z.is_real(), z == x, z != y))
        assert built == []
        values[0].re  # reading a part builds one, so the count is live
        monkeypatch.undo()
        assert len(built) == 1
        assert len(outcomes) >= 5, outcomes

    def test_long_chains_match_reference(self):
        rng = random.Random(1516)

        def nonzero():
            return rng.choice((-1, 1)) * rng.randint(1, rng.choice((9, 9999)))

        def part():
            return nonzero() if rng.randrange(2) else F(nonzero(), rng.randint(2, 9999))

        def operand():
            """An int, a Fraction, or a Scalar of mixed parts with its reference."""
            kind = rng.randrange(3)
            if kind == 2:
                re, im = part(), part()
                return Scalar(re, im), ReferenceScalar(re, im)
            v = nonzero() if kind == 0 else F(nonzero(), rng.randint(2, 9999))
            return v, ReferenceScalar(v)

        biggest = 0
        for _ in range(40):
            x, rx = Scalar(1, F(1, 3)), ReferenceScalar(1, F(1, 3))
            for _ in range(60):
                y, ry = operand()
                op = rng.randrange(8)
                if op == 0:
                    x, rx = x + y, rx + ry
                elif op == 1:
                    x, rx = y + x, ry + rx
                elif op == 2:
                    x, rx = x - y, rx - ry
                elif op == 3:
                    x, rx = y - x, ry - rx
                elif op == 4:
                    x, rx = -x.conjugate(), -rx.conjugate()
                elif op == 5:
                    x, rx = y * x, ry * rx
                else:
                    x, rx = x * y, rx * ry
                assert type(x.re) is Fraction and type(x.im) is Fraction
                assert (x.re, x.im) == (rx.re, rx.im)
                assert hash(x) == hash(rx)
                assert x.is_zero() == rx.is_zero()
                if isinstance(y, Scalar):
                    assert (x == y) == (rx == ry)
                text = format_scalar(x)
                assert text == format_scalar(rx)
                assert parse_scalar(text) == x
                biggest = max(biggest, abs(x.re.numerator), x.re.denominator,
                              abs(x.im.numerator), x.im.denominator)
        assert biggest > 10 ** 30

    def test_equality_and_coercion_edges(self):
        assert Scalar(F(2, 4), F(-6, 8)) == Scalar(F(1, 2), F(-3, 4))
        assert Scalar(F(1, 2)) + Scalar(F(1, 2)) == Scalar(1)
        assert Scalar(0, F(5, 7)) - Scalar(0, F(5, 7)) == Scalar()
        assert hash(Scalar(F(3, 6), 2)) == hash((F(1, 2), F(2)))
        assert Scalar("1/3") == Scalar(F(1, 3))
        assert Scalar(1) != 1 and Scalar(1) != ReferenceScalar(1)
        with pytest.raises(AttributeError):
            Scalar(1).re = F(2)
        with pytest.raises(AttributeError):
            del Scalar(1).im
        x = Scalar(F(-7, 3), F(5, 11))
        assert pickle.loads(pickle.dumps(x)) == copy.copy(x) == copy.deepcopy(x) == x


class TestElementText:
    def test_parse_examples(self, grig):
        elem = parse_element(grig, "4/7 d:>\n-1 e:0>0")
        terms = elem.term_list()
        assert len(terms) == 2
        assert parse_element(grig, "1 b:>; 1 c:>") == parse_element(
            grig, "1 c:>\n# comment\n1 b:>"
        )

    def test_merging_and_zero_dropping(self, grig):
        assert is_termwise_zero(parse_element(grig, "1 d:> ; -1 d:>"))
        merged = parse_element(grig, "1/2 d:> ; 1/2 d:>")
        assert merged == parse_element(grig, "1 d:>")

    def test_state_expressions_in_shifts(self, grig):
        assert parse_element(grig, "1 b*c:>") == parse_element(grig, "1 d:>")
        assert parse_element(grig, "1 d|1:>") == parse_element(grig, "1 b:>")

    def test_format_golden(self, grig):
        elem = parse_element(grig, "-1 e:0>0 ; 4/7 d:> ; i a:1>0")
        assert format_element(elem) == "4/7 d:>\n-1 e:0>0\ni a:1>0"

    def test_format_sorted_by_source_then_range(self, grig):
        elem = parse_element(grig, "1 b:1>1 ; 1 b:0>1 ; 1 b:1>0 ; 1 b:>")
        lines = format_element(elem).splitlines()
        assert lines == ["1 b:>", "1 b:1>0", "1 b:0>1", "1 b:1>1"]

    def test_round_trip_random(self, bundled):
        rng = random.Random(55)
        for m in bundled.values():
            for _ in range(25):
                elem = random_element(m, rng)
                assert parse_element(m, format_element(elem)) == elem

    def test_round_trip_after_arithmetic(self, grig):
        rng = random.Random(56)
        for _ in range(15):
            a = random_element(grig, rng)
            b = random_element(grig, rng)
            prod = a * b
            assert parse_element(grig, format_element(prod)) == prod

    def test_format_keeps_no_aut(self):
        """Naming a term of the machine's quotient reads its classes:
        formatting a one-term element over a fresh 152-state machine
        leaves no new live Aut, adds only the least-state map to the
        machine's memo and nothing to its quotient's, and interns
        nothing."""
        m = parse_machine(format_machine(random_machine(random.Random(5), 150, 2)))
        elem = parse_element(m, "1 q7:0>1")
        quotient = m._memo["minimize"][0]

        def live_auts():
            gc.collect()
            return sum(type(o) is mealy.Aut for o in gc.get_objects())

        keys, quotient_keys, auts = set(m._memo), set(quotient._memo), live_auts()
        interned = len(mealy._interned)
        assert format_element(elem) == "1 q7:0>1"
        assert live_auts() == auts
        assert set(m._memo) == keys | {"least_state"}
        assert set(quotient._memo) == quotient_keys and "closures" not in quotient_keys
        assert len(mealy._interned) == interned

    def test_zero_element_formats_empty(self, grig):
        zero = parse_element(grig, "1 d:> ; -1 d:>")
        assert format_element(zero) == ""

    @pytest.mark.parametrize(
        "text",
        [
            "d:>",  # missing scalar
            "1 d",  # missing shift
            "1 d:0>00",  # unequal prefixes
            "1 d:2>0",  # letter out of range
            "1 zz:>",  # unknown state
            "1 d:0>0>0",  # double separator
            "x d:>",  # bad scalar
        ],
    )
    def test_rejects_malformed(self, grig, text):
        with pytest.raises(ElementParseError):
            parse_element(grig, text)


class TestAlgebraStructure:
    def test_vector_space_ops(self, grig):
        a = parse_element(grig, "1 b:> ; i c:>")
        b = parse_element(grig, "1 c:> ; -1 b:>")
        assert a + b == parse_element(grig, "1+i c:>")
        assert a - a == AlgebraElement(grig)
        assert a.scale(2) == parse_element(grig, "2 b:> ; 2i c:>")
        assert 2 * a == a.scale(2)
        assert -a == a.scale(-1)

    def test_unit_laws(self, bundled):
        rng = random.Random(77)
        for m in bundled.values():
            one = unit_element(m)
            for _ in range(10):
                a = random_element(m, rng)
                assert one * a == a
                assert a * one == a

    def test_involution_products(self, grig):
        a = indicator(grig, "a")
        assert a * a == unit_element(grig)
        b, c, d = (indicator(grig, n) for n in "bcd")
        assert b * c == d
        assert c * d == b
        assert d * b == c

    def test_disjoint_product_vanishes(self, grig):
        lhs = indicator(grig, "e", (0, 0), (0, 0))
        rhs = indicator(grig, "e", (1, 1), (1, 1))
        assert is_termwise_zero(lhs * rhs)

    def test_associativity_random(self, bundled):
        rng = random.Random(88)
        for m in bundled.values():
            for _ in range(12):
                a = random_element(m, rng, max_terms=2)
                b = random_element(m, rng, max_terms=2)
                c = random_element(m, rng, max_terms=2)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert (a + b) * c == a * c + b * c

    def test_adjoint_is_involution(self, bundled):
        rng = random.Random(99)
        for m in bundled.values():
            for _ in range(12):
                a = random_element(m, rng)
                b = random_element(m, rng)
                assert a.adjoint().adjoint() == a
                assert (a + b).adjoint() == a.adjoint() + b.adjoint()
                assert (a * b).adjoint() == b.adjoint() * a.adjoint()
                lam = Scalar(F(1, 2), F(-2))
                assert a.scale(lam).adjoint() == a.adjoint().scale(lam.conjugate())

    def test_adjoint_swaps_prefixes(self, grig):
        a01 = indicator(grig, "a", (0,), (1,))
        star = a01.adjoint()
        (coeff, pmap), = star.term_list()
        assert coeff == Scalar(F(1))
        assert pmap.range_prefix == (1,)
        assert pmap.source_prefix == (0,)
        assert pmap.state == grig.state("a")  # a is an involution


class TestEvaluation:
    def test_indicator_values(self, grig):
        d = indicator(grig, "d")
        x = parse_point("(1)", 2)
        germ_d = PartialMap(grig.state("d"), (), ()).germ_at(x)
        assert evaluate(d, germ_d) == Scalar(F(1))
        assert evaluate(d, unit_germ(2, x)) == Scalar(F(0))
        assert evaluate(d, unit_germ(2, parse_point("(0)", 2))) == Scalar(F(1))

    def test_unit_restriction_eval(self, grig):
        elem = parse_element(grig, "1/2 e:> ; 1 d:> ; 3 e:11>11")
        assert elem.unit_restriction_eval(parse_point("(0)", 2)) == Scalar(F(3, 2))
        assert elem.unit_restriction_eval(parse_point("(1)", 2)) == Scalar(F(7, 2))

    def test_evaluation_is_multiplicative_over_factorizations(self, bundled):
        """evaluate(ab, g) equals the sum over visible factorizations g = g1 g2."""
        rng = random.Random(101)
        for m in bundled.values():
            for _ in range(10):
                a = random_element(m, rng, max_terms=2)
                b = random_element(m, rng, max_terms=2)
                prod = a * b
                for _, pmap in prod.term_list()[:3]:
                    x = Point(pmap.source_prefix, (0, 1))
                    g = pmap.germ_at(x)
                    total = Scalar(F(0))
                    seen = []
                    for _, bp in b.term_list():
                        if not bp.contains_base(x):
                            continue
                        g2 = bp.germ_at(x)
                        if any(g2 == s for s in seen):
                            continue
                        seen.append(g2)
                        g1 = g.compose(g2.inverse())
                        total = total + evaluate(a, g1) * evaluate(b, g2)
                    assert evaluate(prod, g) == total

    def test_adjoint_evaluation_conjugates(self, bundled):
        rng = random.Random(103)
        for m in bundled.values():
            for _ in range(10):
                a = random_element(m, rng)
                for x in (parse_point("(0)", 2), parse_point("(1)", 2)):
                    lhs = a.adjoint().unit_restriction_eval(x)
                    assert lhs == a.unit_restriction_eval(x).conjugate()


class TestIsZero:
    def test_termwise_zero(self, grig):
        assert (indicator(grig, "d") - indicator(grig, "d")).is_zero()

    def test_refinement_cancellation(self, grig):
        d = indicator(grig, "d")
        e00 = indicator(grig, "e", (0,), (0,))
        b11 = indicator(grig, "b", (1,), (1,))
        elem = d - e00 - b11
        assert not is_termwise_zero(elem)
        assert elem.is_zero()

    def test_source_restriction_example(self, grig):
        piece = PartialMap(grig.state("d"), (), ()).restrict_source((0,))
        elem = AlgebraElement(grig, {piece: Scalar(F(1))}) - indicator(
            grig, "e", (0,), (0,)
        )
        assert elem.is_zero()

    def test_shifted_state_is_not_restriction(self, grig):
        d00 = indicator(grig, "d", (0,), (0,))
        e00 = indicator(grig, "e", (0,), (0,))
        assert not (d00 - e00).is_zero()

    def test_nonzero_state_difference(self, grig):
        assert not (indicator(grig, "d") - indicator(grig, "e")).is_zero()
        assert not (indicator(grig, "b") - indicator(grig, "c")).is_zero()

    def test_element_minus_its_refinement(self, bundled):
        rng = random.Random(111)
        for m in bundled.values():
            for _ in range(8):
                a = random_element(m, rng, max_terms=2, max_depth=1)
                refined = {}
                for coeff, pmap in a.term_list():
                    for x in range(m.alphabet_size):
                        piece = pmap.restrict_source((x,))
                        refined[piece] = refined.get(piece, Scalar(F(0))) + coeff
                b = AlgebraElement(m, refined)
                diff = a - b
                assert diff.is_zero()
                if not is_termwise_zero(diff):
                    break

    def test_zero_evaluates_to_zero_on_sampled_germs(self, grig):
        d = indicator(grig, "d")
        e00 = indicator(grig, "e", (0,), (0,))
        b11 = indicator(grig, "b", (1,), (1,))
        elem = d - e00 - b11
        rng = random.Random(112)
        count = 0
        for _ in range(1000):
            pre = tuple(rng.randrange(2) for _ in range(rng.randint(0, 3)))
            per = tuple(rng.randrange(2) for _ in range(rng.randint(1, 3)))
            x = Point(pre, per)
            for _, pmap in elem.term_list():
                if pmap.contains_base(x):
                    assert evaluate(elem, pmap.germ_at(x)).is_zero()
                    count += 1
        assert count > 0

    def test_pattern_cap(self, grig):
        with pytest.raises(PatternCapError):
            (indicator(grig, "b") - indicator(grig, "c")).is_zero(cap=1)


class TestIsSingular:
    def test_zero_is_singular(self, grig):
        d = indicator(grig, "d")
        e00 = indicator(grig, "e", (0,), (0,))
        b11 = indicator(grig, "b", (1,), (1,))
        assert (d - e00 - b11).is_singular()
        assert (d - d).is_singular()

    def test_nonzero_span_elements_are_not_singular(self, grig):
        assert not (indicator(grig, "d") - indicator(grig, "e")).is_singular()
        assert not (indicator(grig, "b") - indicator(grig, "c")).is_singular()
        assert not indicator(grig, "d").is_singular()

    def test_span_singular_iff_zero(self, grig):
        """Over these scalars the group-span has trivial singular part."""
        names = ["b", "c", "d", "e"]
        inds = [indicator(grig, n) for n in names]
        for mask in range(3**4):
            coeffs = []
            rest = mask
            for _ in range(4):
                coeffs.append(rest % 3 - 1)
                rest //= 3
            elem = AlgebraElement(grig)
            for coeff, ind in zip(coeffs, inds):
                elem = elem + ind.scale(coeff)
            assert elem.is_singular() == elem.is_zero()

    def test_ideal_property_on_zero_divisors(self, grig):
        d = indicator(grig, "d")
        e00 = indicator(grig, "e", (0,), (0,))
        b11 = indicator(grig, "b", (1,), (1,))
        z = d - e00 - b11
        for mult in (indicator(grig, "b"), indicator(grig, "a", (0,), (1,))):
            assert (mult * z).is_singular()
            assert (z * mult).is_singular()

    def test_free_machines_nonzero_is_not_singular(self, adding, lamp):
        assert not indicator(adding, "a").is_singular()
        assert not (indicator(lamp, "p") - indicator(lamp, "q")).is_singular()


class TestEquals:
    def test_equals_uses_function_semantics(self, grig):
        d = indicator(grig, "d")
        refined = (
            indicator(grig, "e", (0,), (0,)) + indicator(grig, "b", (1,), (1,))
        )
        assert d != refined  # termwise comparison
        assert d.equals(refined)
        assert not d.equals(indicator(grig, "e"))


def reference_joint_walk(states, cap):
    """The walk _joint_walk made before the pattern automata: component
    (i, j) follows the state of the minimised, interned product
    q_j^{-1} q_i, and absorbs to T when the product trivializes or to B
    when it moves a letter."""
    d = states[0].machine.alphabet_size
    pairs = [(i, j) for i in range(len(states)) for j in range(i + 1, len(states))]
    machines = []
    starts = []
    for i, j in pairs:
        product = (states[j].inverse() * states[i]).canonical()
        machines.append(product.machine)
        starts.append(product.state)

    def advance(tok, m, x):
        if tok is _TRIVIAL or tok is _BROKEN:
            return tok
        if m.outputs[tok][x] != x:
            return _BROKEN
        t = m.transitions[tok][x]
        return _TRIVIAL if t == m.identity else t

    start = tuple(_TRIVIAL if m.identity == q else q for m, q in zip(machines, starts))
    seen = {start}
    queue = [start]
    succ = {}
    while queue:
        joint = queue.pop()
        row = []
        for x in range(d):
            nxt = tuple(advance(tok, m, x) for tok, m in zip(joint, machines))
            row.append(nxt)
            if nxt not in seen:
                if len(seen) >= cap:
                    raise PatternCapError(f"more than {cap} joint states")
                seen.add(nxt)
                queue.append(nxt)
        succ[joint] = row
    return pairs, seen, succ


def per_pair_joint_walk(states, cap, sizes=None):
    """The _joint_walk that built one pattern automaton per term pair:
    each automaton is explored from its pair of restrictions over the
    union of the term machines and refined on its own, and a joint state
    holds one token per pair.  The states each automaton explored, sinks
    included, are appended to sizes."""
    d = states[0].machine.alphabet_size
    k = len(states)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    offsets = {}
    outs = []
    trans = []
    for s in states:
        m = s.machine
        if m not in offsets:
            offsets[m] = base = len(outs)
            outs.extend(m.outputs)
            trans.extend(tuple(base + t for t in row) for row in m.transitions)
    block = _quotient(outs, trans)[2]

    def pair_or_sink(s, t):
        return _TRIVIAL if block[s] == block[t] else (s, t)

    def label(q):
        return (1 if q is _TRIVIAL else 2 if q is _BROKEN else 0,)

    def step(q, x):
        if q is _TRIVIAL or q is _BROKEN:
            return q
        s, t = q
        if outs[s][x] != outs[t][x]:
            return _BROKEN
        return pair_or_sink(trans[s][x], trans[t][x])

    state_cap = _state_cap()
    state_error = _cap_error(state_cap, "the pattern automaton of a term pair")
    sink = {1: _TRIVIAL, 2: _BROKEN}
    tables = []
    start = []
    for i, j in pairs:
        q = pair_or_sink(offsets[states[i].machine] + states[i].state,
                         offsets[states[j].machine] + states[j].state)
        explored = _explore(d, [q], label, step, state_cap, state_error)
        if sizes is not None:
            sizes.append(len(explored[0]))
        labels, qtrans, classes = _quotient(*explored)
        token = [sink.get(lab, c) for c, (lab,) in enumerate(labels)]
        tables.append({token[c]: tuple(token[t] for t in row)
                       for c, row in enumerate(qtrans)})
        start.append(token[classes[0]])

    def trivial_positions(joint):
        return tuple(p for p, tok in enumerate(joint) if tok is _TRIVIAL)

    def joint_step(joint, x):
        return tuple(table[tok][x] for tok, table in zip(joint, tables))

    error = PatternCapError(
        f"pattern search on a bucket of {k} terms ({len(pairs)} term pairs) reached "
        f"{cap + 1} joint states, more than the cap of {cap}; raise the pattern cap "
        "to decide this element")
    positions, succ = _explore(d, [tuple(start)], trivial_positions, joint_step, cap, error)
    return pairs, positions, succ


def reference_tset(joint, pairs):
    """The term pairs whose component of the joint state is T."""
    return frozenset(p for tok, p in zip(joint, pairs) if tok is _TRIVIAL)


def reference_sums_by_union_find(n, coeffs, tset):
    """Coefficient sums over the classes of the union-find closure of tset,
    in order of first member."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in tset:
        parent[find(i)] = find(j)
    sums = {}
    for i, c in enumerate(coeffs):
        r = find(i)
        sums[r] = sums.get(r, Scalar()) + c
    return list(sums.values())


def reference_class_sums(elem, walk_sizes=None):
    """The loops _realizable_class_sums used before the graph helpers
    (round-robin sweeps for the joint states that can reach a change of
    T-set and for each T-set's joint states with an infinite path), over
    the reference walk."""
    items = []
    for bucket in _refined_groups(elem):
        states = [s for s, _ in bucket]
        coeffs = [c for _, c in bucket]
        pairs, seen, succ = reference_joint_walk(states, PATTERN_CAP)
        if walk_sizes is not None:
            walk_sizes.append(len(seen))
        d = elem.alphabet_size
        by_tset = {}
        for joint in seen:
            by_tset.setdefault(reference_tset(joint, pairs), set()).add(joint)
        can_grow = set()
        changed = True
        while changed:
            changed = False
            for joint in seen:
                if joint in can_grow:
                    continue
                base = reference_tset(joint, pairs)
                for x in range(d):
                    nxt = succ[joint][x]
                    if nxt in can_grow or reference_tset(nxt, pairs) != base:
                        can_grow.add(joint)
                        changed = True
                        break
        for tset in sorted(by_tset, key=sorted):
            members = by_tset[tset]
            alive = set(members)
            changed = True
            while changed:
                changed = False
                for joint in list(alive):
                    if not any(succ[joint][x] in alive for x in range(d)):
                        alive.discard(joint)
                        changed = True
            if alive:
                has_open = any(joint not in can_grow for joint in members)
                items.append((reference_sums_by_union_find(len(states), coeffs, tset),
                              has_open))
    return items


def distinct_states_element(rng, m, states):
    """The given distinct states on one cylinder pair, with coefficients of
    positive real part: every germ class sums to a nonzero value."""
    d = m.alphabet_size
    k = rng.randint(0, 2)
    u, v = random_word(rng, d, k), random_word(rng, d, k)
    return AlgebraElement(m, [
        (Scalar(F(rng.randint(1, 4), rng.randint(1, 3)), F(rng.randint(-2, 2))),
         PartialMap(m.state(q), u, v)) for q in states])


def zero_total_element(rng, m, count):
    """count states of m, pairwise distinct as automorphisms, on one
    cylinder pair with coefficients c, ..., c, -(count - 1)c.  The bucket
    sums to 0 and no proper part of it does, so the element is walked,
    and two distinct states have distinct germs on a whole cylinder:
    it is neither zero nor singular."""
    distinct = {}
    for q in rng.sample(range(m.size), m.size):
        distinct.setdefault(m.state(q).canonical(), q)
    states = list(distinct.values())[:count]
    assert len(states) == count
    c = random_scalar(rng)
    d = m.alphabet_size
    k = rng.randint(0, 2)
    u, v = random_word(rng, d, k), random_word(rng, d, k)
    return AlgebraElement(m, [(c * (1 - count if i == count - 1 else 1),
                               PartialMap(m.state(q), u, v))
                              for i, q in enumerate(states)])


def zero_by_construction(rng, m):
    """c(q1 - q2 - q3 + q4) for four new states of m with the identity
    output row.  Below letter 0 they act as x, x, w, w, below letter 1 as
    y, z, y, z and below the other letters as r, where w is x and z is y
    with every output letter shifted, so w differs from x and z from y at
    every point.  Below 0 the germs of q1, q2 and of q3, q4 coincide,
    below 1 those of q1, q3 and of q2, q4, so every germ class sums to 0
    while no two terms are equal."""
    d, n = m.alphabet_size, m.size
    x, y, r = (rng.randrange(n) for _ in range(3))
    shifted = [tuple((a + 1) % d for a in m.outputs[q]) for q in (x, y)]
    w, z = n, n + 1
    quads = [(a, b) + (r,) * (d - 2) for a in (x, w) for b in (y, z)]
    mm = Machine(d, [*m.outputs, *shifted, *[tuple(range(d))] * 4],
                 [*m.transitions, m.transitions[x], m.transitions[y], *quads],
                 identity=m.identity)
    c = random_scalar(rng)
    k = rng.randint(0, 1)
    u, v = random_word(rng, d, k), random_word(rng, d, k)
    return AlgebraElement(mm, [(c * sign, PartialMap(mm.state(n + 2 + i), u, v))
                               for i, sign in enumerate((1, -1, -1, 1))])


def compare_with_reference(elem, tally):
    """(sums, has_open) items equal the reference's, and no bucket's walk
    has more joint states than the reference walk."""
    ref_sizes = []
    items = list(_realizable_class_sums(elem, None))
    assert items == reference_class_sums(elem, ref_sizes)
    sizes = [len(_joint_walk([s for s, _ in bucket], PATTERN_CAP)[1])
             for bucket in _refined_groups(elem)]
    assert len(sizes) == len(ref_sizes)
    for new, old in zip(sizes, ref_sizes):
        assert new <= old
        tally["fewer"] += new < old
    for _, flag in items:
        tally[flag] += 1
    return items


def compare_with_per_pair(elem):
    """On every bucket, _joint_walk returns exactly what the per-pair
    automata gave, and it runs under a state cap of their states together,
    so its pattern graph is no larger.  Returns (states, per-pair sizes)
    per bucket."""
    out = []
    for bucket in _refined_groups(elem):
        states = [s for s, _ in bucket]
        sizes = []
        expected = per_pair_joint_walk(states, PATTERN_CAP, sizes)
        with state_cap(max(1, sum(sizes))):
            assert _joint_walk(states, PATTERN_CAP) == expected
        out.append((states, sizes))
    return out


def union_quotient_joint_walk(states, cap, sizes):
    """The _joint_walk that decided equality of restrictions by one
    quotient of the disjoint union of the bucket's term machines: the
    pattern graph's nodes are unordered pairs of distinct classes of that
    quotient.  The graph's node count, sinks included, is appended to
    sizes."""
    d = states[0].machine.alphabet_size
    k = len(states)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    if not pairs:
        return pairs, [()], [(0,) * d]
    offsets = {}
    outs = []
    trans = []
    for s in states:
        m = s.machine
        if m not in offsets:
            offsets[m] = base = len(outs)
            outs.extend(m.outputs)
            trans.extend(tuple(base + t for t in row) for row in m.transitions)
    outs, trans, block = _quotient(outs, trans)
    term = [block[offsets[s.machine] + s.state] for s in states]

    def pair_or_sink(s, t):
        return _TRIVIAL if s == t else (s, t) if s < t else (t, s)

    def label(q):
        return (1 if q is _TRIVIAL else 2 if q is _BROKEN else 0,)

    def step(q, x):
        if q is _TRIVIAL or q is _BROKEN:
            return q
        s, t = q
        if outs[s][x] != outs[t][x]:
            return _BROKEN
        return pair_or_sink(trans[s][x], trans[t][x])

    starts = [pair_or_sink(term[i], term[j]) for i, j in pairs]
    state_cap = _state_cap()
    state_error = _cap_error(state_cap, f"the pattern graph of a bucket of {k} terms "
                                        f"({len(pairs)} term pairs)")
    explored = _explore(d, starts, label, step, state_cap, state_error)
    sizes.append(len(explored[0]))
    labels, qtrans, classes = _quotient(*explored)
    trivial = labels.index((1,)) if (1,) in labels else None
    columns = list(zip(*qtrans))
    number = {q: i for i, q in enumerate(dict.fromkeys(starts))}

    def trivial_positions(joint):
        return tuple(p for p, c in enumerate(joint) if c == trivial)

    def joint_step(joint, x):
        return tuple(map(columns[x].__getitem__, joint))

    error = PatternCapError(
        f"pattern search on a bucket of {k} terms ({len(pairs)} term pairs) reached "
        f"{cap + 1} joint states, more than the cap of {cap}; raise the pattern cap "
        "to decide this element")
    start = tuple(classes[number[q]] for q in starts)
    positions, succ = _explore(d, [start], trivial_positions, joint_step, cap, error)
    return pairs, positions, succ


def restrict_source_groups(elem):
    """The _refined_groups that cut each term down through
    PartialMap.restrict_source and bucketed the restricted maps."""
    if not elem.terms:
        return []
    d = elem.alphabet_size
    depth = max(len(b.source_prefix) for b in elem.terms)
    buckets = {}
    for b, c in elem.terms.items():
        for w in itertools.product(range(d), repeat=depth - len(b.source_prefix)):
            rb = b.restrict_source(w)
            bucket = buckets.setdefault((rb.source_prefix, rb.range_prefix), {})
            bucket[rb.state] = bucket.get(rb.state, Scalar()) + c
    out = []
    for key in sorted(buckets):
        cleaned = [(s, c) for s, c in buckets[key].items() if not c.is_zero()]
        if cleaned:
            out.append(cleaned)
    return out


def canonical_buckets(buckets):
    """Each bucket's (canonical pair, coefficient) list: two buckets agree
    iff they list equal states, in order, with the same coefficients."""
    return [[(_canonical_pair(s.machine, s.state), c) for s, c in bucket]
            for bucket in buckets]


def compare_with_union_quotient(elem):
    """_refined_groups returns the restrict_source buckets (same order, the
    identical canonical states, the same coefficients), and on each bucket
    _joint_walk returns what the union-quotient walk gave, from a pattern
    graph with as many nodes: it fits under a state cap of that count and
    is refused under one less, with the same message as the reference."""
    buckets = _refined_groups(elem)
    expected = restrict_source_groups(elem)
    assert canonical_buckets(buckets) == canonical_buckets(expected)
    for bucket in buckets:
        states = [s for s, _ in bucket]
        sizes = []
        walk = union_quotient_joint_walk(states, PATTERN_CAP, sizes)
        assert _joint_walk(states, PATTERN_CAP) == walk
        for size in sizes:
            with state_cap(size):
                assert _joint_walk(states, PATTERN_CAP) == walk
            with state_cap(size - 1):
                with pytest.raises(StateCapError) as new:
                    _joint_walk(states, PATTERN_CAP)
                with pytest.raises(StateCapError) as old:
                    union_quotient_joint_walk(states, PATTERN_CAP, [])
            assert str(new.value) == str(old.value)


class TestPatternSearchReference:
    def test_matches_pre_change_loops(self, bundled, ternary):
        rng = random.Random(314)
        machines = [*bundled.values(), ternary]
        # the bundled machines are too small for the pattern automata to
        # merge states the quotient machines keep apart: no floor on "fewer"
        tally = {True: 0, False: 0, "fewer": 0}
        for k in range(300):
            m = machines[k % len(machines)]
            d = m.alphabet_size
            u, v = random_word(rng, d, k % 2), random_word(rng, d, k % 2)
            # several states on one cylinder pair meet in one bucket
            elem = AlgebraElement(m, [
                (random_scalar(rng), PartialMap(m.state(q), u, v, m.name_of(q)))
                for q in rng.sample(range(m.size), min(m.size, rng.randint(2, 4)))])
            if k % 4 == 0:
                elem = elem * random_element(m, rng, max_terms=2, max_depth=1)
            compare_with_reference(elem, tally)
            compare_with_per_pair(elem)
            compare_with_union_quotient(elem)
        assert min(tally[True], tally[False]) >= 20, tally

    def test_matches_reference_on_random_machines(self):
        """Seeded machines like the iszero-random benchmark's: random
        machines with n <= 40 and spinal chains over 2 and 3 letters."""
        rng = random.Random(2718)
        tally = {True: 0, False: 0, "fewer": 0}
        for k in range(70):
            d = 2 + k % 2
            kind = k // 2 % 5
            n = (10, 20, 40)[k // 10 % 3]
            if kind < 2:
                # three spinal states always differ at the spine point and
                # two of them coincide below every other letter: a pattern
                # with no open region
                m = spinal_chain(rng, d)
                spine = range(1, m.size - 1)
                elem = distinct_states_element(
                    rng, m, rng.sample(spine, min(len(spine), 3 + k % 2)))
            elif kind == 4:
                m = spinal_chain(rng, d) if k % 3 == 0 else random_machine(rng, n, d)
                elem = zero_by_construction(rng, m)
            else:
                m = random_machine(rng, n, d)
                elem = distinct_states_element(
                    rng, m, rng.sample(range(m.size), 2 + k % 3))
            compare_with_reference(elem, tally)
            compare_with_per_pair(elem)
            compare_with_union_quotient(elem)
            assert elem.is_zero() == (kind == 4)
        assert min(tally.values()) >= 20, tally

    def test_bucket_graph_shares_pair_states(self):
        """On spinal chains the term pairs of a 4- or 5-term bucket pass
        through common pairs of restrictions, so the bucket's pattern graph
        has fewer states than the per-pair automata together even when
        their sinks are counted once."""
        rng = random.Random(577)
        checked = 0
        for t in range(10):
            d = 2 + t % 2
            m = spinal_chain(rng, d)
            spine = range(1, m.size - 1)
            elem = distinct_states_element(
                rng, m, rng.sample(spine, min(len(spine), 4 + t % 2)))
            compare_with_union_quotient(elem)
            for states, sizes in compare_with_per_pair(elem):
                if len(states) < 4:
                    continue
                sinks_once = sum(sizes) - 2 * (len(sizes) - 1)
                with state_cap(sinks_once - 1):
                    _joint_walk(states, PATTERN_CAP)
                checked += 1
        assert checked >= 6, checked


class TestRestrictionEquality:
    def test_only_pattern_graphs_are_refined(self, monkeypatch):
        """Equality of restrictions is read from canonical forms: every
        table convalg refines while is_zero / is_singular run is a pattern
        graph, whose output rows are the labels pair / T / B, so no union
        of term machines is refined."""
        tables = []

        def spy(outputs, transitions):
            tables.append(set(outputs))
            return _quotient(outputs, transitions)

        monkeypatch.setattr(convalg, "_quotient", spy)
        rng = random.Random(1357)
        for k in range(24):
            d = 2 + k % 2
            m = spinal_chain(rng, d) if k % 3 == 0 else random_machine(rng, 20, d)
            zero = k % 2 == 0
            # one bucket of 2 to 4 terms summing to 0: each call refines at
            # least one graph
            elem = (zero_by_construction(rng, m) if zero
                    else zero_total_element(rng, m, 2 + k % 3))
            assert elem.is_zero() == zero
            assert elem.is_singular() == zero
        assert len(tables) >= 48
        assert all(rows <= {(0,), (1,), (2,)} for rows in tables)

    def test_pattern_graph_quotients_match_tuple_signatures(self, monkeypatch):
        """The quotient of every pattern graph refined is the one the tuple
        signatures _quotient replaced give."""
        graphs = []

        def spy(outputs, transitions):
            got = _quotient(outputs, transitions)
            graphs.append(got == reference_quotient(outputs, transitions))
            return got

        monkeypatch.setattr(convalg, "_quotient", spy)
        rng = random.Random(2468)
        for k in range(24):
            d = 2 + k % 3
            m = spinal_chain(rng, d) if k % 4 == 0 else random_machine(rng, 30, d)
            elem = (zero_by_construction(rng, m) if k % 2 == 0
                    else zero_total_element(rng, m, 2 + k % 3))
            elem.is_zero()
            elem.is_singular()
        assert len(graphs) >= 48 and all(graphs)


class TestPatternCapAndCaches:
    def test_cap_outcome_does_not_depend_on_caches(self):
        """is_zero(cap=c) raises PatternCapError or gives the uncapped
        verdict, and gives the same outcome for every c before and after
        the element's products and canonical forms are warm."""
        rng = random.Random(4242)
        m = random_machine(rng, 20, 2)
        elem = zero_total_element(rng, m, 3)  # a bucket summing to 0 is walked
        caps = range(1, 40)

        def outcomes():
            out = []
            for cap in caps:
                try:
                    out.append(elem.is_zero(cap=cap))
                except PatternCapError as exc:
                    out.append(str(exc))
            return out

        cold = outcomes()
        for bucket in _refined_groups(elem):
            states = [s for s, _ in bucket]
            reference_joint_walk(states, PATTERN_CAP)  # every q_j^-1 q_i
            for s in states:
                s.inverse().canonical()
        (elem * elem.adjoint()).is_zero()
        assert elem.is_zero() is False
        assert outcomes() == cold

        first = next(i for i, o in enumerate(cold) if isinstance(o, bool))
        assert first > 0
        assert cold[first:] == [False] * (len(caps) - first)
        for cap, message in zip(caps, cold[:first]):
            assert (f"bucket of 3 terms (3 term pairs) reached {cap + 1} joint "
                    f"states, more than the cap of {cap}") in message

    def test_state_cap_names_the_pattern_automaton(self, grig):
        elem = indicator(grig, "b") - indicator(grig, "c")
        with state_cap(2), pytest.raises(StateCapError) as info:
            elem.is_zero()
        assert str(info.value) == ("more than 2 states while building the pattern "
                                   "graph of a bucket of 2 terms (1 term pairs)")


class TestBucketGraphCap:
    def test_state_cap_bounds_the_bucket_graph(self):
        """The state cap counts the states of a bucket's whole pattern
        graph: this 3-term bucket exceeds a cap that each of its term
        pairs' own automata fit under."""
        rng = random.Random(61)
        m = spinal_chain(rng, 2)
        # coefficients summing to 0, so the bucket is walked
        elem = AlgebraElement(m, [(c, PartialMap(m.state(q), (), ()))
                                  for c, q in zip((1, 1, -2), (1, 2, 3))])
        (bucket,) = _refined_groups(elem)
        states = [s for s, _ in bucket]
        assert len(states) == 3
        sizes = []
        per_pair_joint_walk(states, PATTERN_CAP, sizes)
        cap = max(sizes)
        with state_cap(cap):
            per_pair_joint_walk(states, PATTERN_CAP)
            with pytest.raises(StateCapError) as info:
                elem.is_zero()
        assert str(info.value) == (f"more than {cap} states while building the pattern "
                                   "graph of a bucket of 3 terms (3 term pairs)")
        assert elem.is_zero() is False


class TestOneTermBuckets:
    def test_no_quotient_and_no_graph(self, bundled, ternary, monkeypatch):
        """A one-term bucket has one joint state with no T positions; no
        union quotient and no pattern graph is built for it, so elements
        whose buckets all hold one term are decided without either."""
        def refuse(*args):
            raise AssertionError("built for a one-term bucket")

        monkeypatch.setattr(convalg, "_quotient", refuse)
        monkeypatch.setattr(convalg, "_explore", refuse)
        for m in [*bundled.values(), ternary]:
            d = m.alphabet_size
            for q in range(m.size):
                assert _joint_walk([m.state(q)], PATTERN_CAP) == ([], [()], [(0,) * d])
                single = indicator(m, q, (q % d,), ((q + 1) % d,))
                assert not single.is_zero(cap=1)
                assert not single.is_singular(cap=1)
            # one term per cylinder pair: every bucket holds one term
            elem = AlgebraElement(m, [
                (Scalar(F(1 + q), F(-q)), PartialMap(m.state(q % m.size), (u,), (v,)))
                for q, (u, v) in enumerate(itertools.product(range(d), repeat=2))])
            assert all(len(bucket) == 1 for bucket in _refined_groups(elem))
            assert not elem.is_zero()
            assert not elem.is_singular()


class TestCapValidation:
    """Both caps are integers of at least 1, read through operator.index;
    anything else raises ValueError before any work: the state cap as its
    block is entered, the pattern cap before any bucket, so also for an
    element with no terms or only one-term buckets."""

    @pytest.mark.parametrize("value", [0, -5, 2.5, "3", None])
    def test_bad_state_cap_rejected(self, value):
        with pytest.raises(ValueError, match="state cap must be"), state_cap(value):
            pass

    @pytest.mark.parametrize("value", [0, -5, 2.5, "3"])
    def test_bad_pattern_cap_rejected(self, grig, value):
        elements = [AlgebraElement(grig, []), indicator(grig, "b"),
                    indicator(grig, "a") + indicator(grig, "b") - indicator(grig, "c")]
        for elem in elements:
            for decide in (elem.is_zero, elem.is_singular):
                with pytest.raises(ValueError, match="pattern cap must be"):
                    decide(cap=value)

    def test_bool_caps_read_as_integers(self, grig):
        with state_cap(True), pytest.raises(StateCapError) as info:
            grig.state("a") * grig.state("b")
        assert str(info.value).startswith("more than 1 states while building")
        elem = indicator(grig, "a") + indicator(grig, "b") - 2 * indicator(grig, "c")
        with pytest.raises(PatternCapError, match="more than the cap of 1;"):
            elem.is_zero(cap=True)


def one_bucket_element(rng, m):
    """2 to 4 states of m on one cylinder pair with random coefficients,
    the last one chosen to make them sum to 0 in about a third of draws."""
    d = m.alphabet_size
    k = rng.randint(0, 2)
    u, v = random_word(rng, d, k), random_word(rng, d, k)
    states = rng.sample(range(m.size), min(m.size, rng.randint(2, 4)))
    coeffs = [random_scalar(rng) for _ in states]
    if rng.random() < 0.35:
        coeffs[-1] = -sum(coeffs[:-1], ZERO)
    return AlgebraElement(m, [(c, PartialMap(m.state(q), u, v))
                              for c, q in zip(coeffs, states)])


def bucket_total(bucket):
    return sum((c for _, c in bucket), ZERO)


def walk_verdicts(elem, cap):
    """(is_zero, is_singular) read off the whole pattern search, with no
    test of the coefficients first."""
    nonzero = [has_open for class_sums, has_open in _realizable_class_sums(elem, cap)
               if any(not s.is_zero() for s in class_sums)]
    return not nonzero, not any(nonzero)


def refusal_or(decide):
    """decide(), or (type, text) of the cap refusal it raises."""
    try:
        return decide()
    except (PatternCapError, StateCapError) as exc:
        return type(exc), str(exc)


class TestOpenPatternLemma:
    """Every bucket has a realizable pattern whose region contains a
    cylinder, and every pattern's class sums add up to the bucket's
    total.  So a bucket whose coefficients do not sum to 0 has a nonzero
    class sum on a cylinder, which is why is_zero / is_singular may answer
    False from that total without a walk."""

    def test_every_bucket_has_an_open_pattern(self, bundled, ternary):
        rng = random.Random(2626)
        named = [*bundled.values(), ternary]
        checked = 0
        for k in range(600):
            if k % 2:
                m = named[k // 2 % len(named)]
            elif k % 4 == 0:
                m = spinal_chain(rng, 2 + k // 4 % 2)
            else:
                m = random_machine(rng, 20, 2 + k // 4 % 2)
            elem = one_bucket_element(rng, m)
            buckets = _refined_groups(elem)
            if not buckets:
                continue
            (bucket,) = buckets
            items = list(_realizable_class_sums(elem, None))
            assert any(has_open for _, has_open in items), format_element(elem)
            assert all(sum(class_sums, ZERO) == bucket_total(bucket)
                       for class_sums, _ in items)
            checked += 1
        assert checked >= 550, checked


class TestTotalShortcut:
    """is_zero / is_singular answer False without a walk when a bucket's
    coefficients do not sum to 0.  The whole pattern search is the
    reference: where both decide they agree, and where only the search is
    refused the shortcut answers False."""

    CAPS = [(None, None), (1, None), (3, None), (None, 2), (None, 5)]

    def elements(self, rng, bundled, ternary):
        named = [*bundled.values(), ternary]
        for k in range(60):
            m = named[k % len(named)]
            yield random_element(m, rng, max_terms=4)
            yield one_bucket_element(rng, m)
            rm = random_machine(rng, 12, 2 + k % 2)
            yield zero_total_element(rng, rm, 2 + k % 3)
            zero = zero_by_construction(rng, rm)
            # zero-total buckets beside one bucket whose total is not 0
            yield zero + random_element(zero.machine, rng, max_terms=1, max_depth=1)
            yield zero + zero_total_element(rng, zero.machine, 2)

    def test_matches_the_walk(self, bundled, ternary):
        rng = random.Random(2627)
        tally = dict.fromkeys(["agree", "zero total", "refusal answered",
                               "one nonzero total of several"], 0)
        for elem in self.elements(rng, bundled, ternary):
            totals = [bucket_total(bucket) for bucket in _refined_groups(elem)]
            nonzero_totals = sum(not t.is_zero() for t in totals)
            for cap, states in self.CAPS:
                with state_cap(states) if states else contextlib.nullcontext():
                    walk = refusal_or(lambda: walk_verdicts(elem, cap))
                    got = (refusal_or(lambda: elem.is_zero(cap)),
                           refusal_or(lambda: elem.is_singular(cap)))
                if nonzero_totals:
                    assert got == (False, False), format_element(elem)
                    if walk == (False, False):
                        tally["agree"] += 1
                    else:  # the lemma: the search cannot decide otherwise
                        assert isinstance(walk[0], type), format_element(elem)
                        tally["refusal answered"] += 1
                    tally["one nonzero total of several"] += (
                        nonzero_totals == 1 and len(totals) > 1)
                elif isinstance(walk[0], bool):
                    assert got == walk, format_element(elem)
                    tally["zero total"] += 1
                else:  # a walk that stops at a deciding bucket is refused no later
                    assert all(v is False or v == walk for v in got), format_element(elem)
        assert min(tally.values()) >= 20, tally

    def test_buckets_are_computed_once(self, grig, monkeypatch):
        calls = []

        def spy(elem):
            calls.append(elem)
            return _refined_groups(elem)

        monkeypatch.setattr(convalg, "_refined_groups", spy)
        a, b, c = (indicator(grig, q) for q in "abc")
        for elem in (a + b - c, a + b - 2 * c, a - a):
            for decide in (elem.is_zero, elem.is_singular):
                calls.clear()
                decide()
                assert calls == [elem]


def mixed_depth_element(rng, m, gap):
    """2 or 3 random terms whose source depths differ by up to gap letters:
    the second lies 1 to gap letters below the first, and most sources
    extend the first one's, so cylinders nest and get split."""
    d = m.alphabet_size
    top = rng.randint(0, 1)
    v0 = random_word(rng, d, top)
    terms = []
    for i in range(rng.randint(2, 3)):
        n = top + (0 if i == 0 else rng.randint(1, gap) if i == 1 else rng.randint(0, gap))
        v = (v0 + random_word(rng, d, n - top) if rng.random() < 0.7
             else random_word(rng, d, n))
        terms.append((random_scalar(rng),
                      PartialMap(m.state(rng.randrange(m.size)), random_word(rng, d, n), v)))
    return AlgebraElement(m, terms)


def refinement(elem, j):
    """elem with every term cut into its d^j restrictions to the source
    words j letters longer: the same function from other terms."""
    words = list(itertools.product(range(elem.alphabet_size), repeat=j))
    return AlgebraElement(elem.machine, [(c, b.restrict_source(w))
                                         for c, b in elem.term_list() for w in words])


def placed(elem, u, v):
    """elem's terms moved onto the cylinder pair (u, v)."""
    return AlgebraElement(elem.machine, [(c, PartialMap(b.state, u, v))
                                         for c, b in elem.term_list()])


def singular_by_construction(rng, m):
    """c(q1 - q2 - q3 + q4) for four new states of m with the identity
    output row that come back to themselves after two steps along the
    last letter.  Below letter 0 they act as x, x, w, w, one step on as
    y, z, y, z (w and z as in zero_by_construction), and as r below the
    other letters, so every germ class sums to 0 except over the point
    (d-1)(d-1)..., where the four germs differ: the element is singular
    but not zero."""
    d, n = m.alphabet_size, m.size
    x, y, r = (rng.randrange(n) for _ in range(3))
    shifted = [tuple((a + 1) % d for a in m.outputs[q]) for q in (x, y)]
    w, z = n, n + 1
    first = [(a,) + (r,) * (d - 2) + (n + 6 + i,) for i, a in enumerate((x, x, w, w))]
    second = [(b,) + (r,) * (d - 2) + (n + 2 + i,) for i, b in enumerate((y, z, y, z))]
    mm = Machine(d, [*m.outputs, *shifted, *[tuple(range(d))] * 8],
                 [*m.transitions, m.transitions[x], m.transitions[y], *first, *second],
                 identity=m.identity)
    c = random_scalar(rng)
    return AlgebraElement(mm, [(c * sign, PartialMap(mm.state(n + 2 + i), (), ()))
                               for i, sign in enumerate((1, -1, -1, 1))])


def depth_gap(elem):
    depths = [len(b.source_prefix) for b in elem.terms]
    return max(depths) - min(depths) if depths else 0


def counted_walks(monkeypatch, bound):
    """Record the (state, word) of every convalg._walk call, and fail as
    soon as there are more than bound of them."""
    calls = []

    def counting(g, w):
        calls.append((g, w))
        if len(calls) > bound:
            raise AssertionError(f"more than {bound} walks")
        return _walk(g, w)

    monkeypatch.setattr(convalg, "_walk", counting)
    return calls


class TestPrefixCode:
    """Buckets come from a prefix code of the source cylinders, split only
    above deeper sources.  The common-depth buckets (_refined_groups
    above) and their whole pattern search (walk_verdicts) are the
    reference for both verdicts."""

    def test_verdicts_match_the_common_depth_reference(self, bundled, ternary):
        """Half of the elements sum to 0 bucket by bucket: a mixed-depth
        element minus its refinement by 1 to 3 letters, plus c(s - t), a
        zero quartet or a singular quartet on one cylinder pair at some
        depth.  They are walked unless that cylinder is split."""
        rng = random.Random(3301)
        named = [*bundled.values(), ternary]
        tally = dict.fromkeys(["walked", "coarser", "zero", "singular, not zero",
                               "gap 8", "gap 5"], 0)
        for k in range(400):
            if k % 4 == 0:
                m = named[k // 4 % len(named)]
            elif k % 4 == 1:
                m = spinal_chain(rng, 2 + k // 4 % 2)
            else:
                m = random_machine(rng, rng.choice((6, 12, 20)), 2 + k // 4 % 2)
            d = m.alphabet_size
            gap = 8 if d == 2 else 5
            if k % 2 == 0:
                elem = mixed_depth_element(rng, m, gap)
            else:
                kind = k // 2 % 3
                if kind == 0:
                    c = random_scalar(rng)
                    s, t = rng.sample(range(m.size), 2)
                    part = AlgebraElement(m, [(c, PartialMap(m.state(s), (), ())),
                                              (-c, PartialMap(m.state(t), (), ()))])
                else:
                    part = (zero_by_construction if kind == 1
                            else singular_by_construction)(rng, m)
                j = rng.randint(1, 3 if d == 2 else 2)
                a = mixed_depth_element(rng, part.machine, gap - j)
                n = rng.randint(0, gap)
                elem = a - refinement(a, j) + placed(part, random_word(rng, d, n),
                                                     random_word(rng, d, n))
            buckets = convalg._refined_groups(elem)
            got = (elem.is_zero(), elem.is_singular())
            assert got == walk_verdicts(elem, None), format_element(elem)
            tally["walked"] += bool(buckets) and all(
                bucket_total(bucket).is_zero() for bucket in buckets)
            tally["coarser"] += len(buckets) < len(_refined_groups(elem))
            tally["zero"] += got[0]
            tally["singular, not zero"] += got == (False, True)
            tally[f"gap {gap}"] += depth_gap(elem) == gap
        assert tally["walked"] >= 100 and tally["coarser"] >= 100, tally
        assert min(tally.values()) >= 20, tally

    def test_one_depth_gives_the_reference_buckets(self, bundled, ternary):
        rng = random.Random(3302)
        for m in [*bundled.values(), ternary]:
            d = m.alphabet_size
            for k in range(40):
                n = k % 4
                elem = AlgebraElement(m, [
                    (random_scalar(rng), PartialMap(m.state(rng.randrange(m.size)),
                                                    random_word(rng, d, n),
                                                    random_word(rng, d, n)))
                    for _ in range(rng.randint(1, 5))])
                got, expected = convalg._refined_groups(elem), _refined_groups(elem)
                assert canonical_buckets(got) == canonical_buckets(expected)

    def test_parts_are_bounded_by_the_source_lengths(self, grig, monkeypatch):
        """b on the root cylinder and c 200 letters below it: at most
        1 + (d - 1) * 200 parts, where a common depth makes 2^200 copies."""
        k = 200
        elem = parse_element(grig, f"1 b:>;1 c:{'0' * k}>{'0' * k}")
        bound = 1 + (grig.alphabet_size - 1) * k
        source = {b.state: b.source_prefix for b in elem.terms}
        calls = counted_walks(monkeypatch, len(elem.terms) * bound)
        for decide in (elem.is_zero, elem.is_singular):
            calls.clear()
            assert decide(cap=5) is False
            assert len({source[g] + w for g, w in calls}) <= bound

    def test_one_deep_depth_splits_nothing(self, grig, monkeypatch):
        """Three terms 20,000 letters deep at one depth: one walk per term
        at its own source and no split prefix (a set of every proper
        prefix would hold about 2 * 10^8 tuple slots), then one bucket
        summing to 0 is walked."""
        k = 20_000
        word = "0" * k
        elem = parse_element(grig, f"1 b:{word}>{word};1 c:{word}>{word};-2 d:{word}>{word}")
        calls = counted_walks(monkeypatch, 3)
        for decide in (elem.is_zero, elem.is_singular):
            calls.clear()
            tracemalloc.start()
            try:
                assert decide() is False
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert [w for _, w in calls] == [(), (), ()]
            assert peak < 2 ** 20, peak


def distinct_on_raw_tables(m, states):
    """Whether the states are pairwise distinct automorphisms, read off a
    quotient of m's own tables rather than canonical forms."""
    block = reference_quotient(m.outputs, m.transitions)[2]
    return len({block[q] for q in states}) == len(states)


def doubling_element(m, states, u=(), v=()):
    """sum 2^i (s_i - t_i) over the given states s_0, t_0, s_1, t_1, ...
    of m on the cylinder pair (u, v)."""
    return AlgebraElement(m, [(2 ** (i // 2) * (-1) ** i, PartialMap(m.state(q), u, v))
                              for i, q in enumerate(states)])


class TestDoublingFamily:
    """sum 2^i (s_i - t_i) over 2k distinct states on one cylinder pair
    sums to 0, so its bucket is walked.  Where s_0 and t_0 differ, the
    class of s_0 sums to 1 plus terms +-2^i with i >= 1: an odd sum.  The
    pair (s_0, t_0) is broken below any letter they move, and every joint
    state below it reaches a bottom component, so the element is neither
    zero nor singular.  Six states on machines of up to 40 states can
    walk more than 10^6 joint states, so the whole reference walk is
    compared only where it has at most REFERENCE_CAP of them."""

    REFERENCE_CAP = 5_000

    def test_never_zero_and_singular_as_the_walk(self):
        rng = random.Random(3303)
        tally = {2: 0, 3: 0, "compared": 0, "walk too large": 0}
        for j in range(120):
            d = 2 + j % 2
            k = 2 + j // 2 % 2
            n = rng.randint(8, 40)
            m = spinal_chain(rng, d) if j % 3 == 0 else random_machine(rng, n, d)
            states = rng.sample(range(m.size), min(m.size, 2 * k))
            if len(states) < 2 * k or not distinct_on_raw_tables(m, states):
                continue
            n = rng.randint(0, 2)
            elem = doubling_element(m, states, random_word(rng, d, n), random_word(rng, d, n))
            (bucket,) = convalg._refined_groups(elem)
            assert len(bucket) == 2 * k and bucket_total(bucket).is_zero()
            assert elem.is_zero() is False
            assert elem.is_singular() is False
            walk = refusal_or(lambda: walk_verdicts(elem, self.REFERENCE_CAP))
            if walk == (False, False):
                tally["compared"] += 1
            else:
                assert walk[0] is PatternCapError, format_element(elem)
                tally["walk too large"] += 1
            tally[k] += 1
        assert min(tally[2], tally[3], tally["compared"]) >= 20, tally
        assert tally["walk too large"] >= 3, tally


def doubling_family(count):
    """count doubling elements with k = 3 at the root of one seeded
    24-state ternary machine, each on six pairwise distinct states."""
    m = random_machine(random.Random(7), 24, 3)
    rng = random.Random(3304)
    out = []
    while len(out) < count:
        states = rng.sample(range(m.size), 6)
        if distinct_on_raw_tables(m, states):
            out.append(doubling_element(m, states))
    return out


class TestEarlyVerdicts:
    """The pattern search counts the joint states it enters and stops at
    the first component that answers False, so False can come under a
    cap far below the walk, while True needs every walk whole."""

    def test_doubling_family_answers_under_a_small_cap(self):
        walks_over_cap = 0
        for elem in doubling_family(40):
            assert elem.is_zero(cap=64) is False
            assert elem.is_singular(cap=64) is False
            (bucket,) = convalg._refined_groups(elem)
            try:
                _joint_walk([s for s, _ in bucket], 64)
            except PatternCapError:
                walks_over_cap += 1
        assert walks_over_cap == 40, walks_over_cap

    def test_zero_walk_is_refused_one_state_short(self):
        """A zero element's bucket is walked whole by both verdicts: True
        under a cap of its walk's joint states, refused under one less
        with the message a whole breadth-first walk gave."""
        rng = random.Random(3305)
        sizes = set()
        for j in range(30):
            d = 2 + j % 2
            m = (spinal_chain(rng, d) if j % 3 == 0
                 else random_machine(rng, rng.randint(4, 12), d))
            elem = zero_quartet(rng, m)
            (bucket,) = convalg._refined_groups(elem)
            n = len(_joint_walk([s for s, _ in bucket], PATTERN_CAP)[1])
            message = (f"pattern search on a bucket of 4 terms (6 term pairs) reached "
                       f"{n} joint states, more than the cap of {n - 1}; raise the "
                       "pattern cap to decide this element")
            for decide in (elem.is_zero, elem.is_singular):
                assert decide(cap=n) is True
                with pytest.raises(PatternCapError) as info:
                    decide(cap=n - 1)
                assert str(info.value) == message
            sizes.add(n)
        assert len(sizes) >= 10, sizes


# ---------------------------------------------------------------------------
# one-machine elements: keyed by quotient class, nothing interned


def iszero_style_texts(rng, m, count):
    """(text, zero) pairs over m's state names, built from the raw tables
    as the iszero-random benchmark builds them: distinct states on one
    cylinder pair with coefficients of positive real part (nonzero), and
    an element minus its one-letter refinement (zero by construction)."""
    d = m.alphabet_size

    def term(c, q, u, v):
        return f"{c} {m.name_of(q)}:{word_text(u)}>{word_text(v)}"

    out = []
    for _ in range(count):
        k = rng.randint(0, 2)
        u, v = random_word(rng, d, k), random_word(rng, d, k)
        states = rng.sample(range(m.size), min(m.size, rng.randint(2, 5)))
        out.append((";".join(term(f"{rng.randint(1, 5)}/{rng.randint(1, 4)}", q, u, v)
                             for q in states), False))
        base = []
        for _ in range(rng.randint(2, 5)):
            k = rng.randint(0, 1)
            base.append((rng.choice([-3, -2, -1, 1, 2, 3]), rng.randrange(m.size),
                         random_word(rng, d, k), random_word(rng, d, k)))
        refined = [(-c, m.transitions[q][x], u + (m.outputs[q][x],), v + (x,))
                   for c, q, u, v in base for x in range(d)]
        out.append((";".join(term(*t) for t in base + refined), True))
    return out


def walked_elements(rng, m):
    """One-machine elements whose buckets sum to 0, so they are walked:
    a zero quartet, a zero-by-construction quartet and a bucket of three
    distinct states summing to 0, each re-parsed from its text over a
    fresh copy of its machine."""
    out = []
    for elem in (zero_quartet(rng, m), zero_by_construction(rng, m),
                 zero_total_element(rng, m, 3)):
        copy = parse_machine(format_machine(elem.machine))
        out.append(parse_element(copy, format_element(elem)))
    return out


def walkable_machine(rng, k):
    """A spinal chain or a small random machine over 2 + k % 2 letters with
    at least three distinct states, as walked_elements needs."""
    d = 2 + k % 2
    while True:
        m = (spinal_chain(rng, d) if k % 3 == 0
             else random_machine(rng, rng.randint(6, 20), d))
        if minimize(m)[0].size >= 3:
            return m


def graph_sizes_and_outcomes(elem, monkeypatch):
    """The sizes of the pattern graphs is_zero and is_singular explore,
    and the outcome of each (verdict or refusal text) under state caps
    around those sizes and under small pattern caps."""
    sizes = []

    def spy(d, starts, out_fn, trans_fn, cap, error):
        got = _explore(d, starts, out_fn, trans_fn, cap, error)
        sizes.append(len(got[0]))
        return got

    with monkeypatch.context() as patch:
        patch.setattr(convalg, "_explore", spy)
        verdicts = (elem.is_zero(), elem.is_singular())
    outcomes = []
    for cap in sorted({2, *sizes, *(n - 1 for n in sizes), *(n + 1 for n in sizes)}):
        with state_cap(max(cap, 1)):
            for pattern_cap in (1, 2, 5, None):
                for decide in (elem.is_zero, elem.is_singular):
                    outcomes.append(refusal_or(lambda: decide(cap=pattern_cap)))
    return verdicts, sizes, outcomes


class TestOneMachineColdPath:
    """Every term of a parsed element lies in its machine's quotient, so
    parsing and deciding it key states by quotient class and intern no
    machine; verdicts, pattern graphs and refusals are those of a run
    keyed by canonical pairs."""

    def test_parse_and_verdicts_intern_nothing(self):
        rng = random.Random(3801)
        tally = {True: 0, False: 0}
        for k in range(16):
            d = 2 + k % 2
            text = format_machine(random_machine(rng, (10, 20, 40)[k % 3], d))
            m = parse_machine(text)
            cases = iszero_style_texts(rng, m, 4)
            interned = len(mealy._interned)
            got = []
            for elem_text, zero in cases:
                elem = parse_element(m, elem_text)
                got.append((elem, zero, elem.is_zero(), elem.is_singular()))
            assert len(mealy._interned) == interned, text
            for elem, zero, is_zero, is_singular in got:
                assert is_zero == zero
                assert (is_zero, is_singular) == walk_verdicts(elem, None)
                tally[zero] += 1
        assert min(tally.values()) >= 60, tally

    def test_walked_buckets_intern_nothing(self):
        rng = random.Random(3802)
        walked = 0
        for k in range(18):
            for elem in walked_elements(rng, walkable_machine(rng, k)):
                interned = len(mealy._interned)
                verdicts = (elem.is_zero(), elem.is_singular())
                assert len(mealy._interned) == interned
                assert verdicts == walk_verdicts(elem, None)
                walked += all(bucket_total(b).is_zero()
                              for b in convalg._refined_groups(elem))
        assert walked >= 40, walked

    def test_pattern_graphs_match_canonical_keys(self, monkeypatch):
        """The graph sizes, verdicts and refusal texts of a one-machine
        element are those of a run keyed by canonical pairs."""
        rng = random.Random(3803)
        refusals = graphs = 0
        for k in range(12):
            for elem in walked_elements(rng, walkable_machine(rng, k)):
                interned = len(mealy._interned)
                by_class = graph_sizes_and_outcomes(elem, monkeypatch)
                assert len(mealy._interned) == interned
                with monkeypatch.context() as patch:
                    patch.setattr(convalg, "_state_key", lambda states: _canonical_pair)
                    assert graph_sizes_and_outcomes(elem, monkeypatch) == by_class
                graphs += len(by_class[1])
                refusals += sum(isinstance(o, tuple) for o in by_class[2])
        assert graphs >= 50 and refusals >= 200, (graphs, refusals)

    def test_copies_of_one_text_merge_and_decide(self):
        """Terms parsed over two copies of one machine text merge as equal
        shifts and are decided through canonical pairs."""
        rng = random.Random(3804)
        tally = {True: 0, False: 0}
        for k in range(12):
            d = 2 + k % 2
            text = format_machine(random_machine(rng, (10, 20)[k % 2], d))
            one, two = parse_machine(text), parse_machine(text)
            for elem_text, zero in iszero_style_texts(rng, one, 3):
                a, b = parse_element(one, elem_text), parse_element(two, elem_text)
                both = AlgebraElement(one, a.term_list() + b.term_list())
                assert both == a.scale(2) and len(both.terms) == len(a.terms)
                # each term from the two copies in turn
                mixed = AlgebraElement(one, [
                    (c, p if i % 2 else q)
                    for i, ((c, p), (_, q)) in enumerate(zip(a.term_list(), b.term_list()))])
                assert mixed == a
                verdicts = (mixed.is_zero(), mixed.is_singular())
                assert verdicts == walk_verdicts(a, None) and verdicts[0] == zero
                tally[zero] += 1
        assert min(tally.values()) >= 30, tally


def reference_parse_shift(machine, text):
    """parse_shift without its memo: the parser as it stood before
    parsed shifts were memoised."""
    shift_text = text.strip()
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
        return PartialMap(state, u, v, expr_text.strip())
    except ElementParseError:
        raise
    except (ParseError, DomainError, ValueError) as exc:
        raise ElementParseError(f"shift {excerpt(shift_text)}: {exc}") from exc


def random_shift_text(rng, machine):
    d = machine.alphabet_size
    n = rng.randint(0, 2)
    u, v = ("".join(map(str, random_word(rng, d, n))) for _ in range(2))
    expr = random_state_expr(rng, list(machine.names), d)
    return rng.choice(["", " "]) + f"{expr}:{u}>{v}" + rng.choice(["", "\n"])


def fresh_copy(machine):
    """The machine parsed again from its text, with cold memos."""
    return parse_machine(format_machine(machine))


def stored_shifts(machine):
    """The parsed shifts memoised on machine, by stripped text."""
    return machine._memo.get("shift", {})


def shift_outcome(cap, parse):
    """(PartialMap, label) parse() returns under the cap, or the text of
    the StateCapError it raises."""
    with state_cap(cap):
        try:
            pmap = parse()
        except StateCapError as exc:
            return str(exc)
    return pmap, pmap.label


class TestShiftMemo:
    """parse_shift is memoised per machine and stripped text; a hit gives
    what a fresh parse gives, and is refused under exactly its caps."""

    TEXTS_PER_MACHINE = 40

    def texts(self, rng, machine):
        return [random_shift_text(rng, machine) for _ in range(self.TEXTS_PER_MACHINE)]

    def test_cold_and_warm_match_the_reference(self, bundled, ternary):
        rng = random.Random(1818)
        seen = set()
        for m in [*bundled.values(), ternary]:
            m = fresh_copy(m)
            for text in self.texts(rng, m):
                seen.update(c for c in "*^|(" if c in text)
                expected = reference_parse_shift(m, text)
                cold = parse_shift(m, text)
                stored = parse_shift(m, text)  # the second sighting stores it
                warm = parse_shift(m, text)
                assert warm is stored
                for pmap in (cold, warm):
                    assert (pmap, pmap.label) == (expected, expected.label), text
                    assert pmap.state.machine is expected.state.machine
                assert stored_shifts(m)[text.strip()][1] is warm
        assert seen == set("*^|(")

    def test_warm_hit_refused_like_a_cold_parse(self, bundled, ternary):
        """Under a cap just below the entry's explored count, and at it,
        a hit gives what parsing the text on a fresh copy of the machine
        gives, with no product or inverse memoised anywhere."""
        rng = random.Random(1819)
        checked = refused = 0
        for m in [*bundled.values(), ternary]:
            for text in self.texts(rng, m):
                warm_machine = fresh_copy(m)
                parse_shift(warm_machine, text)
                parse_shift(warm_machine, text)  # the second sighting stores it
                explored = stored_shifts(warm_machine)[text.strip()][0]
                for cap in sorted(c for c in {1, explored - 1, explored} if c > 0):
                    warm = shift_outcome(cap, lambda: parse_shift(warm_machine, text))
                    pop_memos("compose", "inverse")
                    cold_machine = fresh_copy(m)
                    cold = shift_outcome(cap, lambda: parse_shift(cold_machine, text))
                    pop_memos("compose", "inverse")
                    reference = shift_outcome(
                        cap, lambda: reference_parse_shift(fresh_copy(m), text))
                    assert warm == cold == reference, (text, cap)
                    refused += isinstance(warm, str)
                    checked += 1
        assert refused >= 20 and checked >= 100, (refused, checked)

    def test_entry_keeps_at_most_one_record(self, bundled, ternary):
        """A stored shift keeps the states its expression's exploration
        reached: a hit is refused one below that count, with the text
        naming the expression, leaves the entry as it was, and is
        accepted at the count.  One name with restrictions explores
        nothing and keeps 0."""
        rng = random.Random(1820)
        recorded = 0
        for m in [*bundled.values(), ternary]:
            m = fresh_copy(m)
            for text in [*self.texts(rng, m), f"{m.names[0]}|0:>"]:
                parse_shift(m, text)
                cold = parse_shift(m, text)  # the second sighting stores it
                entry = stored_shifts(m)[text.strip()]
                explored = entry[0]
                expr = text.strip().partition(":")[0]
                if explored > 1:
                    with state_cap(explored - 1), pytest.raises(StateCapError) as info:
                        parse_shift(m, text)
                    assert str(info.value) == (
                        f"more than {explored - 1} states while building the state "
                        f"expression {excerpt(expr)}")
                    assert stored_shifts(m)[text.strip()] is entry
                with state_cap(max(explored, 1)):
                    assert parse_shift(m, text) is cold
                recorded += explored > 0
            assert explored == 0
        assert recorded >= 50, recorded

    def test_free_cancellation_counts_nothing(self, grig, lamp):
        """A shift whose expression cancels freely is the identity and keeps
        0 explored, like one name with restrictions."""
        for m, text in [(grig, "a*b*b^-1*a^-1:0>1"), (lamp, "p*q*q^-1*p^-1:>"),
                        (grig, "b|0:>")]:
            m = fresh_copy(m)
            with state_cap(1):
                parse_shift(m, text)
                pmap = parse_shift(m, text)  # the second sighting stores it
            assert stored_shifts(m)[text][0] == 0
            assert pmap == reference_parse_shift(m, text)

    def test_refused_text_is_not_stored(self, grig):
        m = fresh_copy(grig)
        text = "a*b*a*c:>"
        with state_cap(3), pytest.raises(StateCapError) as info:
            parse_shift(m, text)
        assert str(info.value) == ("more than 3 states while building the state "
                                   "expression 'a*b*a*c'")
        assert text not in stored_shifts(m)
        assert parse_shift(m, text) == reference_parse_shift(m, text)
        assert text in stored_shifts(m)

    @pytest.mark.parametrize("text", [
        "zz:>", "a:2>0", "a:0>00", "a", "a:>>", "(a:>", "a*:>", "a|:>", "a^-1|x:>",
        "a:²>", " b *  zz^-1 :1>0",
    ])
    def test_failing_text_raises_the_same_error_and_is_not_stored(self, grig, text):
        m = fresh_copy(grig)
        messages = []
        for _ in range(3):
            with pytest.raises(ElementParseError) as info:
                parse_shift(m, text)
            messages.append(str(info.value))
            assert stored_shifts(m) == {}
        with pytest.raises(ElementParseError) as info:
            reference_parse_shift(m, text)
        assert messages == [str(info.value)] * 3

    def test_outer_whitespace_shares_one_entry(self, grig):
        m = fresh_copy(grig)
        parse_shift(m, "b*c :0>1")
        first = parse_shift(m, " b*c :0>1")  # the second sighting stores it
        assert parse_shift(m, "  b*c :0>1\n") is first
        assert first.label == "b*c"
        assert list(stored_shifts(m)) == ["b*c :0>1"]

    def test_memo_keeps_at_most_the_limit(self, grig):
        """Past the limit a new text is parsed as before but not stored,
        and the stored entries still hit."""
        m = fresh_copy(grig)
        limit = mealy._SHIFT_MEMO_LIMIT
        texts = [f"b*a:{w:b}>{w:b}" for w in range(2 * limit)]
        for text in texts:
            expected = reference_parse_shift(m, text)
            parsed = parse_shift(m, text)
            assert (parsed, parsed.label) == (expected, expected.label)
            assert len(stored_shifts(m)) <= limit
        assert list(stored_shifts(m)) == texts[:limit]
        assert parse_shift(m, texts[0]) is stored_shifts(m)[texts[0]][1]
        assert parse_shift(m, texts[-1]) is not parse_shift(m, texts[-1])

    def test_warm_hit_in_a_thread_keeps_its_own_cap(self, grig):
        m = fresh_copy(grig)
        text = "(a*b)^-1*c:1>0"
        parse_shift(m, text)
        expected = parse_shift(m, text)  # the second sighting stores it
        outcomes = {}

        def capped():
            outcomes["capped"] = shift_outcome(2, lambda: parse_shift(m, text))

        def default():
            outcomes["default"] = parse_shift(m, text)

        workers = [threading.Thread(target=capped), threading.Thread(target=default)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
            assert not w.is_alive()
        assert outcomes == {
            "capped": "more than 2 states while building the state expression "
                      "'(a*b)^-1*c'",
            "default": expected,
        }
        assert outcomes["default"] is expected


def live_partial_maps():
    gc.collect()
    return sum(type(o) is PartialMap for o in gc.get_objects())


def parse_outcome(parse):
    """(PartialMap, label) parse() returns, or the type and text of the
    ParseError or StateCapError it raises."""
    try:
        pmap = parse()
    except (ParseError, StateCapError) as exc:
        return type(exc), str(exc)
    return pmap, pmap.label


class TestShiftAdmission:
    """A shift text is stored on its second sighting: the first is parsed
    without being stored and leaves a None placeholder under its key."""

    def machines(self, grig):
        """Fresh copies of grig and of a seeded random machine, named."""
        return [fresh_copy(grig), fresh_copy(random_machine(random.Random(4001), 12, 2))]

    def test_first_sighting_keeps_only_the_key(self, grig):
        rng = random.Random(4002)
        for m in self.machines(grig):
            text = random_shift_text(rng, m)
            before = live_partial_maps()
            first = parse_shift(m, text)
            assert (first, first.label) == parse_outcome(
                lambda: reference_parse_shift(fresh_copy(m), text))
            del first
            assert stored_shifts(m) == {text.strip(): None}
            assert live_partial_maps() == before
            second = parse_shift(m, text)
            entry = stored_shifts(m)[text.strip()]
            assert isinstance(entry[0], int) and entry[1] is second
            assert parse_shift(m, text) is second
            assert stored_shifts(m)[text.strip()] is entry

    def test_errors_and_refusals_leave_no_key(self, grig):
        m = fresh_copy(grig)
        for text in ("a:2>0", "zz:>", "a*:>"):
            with pytest.raises(ElementParseError):
                parse_shift(m, text)
        text = "a*b*a*c:>"
        with state_cap(3), pytest.raises(StateCapError):
            parse_shift(m, text)
        assert stored_shifts(m) == {}
        parse_shift(m, text)
        with state_cap(3), pytest.raises(StateCapError):
            parse_shift(m, text)  # a refused second sighting keeps the placeholder
        assert stored_shifts(m) == {text: None}

    def test_stored_entry_survives_a_racing_first_sighting(self, grig, monkeypatch):
        """A first sighting paused in its parse while another thread stores
        the entry leaves that entry in place."""
        m = fresh_copy(grig)
        text = "(a*b)^-1*c:1>0"
        started, release = threading.Event(), threading.Event()
        parse = convalg._parse_shift

        def paused(machine, shift_text):
            if threading.current_thread().name == "first":
                started.set()
                assert release.wait(timeout=60)
            return parse(machine, shift_text)

        monkeypatch.setattr(convalg, "_parse_shift", paused)
        outcome = {}
        worker = threading.Thread(target=lambda: outcome.update(first=parse_shift(m, text)),
                                  name="first")
        worker.start()
        try:
            assert started.wait(timeout=60)
            parse_shift(m, text)
            stored = parse_shift(m, text)
            entry = stored_shifts(m)[text]
        finally:
            release.set()
            worker.join(timeout=60)
        assert not worker.is_alive()
        assert stored_shifts(m)[text] is entry and entry[1] is stored
        assert outcome["first"] == stored and outcome["first"] is not stored
        assert parse_shift(m, text) is stored

    def test_placeholders_count_toward_the_limit(self, grig, monkeypatch):
        monkeypatch.setattr(mealy, "_SHIFT_MEMO_LIMIT", 4)
        m = fresh_copy(grig)
        texts = [f"b*a:{w:b}>{w:b}" for w in range(4)]
        for text in texts:
            parse_shift(m, text)
        assert stored_shifts(m) == dict.fromkeys(texts)
        late = "c*d:0>0"
        assert parse_shift(m, late) is not parse_shift(m, late)
        assert late not in stored_shifts(m)
        stored = parse_shift(m, texts[0])
        assert stored_shifts(m)[texts[0]][1] is stored
        assert list(stored_shifts(m)) == texts

    def test_one_hit_texts_keep_no_partial_map(self, grig):
        """Over 200 seeded texts per machine, each seen once and some
        malformed or refused by a small cap, parse results are the
        reference's and the memo ends with placeholders only."""
        rng = random.Random(4003)
        malformed = [lambda t: t.replace(":", "", 1), lambda t: t.replace(">", ">>", 1),
                     lambda t: "zz*" + t, lambda t: t.replace(":", ":2", 1)]
        for m in self.machines(grig):
            other = fresh_copy(m)
            before = live_partial_maps()
            seen, outcomes = set(), []
            while len(seen) < 200:
                text = random_shift_text(rng, m)
                if rng.random() < 0.2:
                    text = rng.choice(malformed)(text)
                if text.strip() in seen:
                    continue
                seen.add(text.strip())
                with state_cap(rng.choice([2, 8, 1000])):
                    got = parse_outcome(lambda: parse_shift(m, text))
                    expected = parse_outcome(lambda: reference_parse_shift(other, text))
                assert got == expected, text
                outcomes.append(got[0])
            kinds = {o if isinstance(o, type) else PartialMap for o in outcomes}
            assert kinds == {PartialMap, ElementParseError, StateCapError}, kinds
            del got, expected, outcomes
            assert set(stored_shifts(m).values()) == {None}
            assert live_partial_maps() == before


# ---------------------------------------------------------------------------
# memoised term products against bisection_product


def reference_bisection_product(b1, b2):
    """bisection_product as it stood before term products were memoised:
    the restricted operand built as a checked PartialMap, then the piece."""
    v1, u2 = b1.source_prefix, b2.range_prefix
    if len(u2) >= len(v1):
        if u2[:len(v1)] != v1:
            return []
        w = u2[len(v1):]
        left = PartialMap(b1.state.restrict(w), b1.range_prefix + b1.state.apply_word(w),
                          v1 + w, restrict_label(b1.label, w))
        return [PartialMap(left.state * b2.state, left.range_prefix, b2.source_prefix,
                           compose_labels(left.label, b2.label))]
    if v1[:len(u2)] != u2:
        return []
    w = b2.state.inverse().apply_word(v1[len(u2):])
    right = PartialMap(b2.state.restrict(w), b2.range_prefix + b2.state.apply_word(w),
                       b2.source_prefix + w, restrict_label(b2.label, w))
    return [PartialMap(b1.state * right.state, b1.range_prefix, right.source_prefix,
                       compose_labels(b1.label, right.label))]


def reference_product(a, b):
    """AlgebraElement.__mul__ before term products were memoised."""
    return AlgebraElement(a.machine, [(c1 * c2, piece)
                                      for b1, c1 in a.terms.items()
                                      for b2, c2 in b.terms.items()
                                      for piece in reference_bisection_product(b1, b2)])


def labelled(elem):
    """The terms of elem in order, each with its label."""
    return [(b, b.label, c) for b, c in elem.terms.items()]


def labelled_element(rng, machine, max_terms=3):
    """A random element whose terms carry expression labels, some none."""
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        pmap = parse_shift(machine, random_shift_text(rng, machine))
        if rng.random() < 0.25:
            pmap = PartialMap(pmap.state, pmap.range_prefix, pmap.source_prefix)
        terms.append((random_scalar(rng), pmap))
    return AlgebraElement(machine, terms)


def stored_pieces(b1, b2):
    """The memo entry (explored, pieces) of b1 after b2, or None, on the
    minimal machine of b1's state."""
    a, b = b1.state, b2.state
    return a.machine._memo.get(("times", a.state, b1.range_prefix, b1.source_prefix,
                                b1.label, b.machine, b.state, b2.range_prefix,
                                b2.source_prefix, b2.label))


def product_outcome(cap, a, b):
    """labelled(a * b) under the cap, or the text of its StateCapError."""
    with state_cap(cap):
        try:
            return labelled(a * b)
        except StateCapError as exc:
            return str(exc)


class TestProductMemo:
    """a * b memoises the pieces of each pair of terms on the minimal
    machine of the left term's state; products equal the reference, labels included, and act warm
    as they act cold under every cap."""

    def test_products_match_the_reference(self, bundled, ternary):
        rng = random.Random(3105)
        pieces = 0
        for k in range(240):
            m = [*bundled.values(), ternary][k % 4]
            a, b = labelled_element(rng, m), labelled_element(rng, m)
            expected = labelled(reference_product(a, b))
            assert labelled(a * b) == expected  # cold or warm, as earlier pairs left it
            assert labelled(a * b) == expected  # warm
            for b1 in a.terms:
                for b2 in b.terms:
                    got = bisection_product(b1, b2)
                    assert [(p, p.label) for p in got] == [
                        (p, p.label) for p in reference_bisection_product(b1, b2)]
                    pieces += len(got)
        assert pieces >= 400, pieces

    def test_labels_come_from_the_terms(self, grig):
        """Products of equal terms under different labels keep their own
        labels."""
        right = parse_element(grig, "1 a:10>00")
        for text, label in [("1 b*c:0>1", "(b*c)|0*a"), ("1 d:0>1", "d|0*a"),
                            ("1 (c*b)^-1:0>1", "(c*b)^-1|0*a")]:
            (pmap,) = (parse_element(grig, text) * right).terms
            assert pmap.label == label
        left = PartialMap(grig.state("d"), (0,), (1,))
        (pmap,) = (AlgebraElement(grig, [(1, left)]) * right).terms
        assert pmap.label is None

    def test_warm_acts_like_cold_under_every_cap(self, bundled, ternary):
        rng = random.Random(3106)
        checked = refused = 0
        for k in range(120):
            m = [*bundled.values(), ternary][k % 4]
            a = labelled_element(rng, m, max_terms=1)
            b = labelled_element(rng, m, max_terms=1)
            (b1,), (b2,) = a.terms, b.terms
            a * b
            explored, pieces = stored_pieces(b1, b2)
            for cap in sorted(c for c in {1, explored - 1, explored, explored + 1} if c > 0):
                a * b
                warm = product_outcome(cap, a, b)
                pop_memos("compose", "inverse", "times")
                cold = product_outcome(cap, a, b)
                assert warm == cold == product_outcome(cap, a, b), (a, b, cap)
                if isinstance(warm, str):
                    refused += 1
                    assert cap < explored
                elif pieces:
                    a * b
                    (got,) = (a * b).terms
                    assert got is stored_pieces(b1, b2)[1][0]
                checked += 1
        assert refused >= 30 and checked >= 200, (refused, checked)


# ---------------------------------------------------------------------------
# term labels from one memoised dict


def reference_term_label(machine, pmap):
    """_term_label before it was memoised: a scan over the machine's states."""
    for q in range(machine.size):
        if machine.state(q) == pmap.state:
            return machine.name_of(q)
    if pmap.label is not None:
        return pmap.label
    raise DomainError("term state has no printable name; supply a label")


def format_or_error(elem):
    try:
        return format_element(elem)
    except DomainError as exc:
        return f"DomainError: {exc}"


class TestTermLabel:
    def test_format_matches_the_scan(self, bundled, ternary, monkeypatch):
        """Byte-identical text on products of labelled elements, and on a
        machine that names one automorphism twice (the least name wins)."""
        twice = parse_machine("alphabet 2\nstate a perm 1 0 to e e\n"
                              "state b perm 1 0 to e e\nstate c perm 0 1 to a b\n")
        rng = random.Random(3107)
        elems = []
        for k in range(120):
            m = [*bundled.values(), ternary, twice][k % 5]
            a, b = labelled_element(rng, m), labelled_element(rng, m)
            elems += [a, a * b, b.adjoint()]
        texts = [format_or_error(e) for e in elems]
        monkeypatch.setattr(convalg, "_term_label", reference_term_label)
        assert texts == [format_or_error(e) for e in elems]
        assert sum(t.startswith("DomainError") for t in texts) >= 20
        assert any(" a:" in t for t in texts if "b:" not in t)

    def test_unnamed_state_without_label_is_refused(self, grig):
        (pmap,) = (parse_element(grig, "1 b*c:>") * parse_element(grig, "1 c:>")).terms
        assert (pmap.label, convalg._term_label(grig, pmap)) == ("b*c*c", "b")
        odd = PartialMap(parse_state_expr(grig, "a*b"), (), ())
        with pytest.raises(DomainError, match="no printable name"):
            convalg._term_label(grig, odd)


# ---------------------------------------------------------------------------
# machines over more than ten letters, whose words have no word text


def wide_element(rng, m, named):
    """A seeded element of m whose prefixes reach letters past 9: its
    shifts are labelled with their states' names if named, else carry no
    label.  The same rng state gives the same element either way."""
    d = m.alphabet_size
    terms = []
    for _ in range(rng.randint(1, 3)):
        q, k = rng.randrange(m.size), rng.randint(0, 2)
        u, v = random_word(rng, d, k), random_word(rng, d, k)
        shift = indicator(m, q if named else m.state(q), u, v)
        terms.append(shift.scale(random_scalar(rng)))
    return sum(terms[1:], terms[0])


def refinement_zero(m, pmap):
    """pmap minus its refinements below every letter: zero as a function."""
    return AlgebraElement(m, [(1, pmap)] + [(-1, pmap.restrict_source((x,)))
                                            for x in range(m.alphabet_size)])


class TestWideAlphabet:
    def test_labels_never_break_arithmetic(self):
        """On 11- and 12-letter machines the labelled elements compute
        what the unlabelled ones do: a label below a word with a letter
        past 9 is None, and every repr falls back to letter tuples."""
        from germtrace import rep_matrix

        rng = random.Random(4101)
        decided = 0
        for d in (11, 12):
            for _ in range(4):
                m = random_machine(rng, 4, d)
                for _ in range(6):
                    seed = rng.random()
                    a, a0 = (wide_element(random.Random(seed), m, named) for named in (1, 0))
                    seed = rng.random()
                    b, b0 = (wide_element(random.Random(seed), m, named) for named in (1, 0))
                    assert a == a0 and b == b0
                    assert any(p.label is not None for p in a.terms)
                    prod, prod0 = a * b, a0 * b0
                    assert prod == prod0 and a.adjoint() == a0.adjoint()
                    (_, p), (_, p0) = a.term_list()[0], a0.term_list()[0]
                    w = (d - 1, rng.randrange(d))
                    assert p.restrict_source(w) == p0.restrict_source(w)
                    zero, zero0 = refinement_zero(m, p), refinement_zero(m, p0)
                    assert zero.is_zero() and zero0.is_zero()
                    assert prod.is_zero() == prod0.is_zero()
                    assert prod.is_singular() == prod0.is_singular()
                    decided += not prod.is_zero()
                    x = Point(p.source_prefix + (d - 1,), (10,))
                    basis = [p.germ_at(x), unit_germ(d, x)]
                    rep, rep0 = (rep_matrix(e, x, basis) for e in (prod, prod0))
                    assert rep.entries == rep0.entries
                    for obj in (a, a0, prod, prod0, zero, p, p.restrict_source(w),
                                basis[0], basis[0].inverse(), x, rep.labels):
                        assert isinstance(repr(obj), str)
        assert decided >= 10, decided
        assert repr(Point((10, 2), (11,))) == "(10, 2)((11,))"
        assert restrict_label("a", (10,)) is None and restrict_label("a", (9,)) == "a|9"

# The parsers as they stood before a lone name skipped the tokenizer,
# parse_word range-checked with max and _parse_shift built its shift from
# the words it had checked, kept as references for the shorter paths.

def per_letter_parse_word(text, alphabet_size):
    """mealy.parse_word with every letter checked by check_word."""
    text = text.strip()
    if text and not mealy._is_numeral(text):
        raise ValueError(f"bad word {excerpt(text)}")
    return mealy.check_word(map(int, text), alphabet_size)


def tokenized_parse_state_expr(machine, text):
    """mealy.parse_state_expr with every text, a lone name too, parsed
    through _ExpressionParser."""
    parser = mealy._ExpressionParser(machine, text)
    try:
        value = parser.expr()
    except RecursionError:
        parser.fail("parentheses nested too deeply")
    if parser.i < len(parser.tokens) - 1:
        parser.fail(f"trailing input at column {parser.column()}")
    if not isinstance(value, tuple):
        return mealy.Aut(machine, value)
    if not value:
        return mealy.identity_aut(machine.alphabet_size)
    return mealy._memoised(mealy._parse_memo(parser.classes[0], "word", value), value,
                           mealy._derive, machine.alphabet_size, value, parser.outputs,
                           parser.section, lambda: f"the state expression {excerpt(text)}")


def checked_parse_shift(machine, shift_text):
    """convalg._parse_shift with the references above, building its shift
    through PartialMap, which checks both words again."""
    if ":" not in shift_text:
        raise ElementParseError(f"shift {excerpt(shift_text)}: missing ':'")
    expr_text, _, words = shift_text.partition(":")
    if words.count(">") != 1:
        raise ElementParseError(f"shift {excerpt(shift_text)}: needs exactly one '>'")
    u_text, _, v_text = words.partition(">")
    try:
        state = tokenized_parse_state_expr(machine, expr_text)
        u = per_letter_parse_word(u_text, machine.alphabet_size)
        v = per_letter_parse_word(v_text, machine.alphabet_size)
        return PartialMap(state, u, v, expr_text.strip())
    except (ParseError, DomainError, ValueError) as exc:
        raise ElementParseError(f"shift {excerpt(shift_text)}: {exc}") from exc


def parse_result(parse, *args):
    """What parse(*args) gives, as plain values, or its exception's type
    and text."""
    try:
        value = parse(*args)
    except Exception as exc:  # the type and text are what is compared
        return type(exc), str(exc)
    if isinstance(value, mealy.Aut):
        return value.machine, value.state
    if isinstance(value, PartialMap):
        return (value.state.machine, value.state.state, value.range_prefix,
                value.source_prefix, value.label, hash(value))
    return value


PARSE_WORDS = ["", "0", "01", " 10 ", "\t1\n", "0 1", "²", "0²", "٣", "1٣", "2", "02",
               "12", "9", "a", "-1", "+1", "0 "]
PARSE_EXPRS = ["", " ", "b", " b ", "\tb\n", "b ", "e", " e", "zz", " zz ", "_x",
               "(b)", "b*e", "b|1", "b|²", "b^-1", "b c", "1b", "b*", "s", "t|2"]


def parse_texts(rng, machine):
    """Shift texts over machine: the words and expressions above, the
    machine's own names and random expressions, mixed by rng."""
    names = list(machine.names)
    d = machine.alphabet_size
    exprs = PARSE_EXPRS + names + [f" {n} " for n in names]
    for _ in range(400):
        expr = (random_state_expr(rng, names, d) if rng.random() < 0.2
                else rng.choice(exprs))
        u, v = rng.choice(PARSE_WORDS), rng.choice(PARSE_WORDS)
        if rng.random() < 0.4:
            v = "".join(map(str, random_word(rng, d, len(u.strip()))))
        yield rng.choice([f"{expr}:{u}>{v}", f"{expr}:{u}>{v}", f"{expr}{u}>{v}",
                          f"{expr}:{u}>{v}>"])


class TestParsePaths:
    """parse_word, parse_state_expr and _parse_shift give what the
    references above give, values or exception type and text, over
    non-ASCII digits, letters past the alphabet, inner spaces, prefixes
    of unequal length, unknown and space-padded names and e."""

    def test_words_match_the_per_letter_check(self):
        for d in (2, 3, 10):
            for text in PARSE_WORDS:
                assert parse_result(parse_word, text, d) == parse_result(
                    per_letter_parse_word, text, d), (text, d)
        for text in ("²", "٣", "1٣"):
            assert parse_result(parse_word, text, 2) == (
                ValueError, f"bad word {excerpt(text.strip())}")
        assert parse_result(parse_word, "02", 2) == (
            ValueError, "letter 2 outside alphabet of size 2")

    def test_expressions_match_the_tokenizer(self, grig, ternary):
        for m in (grig, ternary):
            for text in PARSE_EXPRS + list(m.names):
                assert parse_result(parse_state_expr, m, text) == parse_result(
                    tokenized_parse_state_expr, m, text), text
        assert parse_result(parse_state_expr, grig, " zz ") == (
            DomainError, "unknown state name 'zz'")

    def test_lone_name_equals_its_other_spellings(self, grig, ternary):
        for m, name in ((grig, "b"), (ternary, "t")):
            lone = parse_state_expr(m, name)
            assert (lone.machine, lone.state) == (m, m.index_of(name))
            assert lone == parse_state_expr(m, f"({name})") == parse_state_expr(
                m, f"{name}*e") == parse_state_expr(m, f"\t{name} ")

    def test_shifts_match_the_checked_build(self, grig, ternary):
        rng = random.Random(3606)
        kinds = set()
        for m in (grig, ternary):
            for text in parse_texts(rng, m):
                shift_text = text.strip()
                got = parse_result(convalg._parse_shift, m, shift_text)
                assert got == parse_result(checked_parse_shift, m, shift_text), text
                kinds.add(got[0] if isinstance(got[0], type) else "shift")
                if isinstance(got[0], type):
                    kinds.add(got[1].partition(": ")[2].split(" ")[0])
        assert {"shift", ElementParseError, "range", "bad", "letter",
                "unknown"} <= kinds, kinds
