"""Shift pieces, their composition, germs and the groupoid laws."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from germtrace import (
    INTERIOR,
    DomainError,
    Germ,
    PartialMap,
    Point,
    bisection_product,
    essential_freeness_report,
    fixed_walk,
    format_machine,
    isotropy_germs_at,
    minimize,
    parse_machine,
    parse_point,
    parse_shift,
    unit_germ,
)

import germtrace.germs as germs_module
import germtrace.points as points_module
from germtrace import mealy
from germtrace.mealy import Aut, _canonical_pair, _state_hashes
from germtrace.points import state_lasso

from conftest import (apply_point, fixes_base, is_identity_map, is_unit, random_machine,
                      random_state_expr, random_word)


def shift(machine, name, u=(), v=()):
    return PartialMap(machine.state(name), tuple(u), tuple(v), label=name)


class TestPartialMap:
    def test_rejects_unequal_prefixes(self, grig):
        with pytest.raises(DomainError):
            PartialMap(grig.state("b"), (0,), ())

    def test_measures(self, grig):
        pm = shift(grig, "b", (0, 1), (1, 1))
        assert pm.source_measure() == Fraction(1, 4)
        assert pm.range_measure() == Fraction(1, 4)
        assert pm.depth == 2

    def test_apply(self, grig):
        pm = shift(grig, "a", (0,), (1,))
        assert pm.apply((1, 0, 1)) == (0, 1, 1)  # 1.01 -> 0.a(01) = 0.11
        with pytest.raises(DomainError):
            pm.apply((0, 0))

    def test_apply_point(self, grig):
        pm = shift(grig, "a", (0,), (1,))
        assert apply_point(pm, parse_point("1(0)", 2)) == parse_point("01(0)", 2)

    def test_restrict_source(self, grig):
        pm = shift(grig, "d")
        finer = pm.restrict_source((0,))
        assert finer.source_prefix == (0,)
        assert finer.range_prefix == (0,)
        assert finer.state.is_identity()  # d acts trivially below 0
        deeper = shift(grig, "b", (1,), (0,)).restrict_source((1,))
        assert deeper.source_prefix == (0, 1)
        assert deeper.range_prefix == (1, 1)  # b fixes the letter 1
        assert deeper.state == grig.state("c")

    def test_inverse(self, grig):
        pm = shift(grig, "a", (0,), (1,))
        inv = pm.inverse()
        assert inv.source_prefix == (0,)
        assert inv.range_prefix == (1,)
        assert inv.apply(pm.apply((1, 1, 0))) == (1, 1, 0)

    def test_identity_map_detection(self, grig):
        assert is_identity_map(shift(grig, "e", (0, 1), (0, 1)))
        assert not is_identity_map(shift(grig, "e", (0,), (1,)))
        assert not is_identity_map(shift(grig, "b"))
        assert is_identity_map(shift(grig, "d").restrict_source((0,)))

    def test_label_ignored_by_equality(self, grig):
        lhs = PartialMap(grig.state("b"), (0,), (0,), label="whatever")
        rhs = PartialMap(grig.state("b"), (0,), (0,))
        assert lhs == rhs
        assert hash(lhs) == hash(rhs)

    def test_interned_state_equality(self, grig):
        prod = PartialMap(grig.state("b") * grig.state("c"), (), ())
        assert prod == shift(grig, "d")


class TestBisectionProduct:
    def test_same_depth_composition(self, grig):
        a = shift(grig, "a")
        pieces = bisection_product(a, a)
        assert len(pieces) == 1
        assert is_identity_map(pieces[0])

    def test_composition_is_group_product(self, grig):
        pieces = bisection_product(shift(grig, "b"), shift(grig, "c"))
        assert len(pieces) == 1
        assert pieces[0].state == grig.state("d")

    def test_unit_shift_neutral(self, grig):
        q = shift(grig, "b", (0,), (1,))
        unit = shift(grig, "e", (1,), (1,))
        assert bisection_product(q, unit) == [q]
        left_unit = shift(grig, "e", (0,), (0,))
        assert bisection_product(left_unit, q) == [q]

    def test_disjoint_cylinders(self, grig):
        lhs = shift(grig, "e", (0, 0), (0, 0))
        rhs = shift(grig, "e", (1, 1), (1, 1))
        assert bisection_product(lhs, rhs) == []

    def test_left_coarser_refines_by_range(self, grig):
        lhs = shift(grig, "d")
        rhs = shift(grig, "c", (1, 0), (0, 0))
        pieces = bisection_product(lhs, rhs)
        assert len(pieces) == 1
        piece = pieces[0]
        assert piece.source_prefix == (0, 0)
        assert piece.range_prefix == (1, 0)  # d fixes the word 10
        assert piece.state == grig.state("d").restrict((1, 0)) * grig.state("c")

    def test_right_coarser_pulls_back_through_state(self, grig):
        lhs = shift(grig, "b", (1, 1), (0, 1))
        rhs = shift(grig, "a")
        pieces = bisection_product(lhs, rhs)
        assert len(pieces) == 1
        piece = pieces[0]
        # a^-1(01) = 11 is the only source cell mapping into the 01 cylinder
        assert piece.source_prefix == (1, 1)
        assert piece.range_prefix == (1, 1)
        assert piece.state == grig.state("b")

    def test_pointwise_agreement(self, bundled):
        rng = random.Random(21)
        for m in bundled.values():
            states = m.states()
            for _ in range(40):
                g1 = states[rng.randrange(len(states))]
                g2 = states[rng.randrange(len(states))]
                n1, n2 = rng.randint(0, 2), rng.randint(0, 2)
                v1 = random_word(rng, 2, n1)
                v2 = random_word(rng, 2, n2)
                b1 = PartialMap(g1, g1.apply_word(v1), v1)
                b2 = PartialMap(g2, g2.apply_word(v2), v2)
                pieces = bisection_product(b1, b2)
                assert len(pieces) <= 1
                tail = Point((), (0, 1))
                for depth in range(6):
                    for w_bits in range(2**depth):
                        w = tuple((w_bits >> i) & 1 for i in range(depth))
                        x = Point(b2.source_prefix + w, (0, 1))
                        y = apply_point(b2, x)
                        if not y.starts_with(b1.source_prefix):
                            continue
                        z = apply_point(b1, y)
                        assert pieces, "composable point but no piece"
                        assert pieces[0].contains_base(x)
                        assert apply_point(pieces[0], x) == z


def verify_invariance(b: PartialMap) -> bool:
    """Check that b carries the uniform measure of its source onto its range.

    Prefix exchange of equal lengths plus a bijective automorphism makes
    this automatic; the check recomputes it from a one-letter refinement
    rather than trusting the construction.
    """
    if b.source_measure() != b.range_measure():
        return False
    d = b.alphabet_size
    pieces = [b.restrict_source((x,)) for x in range(d)]
    if sum(p.source_measure() for p in pieces) != b.source_measure():
        return False
    images = {p.range_prefix for p in pieces}
    return len(images) == d and all(w[:len(b.range_prefix)] == b.range_prefix
                                    for w in images)


class TestVerifyInvariance:
    def test_valid_shifts_pass(self, grig, lamp):
        assert verify_invariance(shift(grig, "b", (0,), (1,)))
        assert verify_invariance(shift(grig, "d"))
        assert verify_invariance(shift(lamp, "p", (1, 0), (0, 0)))


class TestGermBasics:
    def test_source_and_range(self, grig):
        pm = shift(grig, "a", (0,), (1,))
        germ = pm.germ_at(parse_point("1(0)", 2))
        assert germ.base == parse_point("1(0)", 2)
        assert germ.range() == parse_point("01(0)", 2)

    def test_germ_requires_base_in_source(self, grig):
        pm = shift(grig, "a", (0,), (1,))
        with pytest.raises(DomainError):
            pm.germ_at(parse_point("0(0)", 2))

    def test_unit_detection(self, grig):
        x = parse_point("(0)", 2)
        assert is_unit(unit_germ(2, x))
        assert is_unit(shift(grig, "d").germ_at(x))  # interior fixed point
        assert not is_unit(shift(grig, "d").germ_at(parse_point("(1)", 2)))
        assert is_unit(shift(grig, "e", (1, 1), (1, 1)).germ_at(parse_point("(1)", 2)))
        assert not is_unit(shift(grig, "a").germ_at(x))

    def test_unit_requires_equal_prefixes(self, grig):
        germ = shift(grig, "e", (0,), (1,)).germ_at(parse_point("1(0)", 2))
        assert not is_unit(germ)
        assert not fixes_base(germ)

    def test_hash_respects_equality(self, grig):
        x = parse_point("(1)", 2)
        b = shift(grig, "b").germ_at(x)
        c11 = shift(grig, "c", (1,), (1,)).germ_at(x)
        d = shift(grig, "d").germ_at(x)
        b11 = shift(grig, "b", (1,), (1,)).germ_at(x)
        assert b == c11 and hash(b) == hash(c11)
        assert d == b11 and hash(d) == hash(b11)
        assert len({b, c11, d, b11}) == 2
        assert shift(grig, "c").germ_at(x) not in {b, d}


class TestGermEquality:
    def test_restriction_collapses_to_deeper_shift(self, grig):
        x = parse_point("(1)", 2)
        b = shift(grig, "b").germ_at(x)
        c = shift(grig, "c").germ_at(x)
        d = shift(grig, "d").germ_at(x)
        c11 = shift(grig, "c", (1,), (1,)).germ_at(x)
        b11 = shift(grig, "b", (1,), (1,)).germ_at(x)
        d11 = shift(grig, "d", (1,), (1,)).germ_at(x)
        assert b == c11
        assert c == d11
        assert d == b11
        assert b != d and b != c and c != d

    def test_trivial_difference_on_interior(self, grig):
        x = parse_point("(0)", 2)
        b = shift(grig, "b").germ_at(x)
        c = shift(grig, "c").germ_at(x)
        assert b == c  # they differ by d, whose germ at 0^infinity is trivial

    def test_different_bases_never_equal(self, grig):
        g1 = shift(grig, "b").germ_at(parse_point("(1)", 2))
        g2 = shift(grig, "b").germ_at(parse_point("1(1)", 2))
        assert g1 == g2  # same point after canonicalization
        g3 = shift(grig, "b").germ_at(parse_point("(0)", 2))
        assert g1 != g3

    def test_depth_of_shift_does_not_matter(self, lamp):
        x = parse_point("(0)", 2)
        shallow = shift(lamp, "p").germ_at(x)
        deep = shift(lamp, "p", (0, 0), (0, 0)).germ_at(x)
        assert shallow == deep


def reference_equal(g: Germ, h: Germ) -> bool:
    """Germ equality from its definition: g after h^-1 is a unit near h's range.

    Composes the two shifts and classifies the composite with fixed_walk,
    without going through Germ equality, its key, range or is_unit.
    """
    if g.base != h.base:
        return False
    piece, = bisection_product(g.map, h.map.inverse())
    if piece.range_prefix != piece.source_prefix:
        return False
    y = apply_point(h.map, h.base).shift(len(piece.source_prefix))
    return fixed_walk(piece.state, y)[0] == INTERIOR


def random_product(machine, rng):
    """Product of 1-3 machine states, each inverted or not."""
    aut = None
    for _ in range(rng.randint(1, 3)):
        s = machine.state(rng.randrange(machine.size))
        if rng.random() < 0.5:
            s = s.inverse()
        aut = s if aut is None else aut * s
    return aut


def random_germ_at(machine, rng, x):
    n = rng.randint(0, 3)
    v = x.prefix(n)
    u = v if rng.random() < 0.5 else random_word(rng, machine.alphabet_size, n)
    return PartialMap(random_product(machine, rng), u, v).germ_at(x)


class TestGermKeyOracle:
    def test_equality_and_hash_match_reference(self, bundled, ternary):
        rng = random.Random(2603)
        pairs = equal = 0
        for m in [*bundled.values(), ternary]:
            d = m.alphabet_size
            for _ in range(5):
                x = Point(random_word(rng, d, rng.randint(0, 2)),
                          random_word(rng, d, rng.randint(1, 2)))
                germs = [random_germ_at(m, rng, x) for _ in range(35)]
                for g in germs:
                    assert g.range() == apply_point(g.map, g.base), g
                    assert is_unit(g) == reference_equal(g, unit_germ(d, g.base)), g
                for i, g in enumerate(germs):
                    for h in germs[i + 1:]:
                        expected = reference_equal(g, h)
                        assert (g == h) == expected == (h == g), (g, h)
                        if expected:
                            assert hash(g) == hash(h), (g, h)
                        pairs += 1
                        equal += expected
        assert pairs >= 10_000
        assert 0 < equal < pairs

    def test_one_lasso_walk_per_germ(self, grig, monkeypatch):
        walks = []

        def counted(g, x):
            walks.append(x)
            return state_lasso(g, x)

        monkeypatch.setattr(germs_module, "state_lasso", counted)
        monkeypatch.setattr(points_module, "state_lasso", counted)
        germ = shift(grig, "b", (0, 1), (1, 1)).germ_at(parse_point("11(01)", 2))
        assert germ.range() == parse_point("0100(01)", 2)  # b 0101.. = 0001..
        assert germ.key[1] == germ.range() and hash(germ) == hash(germ.key)
        assert fixes_base(germ) is False
        assert len(walks) == 1

    def test_cycle_phase_separates_chasing_states(self):
        # s and t swap along 0^infinity: same restriction cycle, opposite phase
        m = parse_machine("alphabet 2\n"
                          "state s perm 0 1 to t a\n"
                          "state t perm 0 1 to s e\n"
                          "state a perm 1 0 to e e\n")
        x = parse_point("(0)", 2)
        gs = shift(m, "s").germ_at(x)
        gt = shift(m, "t").germ_at(x)
        gt0 = shift(m, "t", (0,), (0,)).germ_at(x)
        assert gs != gt and not reference_equal(gs, gt)
        assert gt0 == gs and reference_equal(gt0, gs)
        assert hash(gt0) == hash(gs)
        assert len({gs, gt, gt0}) == 2


class TestGroupoidLaws:
    def _random_germ_from(self, machine, rng, x):
        states = machine.states()
        g = states[rng.randrange(len(states))]
        n = rng.randint(0, 2)
        v = x.prefix(n)
        u = random_word(rng, machine.alphabet_size, n)
        return PartialMap(g, u, v).germ_at(x)

    def test_axioms_on_random_composable_triples(self, bundled):
        rng = random.Random(33)
        for m in bundled.values():
            for _ in range(40):
                pre = tuple(rng.randrange(2) for _ in range(rng.randint(0, 2)))
                per = tuple(rng.randrange(2) for _ in range(rng.randint(1, 2)))
                x = Point(pre, per)
                g3 = self._random_germ_from(m, rng, x)
                g2 = self._random_germ_from(m, rng, g3.range())
                g1 = self._random_germ_from(m, rng, g2.range())
                assert (g1 * g2) * g3 == g1 * (g2 * g3)
                assert is_unit(g1 * g1.inverse())
                assert is_unit(g1.inverse() * g1)
                assert g1 * unit_germ(2, g1.base) == g1
                assert unit_germ(2, g1.range()) * g1 == g1
                assert g1.inverse().inverse() == g1
                assert (g1 * g2).inverse() == g2.inverse() * g1.inverse()

    def test_composition_requires_matching_base(self, grig):
        g1 = shift(grig, "a").germ_at(parse_point("(0)", 2))
        g2 = shift(grig, "b").germ_at(parse_point("(1)", 2))
        with pytest.raises(DomainError):
            g1.compose(g2)


class TestIsotropy:
    def test_grigorchuk_at_all_ones(self, grig):
        x = parse_point("(1)", 2)
        germs = isotropy_germs_at(x, grig, 3)
        assert len(germs) == 3
        b = shift(grig, "b").germ_at(x)
        c = shift(grig, "c").germ_at(x)
        d = shift(grig, "d").germ_at(x)
        for expected in (b, c, d):
            assert sum(1 for g in germs if g == expected) == 1
        for g in germs:
            assert fixes_base(g) and not is_unit(g)

    def test_trivial_isotropy_points(self, grig, adding):
        assert isotropy_germs_at(parse_point("(0)", 2), grig, 4) == []
        assert isotropy_germs_at(parse_point("(1)", 2), adding, 4) == []

    def test_lamplighter_dedups_depths(self, lamp):
        germs = isotropy_germs_at(parse_point("(0)", 2), lamp, 4)
        assert len(germs) == 1
        assert germs[0] == shift(lamp, "p").germ_at(parse_point("(0)", 2))


class TestFreenessReport:
    def test_grigorchuk(self, grig):
        report = essential_freeness_report(grig)
        rows = dict(report.rows)
        assert rows == {
            "a": Fraction(0),
            "b": Fraction(1, 7),
            "c": Fraction(2, 7),
            "d": Fraction(4, 7),
        }
        assert report.essentially_free
        assert report.topologically_free

    def test_free_machines(self, adding, lamp):
        for m in (adding, lamp):
            report = essential_freeness_report(m)
            assert all(mu == 0 for _, mu in report.rows)
            assert report.essentially_free


class TestContentKeys:
    """PartialMap and Point hash once, from content, so copies built
    apart compare and hash equal, in this process and in any other."""

    def test_copies_of_one_machine_text(self, bundled, ternary):
        rng = random.Random(3108)
        checked = 0
        for m in [*bundled.values(), ternary]:
            d = m.alphabet_size
            one, two = (parse_machine(format_machine(m)) for _ in range(2))
            for _ in range(40):
                n = rng.randint(0, 2)
                u, v = ("".join(map(str, random_word(rng, d, n))) for _ in range(2))
                text = f"{random_state_expr(rng, list(m.names), d)}:{u}>{v}"
                p1, p2 = parse_shift(one, text), parse_shift(two, text)
                assert p1 == p2 and hash(p1) == hash(p2), text
                assert len({p1, p2, PartialMap(p1.state, p1.range_prefix, p1.source_prefix)}) == 1
                pre, per = random_word(rng, d, rng.randint(0, 3)), random_word(rng, d, 2)
                point = "".join(map(str, pre)) + "(" + "".join(map(str, per)) + ")"
                x1, x2 = parse_point(point, d), parse_point(point, d)
                assert x1 == x2 and hash(x1) == hash(x2) and x1 is not x2
                x = Point(tuple(map(int, v)) + pre, per)
                assert hash(p1.germ_at(x)) == hash(p2.germ_at(x))
                assert p1.germ_at(x) == p2.germ_at(x)
                checked += 1
        assert checked == 160

    def test_equal_content_under_other_labels(self, grig):
        for text in ["b*c:0>1", "d:0>1", "(c*b)^-1:0>1", "b|1|1:0>1"]:
            pmap = parse_shift(grig, text)
            plain = PartialMap(grig.state("d"), (0,), (1,))
            assert pmap == plain and hash(pmap) == hash(plain)
        assert parse_shift(grig, "d:0>1") != parse_shift(grig, "d:1>0")
        assert parse_shift(grig, "d:0>1") != parse_shift(grig, "b:0>1")

    def test_hash_is_the_same_in_every_process(self, grig):
        """No hash reads an address or a salted string: two interpreters
        with different hash seeds give the hashes this one gives."""
        code = ("import sys\n"
                "from germtrace import parse_machine, parse_shift, parse_point\n"
                "m = parse_machine(sys.stdin.read())\n"
                "print(hash(parse_shift(m, '(a*b)^-1|0:01>10')), "
                "hash(parse_point('01(10)', 2)))")
        src = Path(germs_module.__file__).resolve().parents[1]
        here = f"{hash(parse_shift(grig, '(a*b)^-1|0:01>10'))} {hash(parse_point('01(10)', 2))}"
        for seed in ("0", "1"):
            out = subprocess.run([sys.executable, "-c", code], input=format_machine(grig),
                                 capture_output=True, text=True, check=True,
                                 env={**os.environ, "PYTHONHASHSEED": seed,
                                      "PYTHONPATH": str(src)}).stdout
            assert out.split() == here.split()


def reference_state_hashes(m, depth=mealy._HASH_DEPTH):
    """The content hash of each state of m from its definition, level by
    level and state by state: level 1 hashes the output row, level k + 1
    the output row's hash with the level-k hashes of the restrictions."""
    rows = [hash(row) for row in m.outputs]
    level = rows
    for _ in range(depth - 1):
        level = [hash((rows[q], *(level[t] for t in m.transitions[q])))
                 for q in range(m.size)]
    return level


def automorphisms_of_one_text(rng, text):
    """States of two parsed copies of one machine text, their quotients,
    their interned closures, products and inverses, and restrictions of
    those: many equal automorphisms over different machines."""
    out = []
    for m in (parse_machine(text), parse_machine(text)):
        quotient, block = minimize(m)
        qs = rng.sample(range(m.size), min(m.size, 5))
        for q in qs:
            g = m.state(q)
            out += [g, Aut(quotient, block[q]), g.canonical()]
        for a, b in zip(qs, reversed(qs)):
            product = m.state(a) * m.state(b)
            out += [product, m.state(a).inverse(),
                    product.restrict(random_word(rng, m.alphabet_size, 2))]
    return out


class TestIdentityAcrossMachines:
    """An Aut is equal to another iff their canonical pairs are, though
    equality reads states within one minimal machine; equal Auts and equal
    PartialMaps hash alike whatever their machines, by content hashes that
    are the same in every process."""

    def test_equality_is_canonical_equality(self):
        rng = random.Random(3805)
        tally = {"equal, two machines": 0, "equal, one machine": 0, "distinct": 0}
        for k in range(8):
            d = 2 + k % 2
            text = format_machine(random_machine(rng, rng.randint(4, 10), d))
            auts = automorphisms_of_one_text(rng, text)
            pairs = [_canonical_pair(g.machine, g.state) for g in auts]
            for g, p in zip(auts, pairs):
                for h, r in zip(auts, pairs):
                    assert (g == h) == (p == r)
                    if p == r:
                        assert hash(g) == hash(h)
                        tally["equal, one machine" if g.machine is h.machine
                              else "equal, two machines"] += 1
                    else:
                        tally["distinct"] += 1
        assert min(tally.values()) >= 500, tally

    def test_partial_maps_are_equal_iff_canonically_equal(self):
        rng = random.Random(3806)
        tally = {"equal": 0, "distinct": 0}
        for k in range(6):
            d = 2 + k % 2
            text = format_machine(random_machine(rng, rng.randint(4, 10), d))
            maps = []
            for g in automorphisms_of_one_text(rng, text):
                v = rng.choice([(), (0,), (1,)])
                u = rng.choice([(0,), (1,)]) if v else v
                maps.append(PartialMap(g, u, v))
            keys = [(_canonical_pair(p.state.machine, p.state.state), p.range_prefix,
                     p.source_prefix) for p in maps]
            for p, key in zip(maps, keys):
                for q, other in zip(maps, keys):
                    assert (p == q) == (key == other)
                    if p == q:
                        assert hash(p) == hash(q)
                    tally["equal" if p == q else "distinct"] += 1
        assert min(tally.values()) >= 500, tally

    def test_content_hashes_follow_their_definition(self):
        rng = random.Random(3807)
        for k in range(20):
            m = parse_machine(format_machine(random_machine(rng, rng.randint(2, 30),
                                                            2 + k % 3)))
            for machine in (minimize(m)[0], (m.state(0) * m.state(1)).machine):
                assert list(_state_hashes(machine)) == reference_state_hashes(machine)

    def test_content_hashes_are_the_same_in_every_process(self):
        """The content hashes of the states of one machine text, of its
        quotient and of a product and an inverse over it are those this
        interpreter gives, in two others with hash seeds 0 and 1."""
        code = ("import sys\n"
                "from germtrace import parse_machine, minimize\n"
                "m = parse_machine(sys.stdin.read())\n"
                "q = minimize(m)[0]\n"
                "auts = m.states() + q.states() + [m.state(0) * m.state(1), "
                "m.state(2).inverse()]\n"
                "print(*map(hash, auts))")
        text = format_machine(random_machine(random.Random(3808), 12, 3))
        m = parse_machine(text)
        q = minimize(m)[0]
        here = [str(hash(g)) for g in
                m.states() + q.states() + [m.state(0) * m.state(1), m.state(2).inverse()]]
        assert len(set(here)) > 3
        src = Path(germs_module.__file__).resolve().parents[1]
        for seed in ("0", "1"):
            out = subprocess.run([sys.executable, "-c", code], input=text,
                                 capture_output=True, text=True, check=True,
                                 env={**os.environ, "PYTHONHASHSEED": seed,
                                      "PYTHONPATH": str(src)}).stdout
            assert out.split() == here
