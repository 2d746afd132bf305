"""Eventually periodic boundary points and orbit walks."""

import copy
import pickle
import random

import pytest

from germtrace import (
    BOUNDARY,
    INTERIOR,
    MOVED,
    DomainError,
    PartialMap,
    Point,
    PointParseError,
    F_eval,
    apply_to_point,
    fixed_walk,
    format_point,
    is_dangerous,
    isotropy_defect,
    isotropy_germs_at,
    parse_element,
    parse_point,
    rep_matrix,
)


class TestCanonicalForm:
    def test_period_rotation_absorbed_into_preperiod(self):
        assert Point((0,), (1, 0)) == Point((), (0, 1))
        assert Point((0, 1), (0, 1)) == Point((), (0, 1))

    def test_period_primitivized(self):
        assert Point((), (1, 0, 1, 0)) == Point((), (1, 0))
        assert Point((), (1, 1, 1)) == Point((), (1,))

    def test_trailing_preperiod_absorption(self):
        assert Point((1,), (1,)) == Point((), (1,))
        assert Point((0, 1, 1), (1,)) == Point((0,), (1,))

    def test_hash_respects_equality(self):
        assert hash(Point((0,), (1, 0))) == hash(Point((), (0, 1)))
        seen = {Point((), (0, 1)), Point((0, 1), (0, 1))}
        assert len(seen) == 1

    def test_distinct_points_differ(self):
        assert Point((), (0,)) != Point((), (1,))
        assert Point((0,), (1,)) != Point((), (1,))

    def test_letters_and_prefixes(self):
        x = Point((0, 1), (1, 0))
        assert [x.letter(i) for i in range(6)] == [0, 1, 1, 0, 1, 0]
        assert x.prefix(5) == (0, 1, 1, 0, 1)
        assert x.shift(2) == Point((), (1, 0))
        assert x.shift(3) == Point((), (0, 1))
        assert x.starts_with((0, 1, 1))
        assert not x.starts_with((0, 0))

    def test_empty_period_rejected(self):
        with pytest.raises(ValueError):
            Point((0,), ())

    def test_letters_are_non_negative_ints(self):
        assert Point([0], [1, 0]) == Point((), (0, 1))
        for pre, per in (("0", (1,)), ((), "01"), ((0.0,), (1,)), ((), (None,)), ((-1,), (0,))):
            with pytest.raises(ValueError, match="non-negative ints"):
                Point(pre, per)

    def test_copies_and_pickles_as_equal_points(self):
        for x in (Point((0,), (1,)), Point((0, 1, 1), (1, 0)), Point((), (2, 0, 1))):
            for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
                assert y == x and hash(y) == hash(x)
                assert (y.preperiod, y.period) == (x.preperiod, x.period)
                with pytest.raises(AttributeError, match="Point is immutable"):
                    y.period = (0,)


class TestTextForm:
    def test_parse_examples(self):
        assert parse_point("(1)", 2) == Point((), (1,))
        assert parse_point("01(10)", 2) == Point((0, 1), (1, 0))
        assert parse_point("(01)", 2) == Point((), (0, 1))

    def test_format_is_canonical(self):
        assert format_point(Point((0, 1), (0, 1))) == "(01)"
        assert format_point(Point((1,), (0,))) == "1(0)"

    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(100):
            pre = tuple(rng.randrange(3) for _ in range(rng.randint(0, 4)))
            per = tuple(rng.randrange(3) for _ in range(rng.randint(1, 4)))
            x = Point(pre, per)
            assert parse_point(format_point(x), 3) == x

    @pytest.mark.parametrize("text", ["", "01", "(“)", "(2)", "0(", "(0)1", "0()"])
    def test_rejects_malformed(self, text):
        with pytest.raises(PointParseError):
            parse_point(text, 2)


class TestApplyToPoint:
    def test_odometer_orbit(self, adding):
        a = adding.state("a")
        assert apply_to_point(a, Point((), (0,))) == parse_point("1(0)", 2)
        assert apply_to_point(a, Point((), (1,))) == parse_point("(0)", 2)
        assert apply_to_point(a, parse_point("011(0)", 2)) == parse_point("111(0)", 2)

    def test_matches_apply_word_on_prefixes(self, bundled):
        rng = random.Random(6)
        for m in bundled.values():
            for _ in range(40):
                g = m.state(rng.randrange(m.size))
                pre = tuple(rng.randrange(2) for _ in range(rng.randint(0, 3)))
                per = tuple(rng.randrange(2) for _ in range(rng.randint(1, 3)))
                x = Point(pre, per)
                y = apply_to_point(g, x)
                for depth in range(13):
                    assert y.prefix(depth) == g.apply_word(x.prefix(depth))

    def test_identity_fixes_everything(self, grig):
        e = grig.state("e")
        x = parse_point("01(10)", 2)
        assert apply_to_point(e, x) == x


class TestFixedWalk:
    def test_moved(self, grig):
        status, visited = fixed_walk(grig.state("a"), Point((), (1,)))
        assert status == MOVED

    def test_interior(self, grig):
        status, visited = fixed_walk(grig.state("d"), Point((), (0,)))
        assert status == INTERIOR
        assert visited[0] == grig.state("d")

    def test_boundary_cycle(self, grig):
        status, visited = fixed_walk(grig.state("d"), Point((), (1,)))
        assert status == BOUNDARY
        assert visited == [grig.state("d"), grig.state("b"), grig.state("c")]

    def test_boundary_never_trivializing(self, lamp):
        status, visited = fixed_walk(lamp.state("p"), Point((), (0,)))
        assert status == BOUNDARY
        assert all(not v.is_identity() for v in visited)

    def test_walk_agrees_with_pointwise_check(self, bundled):
        rng = random.Random(9)
        for m in bundled.values():
            for _ in range(60):
                g = m.state(rng.randrange(m.size))
                pre = tuple(rng.randrange(2) for _ in range(rng.randint(0, 2)))
                per = tuple(rng.randrange(2) for _ in range(rng.randint(1, 2)))
                x = Point(pre, per)
                status, _ = fixed_walk(g, x)
                fixes = apply_to_point(g, x) == x
                assert (status == MOVED) == (not fixes)
                if status == INTERIOR:
                    n = len(pre) + len(per) + m.size + 2
                    w = x.prefix(n)
                    assert g.apply_word(w) == w and g.restrict(w).is_identity()


def _germ(m, x):
    return PartialMap(m.state("a"), (), ()).germ_at(x)


class TestLetterOutsideAlphabet:
    """A point built in code may carry letters the machine has no row
    for; every walk along it refuses such a letter as out of the domain,
    where it used to index past the table."""

    ENTRY_POINTS = {
        "F_eval": lambda m, x: F_eval(parse_element(m, "1 a:>"), x),
        "isotropy_defect": lambda m, x: isotropy_defect(parse_element(m, "1 a:>"), x),
        "unit_restriction_eval": lambda m, x: parse_element(m, "1 a:>").unit_restriction_eval(x),
        "Germ.key": lambda m, x: _germ(m, x).key,
        "rep_matrix": lambda m, x: rep_matrix(parse_element(m, "1 a:>"), x, [_germ(m, x)]),
        "fixed_walk": lambda m, x: fixed_walk(m.state("a"), x),
        "apply_to_point": lambda m, x: apply_to_point(m.state("a"), x),
        "is_dangerous": lambda m, x: is_dangerous(m, x),
        "isotropy_germs_at": lambda m, x: isotropy_germs_at(x, m, 1),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("pre, per, letter", [((), (5,), 5), ((0, 1), (1, 12), 12),
                                                  ((7,), (0,), 7)])
    def test_refused_as_domain_error(self, grig, entry, pre, per, letter):
        with pytest.raises(DomainError, match=f"^point letter {letter} outside alphabet "
                                              "of size 2$"):
            self.ENTRY_POINTS[entry](grig, Point(pre, per))
