"""Trace functionals, the fibered expectation gap and finite representations."""

import itertools
import random
from fractions import Fraction

import pytest

from germtrace import (
    Aut,
    DomainError,
    F_eval,
    PartialMap,
    Point,
    RepMatrix,
    Scalar,
    canonical_trace,
    fixed_counts,
    format_machine,
    indicator,
    isotropy_defect,
    isotropy_germs_at,
    isotropy_trace,
    mu_fix_exact,
    parse_element,
    parse_machine,
    parse_point,
    rep_matrix,
    unit_element,
    unit_germ,
)
from germtrace import germs
from germtrace.convalg import ZERO
from germtrace.traces import _germ_label

from germtrace.points import INTERIOR, fixed_walk

from conftest import (conjugate_transpose, evaluate, is_unit, pop_memos, random_element,
                      random_machine, random_word)


def F(*args):
    return Fraction(*args)


def check_tracial(a, b) -> bool:
    """tau(ab) = tau(ba) for both traces."""
    ab, ba = a * b, b * a
    return (canonical_trace(ab) == canonical_trace(ba)
            and isotropy_trace(ab) == isotropy_trace(ba))


def check_positive(a) -> bool:
    """tau(a* a) is real and nonnegative for the canonical trace."""
    t = canonical_trace(a.adjoint() * a)
    return t.is_real() and t.re >= 0


def both_traces(elem):
    return canonical_trace(elem), isotropy_trace(elem)


class TestTraceValues:
    def test_unit(self, bundled):
        for m in bundled.values():
            tau, phi = both_traces(unit_element(m))
            assert tau == phi == Scalar(F(1))

    def test_state_indicators(self, grig):
        expected = {"a": F(0), "b": F(1, 7), "c": F(2, 7), "d": F(4, 7)}
        for name, mu in expected.items():
            tau, phi = both_traces(indicator(grig, name))
            assert tau == phi == Scalar(mu)

    def test_diagonal_unit_cylinders(self, grig):
        elem = indicator(grig, "e", (1, 1), (1, 1))
        assert canonical_trace(elem) == Scalar(F(1, 4))
        elem = indicator(grig, "e", (0, 1, 0), (0, 1, 0))
        assert canonical_trace(elem) == Scalar(F(1, 8))

    def test_off_diagonal_terms_vanish(self, grig):
        assert canonical_trace(indicator(grig, "a", (0,), (1,))) == Scalar(F(0))
        assert isotropy_trace(indicator(grig, "b", (0, 0), (1, 1))) == Scalar(F(0))

    def test_conjugated_cylinder_mass(self, grig):
        a01 = indicator(grig, "a", (0,), (1,))
        prod = a01.adjoint() * a01
        assert canonical_trace(prod) == Scalar(F(1, 2))
        assert canonical_trace(a01 * a01.adjoint()) == Scalar(F(1, 2))

    def test_diagonal_state_on_cylinder(self, grig):
        # the shift d_{1,1} applies d itself below the prefix
        elem = indicator(grig, "d", (1,), (1,))
        assert canonical_trace(elem) == Scalar(F(2, 7))
        # whereas the restriction of d to the 1-cylinder acts as d|_1 = b
        piece = PartialMap(grig.state("d"), (), ()).restrict_source((1,))
        restricted = indicator(grig, "b", (1,), (1,))
        assert piece == restricted.term_list()[0][1]
        assert canonical_trace(restricted) == Scalar(F(1, 14))

    def test_linearity(self, grig):
        rng = random.Random(41)
        for _ in range(15):
            a = random_element(grig, rng)
            b = random_element(grig, rng)
            lam = Scalar(F(2, 3), F(-1))
            lhs = canonical_trace(a.scale(lam) + b)
            assert lhs == lam * canonical_trace(a) + canonical_trace(b)

    def test_star_symmetry(self, bundled):
        rng = random.Random(42)
        for m in bundled.values():
            for _ in range(10):
                a = random_element(m, rng)
                assert canonical_trace(a.adjoint()) == canonical_trace(a).conjugate()

    def test_traces_agree_on_randoms(self, bundled):
        rng = random.Random(43)
        for m in bundled.values():
            for _ in range(25):
                a = random_element(m, rng)
                tau, phi = both_traces(a)
                assert tau == phi

    def test_diagonal_measures_within_count_brackets(self, bundled, ternary):
        # fixed_counts brackets each diagonal state's measure from below by
        # the interior fraction i_k/d^k and from above by f_k/d^k; summing
        # the brackets termwise brackets both traces without mu_fix_exact
        rng = random.Random(46)
        composites = 0
        for m in [*bundled.values(), ternary]:
            d = m.alphabet_size
            machine_states = set(m.states())
            for _ in range(15):
                a, b = random_element(m, rng), random_element(m, rng)
                for elem in (a, a * b, b.adjoint() * a):
                    lo = {k: [F(0), F(0)] for k in range(11)}
                    hi = {k: [F(0), F(0)] for k in range(11)}
                    for pmap, coeff in elem.terms.items():
                        if pmap.range_prefix != pmap.source_prefix:
                            continue
                        composites += pmap.state not in machine_states
                        mu = mu_fix_exact(pmap.state)
                        counts = fixed_counts(pmap.state, 10)
                        scale = d ** len(pmap.source_prefix)
                        for k in range(11):
                            inner = F(counts.interior[k], d ** k)
                            outer = F(counts.fixed[k], d ** k)
                            assert inner <= mu <= outer
                            for part, c in enumerate((coeff.re, coeff.im)):
                                ends = sorted((c * inner / scale, c * outer / scale))
                                lo[k][part] += ends[0]
                                hi[k][part] += ends[1]
                    for tau in both_traces(elem):
                        for k in range(11):
                            assert lo[k][0] <= tau.re <= hi[k][0]
                            assert lo[k][1] <= tau.im <= hi[k][1]
        assert composites > 0

    def test_tracial_and_positive_checks(self, bundled):
        rng = random.Random(44)
        for m in bundled.values():
            for _ in range(15):
                a = random_element(m, rng, max_terms=2)
                b = random_element(m, rng, max_terms=2)
                assert check_tracial(a, b)
                assert check_positive(a)
                tau = canonical_trace(a.adjoint() * a)
                assert tau.is_real() and tau.re >= 0

    def test_positivity_strict_on_indicators(self, grig):
        for name in "abcde":
            a = indicator(grig, name)
            tau = canonical_trace(a.adjoint() * a)
            assert tau == Scalar(F(1))  # states are unitaries


class TestFiberedEvaluation:
    def test_gap_at_boundary_point(self, grig):
        d = indicator(grig, "d")
        x = parse_point("(1)", 2)
        assert d.unit_restriction_eval(x) == Scalar(F(0))
        assert F_eval(d, x) == Scalar(F(1))
        assert isotropy_defect(d, x) == Scalar(F(1))

    def test_no_gap_on_interior(self, grig):
        d = indicator(grig, "d")
        x = parse_point("(0)", 2)
        assert d.unit_restriction_eval(x) == Scalar(F(1))
        assert F_eval(d, x) == Scalar(F(1))
        assert isotropy_defect(d, x) == Scalar(F(0))

    def test_gap_sums_isotropy_coefficients(self, grig):
        elem = parse_element(grig, "1 b:> ; 2 c:> ; -3 d:> ; 5 e:>")
        x = parse_point("(1)", 2)
        assert elem.unit_restriction_eval(x) == Scalar(F(5))
        assert F_eval(elem, x) == Scalar(F(5))  # 5 + 1 + 2 - 3
        assert isotropy_defect(elem, x) == Scalar(F(0))

    def test_conjugated_boundary_germ(self, grig):
        a, d = grig.state("a"), grig.state("d")
        elem = parse_element(grig, "1 a*d*a:>")
        x = parse_point("0(1)", 2)
        assert (a * d * a).apply_word((0, 1, 1)) == (0, 1, 1)
        assert isotropy_defect(elem, x) == Scalar(F(1))
        assert isotropy_defect(elem, parse_point("(1)", 2)) == Scalar(F(0))

    def test_composite_state_visible_beyond_machine_germs(self, lamp):
        pp = lamp.state("p") * lamp.state("p")
        elem = parse_element(lamp, "1 p*p:>")
        x = parse_point("(0)", 2)
        assert elem.unit_restriction_eval(x) == Scalar(F(0))
        assert F_eval(elem, x) == Scalar(F(1))
        assert not pp.is_identity()


def klein_basis(grig, x):
    germs = [unit_germ(2, x)]
    for name in "bcd":
        germs.append(PartialMap(grig.state(name), (), (), label=name).germ_at(x))
    return germs


class TestRepMatrix:
    def test_regular_representation_of_b(self, grig):
        x = parse_point("(1)", 2)
        basis = klein_basis(grig, x)
        rep = rep_matrix(indicator(grig, "b"), x, basis)
        assert rep.size == 4
        assert rep.closed
        one, zero = Scalar(F(1)), Scalar(F(0))
        expected = [
            [zero, one, zero, zero],
            [one, zero, zero, zero],
            [zero, zero, zero, one],
            [zero, zero, one, zero],
        ]
        assert [list(row) for row in rep.entries] == expected

    def test_multiplicative_on_closed_basis(self, grig):
        x = parse_point("(1)", 2)
        basis = klein_basis(grig, x)
        rb = rep_matrix(indicator(grig, "b"), x, basis)
        rc = rep_matrix(indicator(grig, "c"), x, basis)
        rd = rep_matrix(indicator(grig, "d"), x, basis)
        assert rb.product(rc).entries == rd.entries

    def test_random_span_multiplicativity(self, grig):
        rng = random.Random(61)
        x = parse_point("(1)", 2)
        basis = klein_basis(grig, x)

        def span_element():
            text = " ; ".join(
                f"{rng.randint(-2, 2)} {name}:>" for name in "ebcd"
            )
            return parse_element(grig, text)

        for _ in range(15):
            a, b = span_element(), span_element()
            ra = rep_matrix(a, x, basis)
            rb = rep_matrix(b, x, basis)
            rab = rep_matrix(a * b, x, basis)
            assert ra.product(rb).entries == rab.entries
            assert rep_matrix(a.adjoint(), x, basis).entries == (
                conjugate_transpose(ra).entries
            )

    def test_diagonal_at_unit_is_expectation(self, grig):
        rng = random.Random(62)
        x = parse_point("(1)", 2)
        basis = klein_basis(grig, x)
        for _ in range(10):
            a = random_element(grig, rng, max_terms=2)
            rep = rep_matrix(a, x, basis)
            assert rep.entries[0][0] == a.unit_restriction_eval(x)

    def test_subgroup_summation_collapses_cosets(self, grig):
        x = parse_point("(1)", 2)
        basis = klein_basis(grig, x)
        iso = [basis[3]]  # the d germ; {unit, d} is a subgroup
        rep = rep_matrix(indicator(grig, "b"), x, basis, iso=iso)
        cols = list(zip(*rep.entries))
        assert cols[0] == cols[3]  # unit and d lie in one coset
        assert cols[1] == cols[2]  # b and c in the other

    def test_open_basis_flagged(self, grig):
        x = parse_point("(1)", 2)
        basis = klein_basis(grig, x)[:2]  # unit and b only
        rep = rep_matrix(indicator(grig, "d"), x, basis)
        assert not rep.closed

    def test_shared_coset_or_repeat_is_not_closed(self, grig):
        x = parse_point("(1)", 2)
        klein = klein_basis(grig, x)
        e = parse_element(grig, "1 e:>")
        twice = rep_matrix(e, x, [klein[0], klein[0]])
        one = Scalar(F(1))
        assert twice.entries == ((one, one), (one, one))
        assert twice.product(twice).entries != twice.entries  # rho(e)^2 != rho(e)
        assert twice.closed is False
        # e and d lie in one coset of {1, d}, as do b and c
        assert rep_matrix(e, x, klein, iso=[klein[3]]).closed is False
        assert rep_matrix(e, x, klein).closed is True

    def test_rejects_bad_inputs(self, grig):
        x = parse_point("(1)", 2)
        basis = klein_basis(grig, x)
        with pytest.raises(DomainError):
            rep_matrix(indicator(grig, "b"), x, [])
        wrong_base = PartialMap(grig.state("b"), (), ()).germ_at(parse_point("(0)", 2))
        with pytest.raises(DomainError):
            rep_matrix(indicator(grig, "b"), x, basis + [wrong_base])
        not_subgroup = [basis[1], basis[2]]  # b and c without d
        with pytest.raises(DomainError):
            rep_matrix(indicator(grig, "b"), x, basis, iso=not_subgroup)

    def test_labels_are_stable(self, grig):
        x = parse_point("(1)", 2)
        basis = klein_basis(grig, x)
        rep1 = rep_matrix(indicator(grig, "b"), x, basis)
        rep2 = rep_matrix(indicator(grig, "b"), x, basis)
        assert rep1.labels == rep2.labels


# ---------------------------------------------------------------------------
# kept references: the candidate-germ scan and the two-pass triple loop

def reference_F_eval(a, x, depth_cap=None):
    """F(a)(x) summed over candidate germs: the unit, the machine-state
    isotropy germs up to depth_cap and the terms' own germs fixing x."""
    if depth_cap is None:
        depth_cap = max((len(b.source_prefix) for b in a.terms), default=0)
    own = (b.germ_at(x) for b in a.terms if b.contains_base(x))
    candidates = dict.fromkeys([unit_germ(a.alphabet_size, x),
                                *isotropy_germs_at(x, a.machine, depth_cap),
                                *(g for g in own if g.range() == x)])
    return sum((evaluate(a, g) for g in candidates), ZERO)


def reference_rep_matrix(a, x, basis, iso=()):
    """entry(i, j) = sum over h of evaluate(a, g_i h g_j^-1), then closure:
    every term maps every basis germ into the basis, and no basis germ
    is another's times an isotropy germ (a shared coset or a repeat)."""
    subgroup = dict.fromkeys([unit_germ(a.alphabet_size, x), *iso])
    inverses = [gj.inverse() for gj in basis]
    entries = []
    for gi in basis:
        left = [gi.compose(h) for h in subgroup]
        entries.append(tuple(sum((evaluate(a, gh.compose(inv)) for gh in left), ZERO)
                             for inv in inverses))
    members = set(basis)
    closed = all(pmap.germ_at(gj.range()).compose(gj) in members
                 for pmap in a.terms for gj in basis
                 if pmap.contains_base(gj.range()))
    closed = closed and not any(gi.compose(h) == gj
                                for i, gi in enumerate(basis) for gj in basis[i + 1:]
                                for h in subgroup)
    labels = tuple(_germ_label(g, i) for i, g in enumerate(basis))
    return RepMatrix(labels, tuple(entries), closed)


def oracle_element(machine, rng):
    """Up to four terms of depth <= 2; a third are products, whose terms
    carry composite states outside the machine."""
    if rng.randrange(3) == 0:
        return (random_element(machine, rng, max_terms=2)
                * random_element(machine, rng, max_terms=2))
    return random_element(machine, rng, max_terms=4)


def oracle_points(machine, rng):
    d = machine.alphabet_size
    fixed = (["(0)", "(1)", "0(1)", "1(0)", "(01)", "10(1)"] if d == 2 else
             ["(0)", "(1)", "(2)", "(12)", "1(0)", "2(21)"])
    points = [parse_point(text, d) for text in fixed]
    for _ in range(2):
        points.append(Point(random_word(rng, d, rng.randint(0, 2)),
                            random_word(rng, d, rng.randint(1, 2))))
    return points


class TestReferenceOracle:
    def test_F_eval_matches_reference(self, bundled, ternary):
        rng = random.Random(71)
        nonzero = defects = composites = 0
        for m in [*bundled.values(), ternary]:
            states = set(m.states())
            for _ in range(30):
                a = oracle_element(m, rng)
                composites += any(b.state not in states for b in a.terms)
                for x in oracle_points(m, rng):
                    value = F_eval(a, x)
                    for cap in (0, None, 3):
                        assert value == reference_F_eval(a, x, cap)
                    defect = isotropy_defect(a, x)
                    assert defect == value - a.unit_restriction_eval(x)
                    nonzero += not value.is_zero()
                    defects += not defect.is_zero()
        assert nonzero >= 250 and defects >= 40 and composites >= 10

    def check_rep(self, a, x, basis, iso=()):
        rep = rep_matrix(a, x, basis, iso)
        ref = reference_rep_matrix(a, x, basis, iso)
        assert (rep.labels, rep.entries, rep.closed) == (
            ref.labels, ref.entries, ref.closed)
        return rep

    def test_rep_matrix_matches_reference(self, bundled, ternary):
        rng = random.Random(72)
        grig = bundled["grigorchuk"]
        x = parse_point("(1)", 2)
        klein = klein_basis(grig, x)
        nonzero = 0
        closed = set()
        for iso in ([], [klein[3]], [klein[1]], klein[1:]):
            for _ in range(12):
                rep = self.check_rep(oracle_element(grig, rng), x, klein, iso)
                nonzero += sum(not s.is_zero() for row in rep.entries for s in row)
                closed.add(rep.closed)
        for _ in range(12):
            self.check_rep(oracle_element(grig, rng), x, klein[:2])
        for m in [bundled["adding"], bundled["lamplighter"], ternary]:
            for x in oracle_points(m, rng):
                basis = [PartialMap(q, (), (), label=m.name_of(q.state)).germ_at(x)
                         for q in m.states()]
                for _ in range(4):
                    rep = self.check_rep(oracle_element(m, rng), x, basis)
                    nonzero += sum(not s.is_zero()
                                   for row in rep.entries for s in row)
                    closed.add(rep.closed)
        assert nonzero >= 250
        assert closed == {True, False}


def reference_unit_value(a, x):
    """E(a)(x) from fixed walks: the terms u = v whose state fixes a whole
    cylinder around x shifted past v."""
    return sum((c for b, c in a.terms.items()
                if b.range_prefix == b.source_prefix and b.contains_base(x)
                and fixed_walk(b.state, x.shift(b.depth))[0] == INTERIOR), ZERO)


def order_two_isotropy(x, machine):
    """Isotropy germs h at x with h h = 1, from states up to depth 2."""
    return [h for h in isotropy_germs_at(x, machine, 2) if is_unit(h.compose(h))]


class TestGermMemo:
    """The germ-key and composite memos: values agree with the kept
    references whether the memos start empty or full, and a repeat
    builds nothing."""

    def test_cold_and_warm_match_the_references(self, bundled, ternary):
        """Each case runs cold (germ memos dropped), then every case runs
        again warm, on memos filled by all the cases at every point."""
        rng = random.Random(73)
        cases = []
        grig, one = bundled["grigorchuk"], parse_point("(1)", 2)
        for m in [*bundled.values(), ternary]:
            for x in oracle_points(m, rng):
                states = [PartialMap(q, (), (), label=m.name_of(q.state)) for q in m.states()]
                isos = [[]] + [[h] for h in order_two_isotropy(x, m)[:2]]
                if m is grig and x == one:
                    isos.append(klein_basis(grig, x)[1:])
                for iso, _ in itertools.product(isos, range(2)):
                    a = oracle_element(m, rng)
                    pop_memos("germ", "after", "unit")
                    ref = reference_rep_matrix(a, x, [s.germ_at(x) for s in states], iso)
                    want = (ref.entries, ref.closed, reference_F_eval(a, x),
                            reference_F_eval(a, x) - reference_unit_value(a, x))
                    cases.append((a, x, states, iso, want))
                    pop_memos("germ", "after", "unit")
                    self.check(*cases[-1])
        for case in cases:
            self.check(*case)
        wants = [want for *_, want in cases]
        nonzero = sum(not s.is_zero() for w in wants for row in w[0] for s in row)
        iso_cases = sum(bool(iso) for _, _, _, iso, _ in cases)
        assert len(cases) >= 70 and iso_cases >= 12 and nonzero >= 200, (
            len(cases), iso_cases, nonzero)
        assert {w[1] for w in wants} == {True, False}

    @staticmethod
    def check(a, x, states, iso, want):
        basis = [s.germ_at(x) for s in states]  # fresh germs: no cached keys
        rep = rep_matrix(a, x, basis, iso)
        assert (rep.entries, rep.closed, F_eval(a, x), isotropy_defect(a, x)) == want

    def test_repeat_builds_no_shift_germ_or_product(self, grig, monkeypatch):
        x = parse_point("(1)", 2)
        klein = klein_basis(grig, x)
        a = parse_element(grig, "1 b:>; 2 c:0>1; -1 d:1>1; 1 a:>")
        rep_matrix(a, x, klein, iso=[klein[3]])
        calls = []

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(germs, name, wrapper)

        counted("_composite_key", germs._composite_key)
        counted("bisection_product", germs.bisection_product)
        counted("state_lasso", germs.state_lasso)
        real_post_init, real_germ_init = PartialMap.__post_init__, germs.Germ.__init__

        def post_init(self):
            calls.append("PartialMap")
            real_post_init(self)

        def germ_init(self, *args):
            calls.append("Germ")
            real_germ_init(self, *args)

        monkeypatch.setattr(PartialMap, "__post_init__", post_init)
        monkeypatch.setattr(germs.Germ, "__init__", germ_init)
        values = []
        for memos in ("cold", "warm"):
            if memos == "cold":
                pop_memos("germ", "after")
            basis = [germs.Germ(g.map, x) for g in klein]  # no cached keys
            del calls[:]
            values.append((rep_matrix(a, x, basis, iso=[basis[3]]),
                           F_eval(a, x), isotropy_defect(a, x)))
            if memos == "cold":
                assert {"_composite_key", "state_lasso"} <= set(calls)
        assert calls == []
        monkeypatch.undo()
        assert values[0] == values[1]
        assert values[0][0] == reference_rep_matrix(a, x, klein, [klein[3]])


# ---------------------------------------------------------------------------
# kept reference: the traces path in Fraction arithmetic, as it ran when
# Scalar held Fraction parts; values are (re, im) pairs of Fractions

def parts(s):
    return s.re, s.im


def reference_diagonal_sum(a):
    """Sum over diagonal terms of coeff * mu(Fix of the state) / d^|v|."""
    total = (F(0), F(0))
    d = a.alphabet_size
    for pmap, coeff in a.terms.items():
        if pmap.range_prefix == pmap.source_prefix:
            weight = F(mu_fix_exact(pmap.state), d ** len(pmap.source_prefix))
            total = (total[0] + coeff.re * weight, total[1] + coeff.im * weight)
    return total


def fraction_value(a, germ):
    """evaluate(a, germ): the coefficients of the terms whose germ it is."""
    total = (F(0), F(0))
    for b, c in a.terms.items():
        if b.contains_base(germ.base) and b.germ_at(germ.base) == germ:
            total = (total[0] + c.re, total[1] + c.im)
    return total


def fraction_sum(values):
    values = list(values)
    return sum((v[0] for v in values), F(0)), sum((v[1] for v in values), F(0))


def fraction_F_eval(a, x):
    """reference_F_eval's candidate scan with Fraction sums."""
    depth = max((len(b.source_prefix) for b in a.terms), default=0)
    own = (b.germ_at(x) for b in a.terms if b.contains_base(x))
    candidates = dict.fromkeys([unit_germ(a.alphabet_size, x),
                                *isotropy_germs_at(x, a.machine, depth),
                                *(g for g in own if g.range() == x)])
    return fraction_sum(fraction_value(a, g) for g in candidates)


def fraction_rep_entries(a, x, basis):
    """entry(i, j) = a(g_i g_j^-1) with Fraction sums."""
    return [[fraction_value(a, gi.compose(gj.inverse())) for gj in basis] for gi in basis]


def fraction_matmul(p, q):
    n = len(p)
    return [[fraction_sum((p[i][k][0] * q[k][j][0] - p[i][k][1] * q[k][j][1],
                           p[i][k][0] * q[k][j][1] + p[i][k][1] * q[k][j][0])
                          for k in range(n)) for j in range(n)] for i in range(n)]


def big_element(machine, rng):
    """oracle_element with coefficients scaled by a large Gaussian rational."""
    big = Scalar(F(rng.randint(1, 10 ** 12), rng.randint(1, 10 ** 12)),
                 F(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 12)))
    return oracle_element(machine, rng).scale(big)


class TestFractionReference:
    def test_traces_match_reference(self, bundled, ternary):
        rng = random.Random(1501)
        nonzero = complex_values = 0
        for m in [*bundled.values(), ternary]:
            for _ in range(40):
                a = oracle_element(m, rng) if rng.randrange(2) else big_element(m, rng)
                for elem in (a, a.adjoint() * a):
                    want = reference_diagonal_sum(elem)
                    assert parts(canonical_trace(elem)) == want
                    assert parts(isotropy_trace(elem)) == want
                    nonzero += want != (0, 0)
                    complex_values += want[1] != 0
        assert nonzero >= 200 and complex_values >= 40, (nonzero, complex_values)

    def test_F_eval_matches_reference(self, bundled, ternary):
        rng = random.Random(1502)
        nonzero = 0
        for m in [*bundled.values(), ternary]:
            for _ in range(30):
                a = oracle_element(m, rng) if rng.randrange(2) else big_element(m, rng)
                for x in oracle_points(m, rng):
                    want = fraction_F_eval(a, x)
                    assert parts(F_eval(a, x)) == want
                    nonzero += want != (0, 0)
        assert nonzero >= 120, nonzero

    def test_rep_matrix_matches_reference(self, bundled, ternary):
        rng = random.Random(1503)
        grig = bundled["grigorchuk"]
        x = parse_point("(1)", 2)
        cases = [(grig, x, klein_basis(grig, x))]
        for m in [bundled["adding"], bundled["lamplighter"], ternary]:
            for y in oracle_points(m, rng)[:4]:
                cases.append((m, y, [PartialMap(q, (), (), label=m.name_of(q.state)).germ_at(y)
                                     for q in m.states()]))
        nonzero = 0
        for m, y, basis in cases:
            for _ in range(6):
                a, b = big_element(m, rng), oracle_element(m, rng)
                ra, rb = rep_matrix(a, y, basis), rep_matrix(b, y, basis)
                want_a = fraction_rep_entries(a, y, basis)
                assert [list(map(parts, row)) for row in ra.entries] == want_a
                assert [list(map(parts, row)) for row in ra.product(rb).entries] == (
                    fraction_matmul(want_a, fraction_rep_entries(b, y, basis)))
                nonzero += sum(v != (0, 0) for row in want_a for v in row)
        assert nonzero >= 100, nonzero


class TestOneMachineBuildsNoCanonicalForm:
    """Values derived from the states of one machine are memoised on the
    minimal machine the states lie in, so on freshly parsed machines
    none of them builds a canonical form (Aut.canonical)."""

    def test_no_canonical_call(self, bundled, monkeypatch):
        rng = random.Random(4243)
        texts = [format_machine(m) for m in bundled.values()]
        texts += [format_machine(random_machine(rng, rng.randint(3, 12), rng.choice((2, 3))))
                  for _ in range(9)]
        calls = []
        real = Aut.canonical
        monkeypatch.setattr(Aut, "canonical", lambda g: calls.append(g) or real(g))
        keys = 0
        for text in texts:
            m = parse_machine(text)  # fresh: nothing memoised on it or its quotient
            d = m.alphabet_size
            a, b = random_element(m, rng), random_element(m, rng)
            product = a * b
            (a.adjoint() * product).adjoint()
            x = Point(random_word(rng, d, rng.randint(0, 2)), random_word(rng, d, 1))
            for pmap in product.terms:
                if pmap.contains_base(x):
                    keys += pmap.germ_at(x).key is not None
            basis = [PartialMap(m.state(q), (), (), m.name_of(q)).germ_at(x)
                     for q in range(m.size)]
            rep_matrix(a, x, basis)
            germs._after_key(basis[-1].map, basis[0].map, x)
            F_eval(product, x)
            for q in range(m.size):
                fixed_walk(m.state(q), x)
            isotropy_germs_at(x, m, 2)
        assert calls == [] and keys >= 5, (len(calls), keys)
