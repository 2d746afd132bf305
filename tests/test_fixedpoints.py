"""Fixed-word counts against enumeration, exact measures, certificates, witnesses."""

import itertools
import random
import sys
from fractions import Fraction

import pytest

from germtrace import (
    BOUNDARY,
    Aut,
    Machine,
    Point,
    SingularSystemError,
    boundary_null_certificate,
    distinguishing_depth,
    fixed_counts,
    fixed_counts_csv,
    fixed_walk,
    format_point,
    hausdorff_witness,
    interiorizable,
    is_dangerous,
    minimize,
    mu_fix_exact,
    parse_machine,
    parse_point,
)
from germtrace import fixedpoints, mealy
from germtrace.fixedpoints import (DecayCertificate, FixCounts, _fixed_lasso,
                                   _fixed_successors, _mu_table,
                                   _solve_integer_system, closure_boundary_null,
                                   essential_freeness_report)
from germtrace.mealy import infinite_path_nodes, strong_components
from germtrace.points import state_lasso

from conftest import random_word


def oracle_trivial(machine, q):
    """True iff state q acts trivially, by frontier search over raw tables.

    A nontrivial state moves some word of length at most the machine size,
    so surviving size+1 rounds of fixed-letter expansion settles it.
    """
    frontier = {q}
    for _ in range(machine.size + 1):
        nxt = set()
        for s in frontier:
            for x in range(machine.alphabet_size):
                if machine.outputs[s][x] != x:
                    return False
                nxt.add(machine.transitions[s][x])
        frontier = nxt
    return True


def oracle_counts(machine, q, depth):
    """(f_k, i_k) for k <= depth by enumerating every word, raw tables only."""
    d = machine.alphabet_size
    trivial = [oracle_trivial(machine, s) for s in range(machine.size)]
    fs = [1]
    interiors = [1 if trivial[q] else 0]
    for k in range(1, depth + 1):
        fk = ik = 0
        for w in itertools.product(range(d), repeat=k):
            s = q
            for x in w:
                if machine.outputs[s][x] != x:
                    break
                s = machine.transitions[s][x]
            else:
                fk += 1
                if trivial[s]:
                    ik += 1
        fs.append(fk)
        interiors.append(ik)
    return fs, interiors


class TestCountsAgainstEnumeration:
    def test_binary_machines(self, bundled):
        for m in bundled.values():
            for q in range(m.size):
                g = m.state(q)
                counts = fixed_counts(g, 10)
                fs, interiors = oracle_counts(m, q, 10)
                assert list(counts.fixed) == fs
                assert list(counts.interior) == interiors
                assert list(counts.live) == [f - i for f, i in zip(fs, interiors)]

    def test_ternary_machine(self, ternary):
        for q in range(ternary.size):
            counts = fixed_counts(ternary.state(q), 6)
            fs, interiors = oracle_counts(ternary, q, 6)
            assert list(counts.fixed) == fs
            assert list(counts.interior) == interiors

    def test_grigorchuk_live_column(self, grig):
        counts = fixed_counts(grig.state("d"), 10)
        assert list(counts.live) == [1, 1, 2, 2, 1, 2, 2, 1, 2, 2, 1]

    def test_identity_and_rigid_states(self, grig):
        e = fixed_counts(grig.state("e"), 6)
        assert list(e.fixed) == [2**k for k in range(7)]
        assert e.live == (0,) * 7
        a = fixed_counts(grig.state("a"), 6)
        assert list(a.fixed) == [1, 0, 0, 0, 0, 0, 0]

    def test_depth_property_and_validation(self, grig):
        counts = fixed_counts(grig.state("b"), 4)
        assert counts.depth == 4
        with pytest.raises(ValueError):
            fixed_counts(grig.state("b"), -1)


class TestCountInvariants:
    def test_sequence_shape(self, bundled, ternary):
        machines = list(bundled.values()) + [ternary]
        for m in machines:
            d = m.alphabet_size
            for g in m.states():
                counts = fixed_counts(g, 12)
                for k in range(12):
                    f0, f1 = counts.fixed[k], counts.fixed[k + 1]
                    i0, i1 = counts.interior[k], counts.interior[k + 1]
                    assert 0 <= i0 <= f0
                    assert f1 <= d * f0, "fixed fraction cannot grow"
                    assert i1 >= d * i0, "interior fraction cannot shrink"

    def test_bracket_contains_measure(self, bundled, ternary):
        machines = list(bundled.values()) + [ternary]
        for m in machines:
            d = m.alphabet_size
            for g in m.states():
                mu = mu_fix_exact(g)
                counts = fixed_counts(g, 12)
                for k in range(13):
                    assert Fraction(counts.interior[k], d**k) <= mu
                    assert mu <= Fraction(counts.fixed[k], d**k)


class TestMeasures:
    def test_grigorchuk_values(self, grig):
        expected = {
            "a": Fraction(0),
            "b": Fraction(1, 7),
            "c": Fraction(2, 7),
            "d": Fraction(4, 7),
            "e": Fraction(1),
        }
        assert {n: mu_fix_exact(grig.state(n)) for n in expected} == expected

    def test_free_actions(self, adding, lamp):
        assert mu_fix_exact(adding.state("a")) == 0
        assert mu_fix_exact(lamp.state("p")) == 0
        assert mu_fix_exact(lamp.state("q")) == 0

    def test_inverse_invariance(self, bundled):
        for m in bundled.values():
            for g in m.states():
                assert mu_fix_exact(g) == mu_fix_exact(g.inverse())

    def test_representation_independence(self, grig):
        b, c, d = grig.state("b"), grig.state("c"), grig.state("d")
        assert mu_fix_exact(b * c) == mu_fix_exact(d)
        assert mu_fix_exact(c * d * c) == mu_fix_exact(d)  # c*d*c = b*c = d

    def test_conjugation_invariance(self, grig):
        rng = random.Random(3)
        states = grig.states()
        for _ in range(15):
            g = states[rng.randrange(len(states))] * states[rng.randrange(len(states))]
            h = states[rng.randrange(len(states))]
            assert mu_fix_exact(g * h * g.inverse()) == mu_fix_exact(h)

    def test_products_outside_state_set(self, grig):
        a, d = grig.state("a"), grig.state("d")
        ad = a * d
        mu = mu_fix_exact(ad)
        counts = fixed_counts(ad, 12)
        for k in range(13):
            assert Fraction(counts.interior[k], 2**k) <= mu <= Fraction(counts.fixed[k], 2**k)


class TestSolver:
    def test_matches_naive_gaussian(self):
        rng = random.Random(42)
        for _ in range(25):
            n = rng.randint(1, 6)
            matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            rhs = [rng.randint(-9, 9) for _ in range(n)]
            try:
                got = _solve_integer_system(
                    [row[:] for row in matrix], rhs[:]
                )
            except SingularSystemError:
                assert _naive_solve(matrix, rhs) is None
                continue
            want = _naive_solve(matrix, rhs)
            assert want is not None
            assert list(got) == want

    def test_singular_raises(self):
        with pytest.raises(SingularSystemError):
            _solve_integer_system([[1, 2], [2, 4]], [1, 1])

    def test_large_entries_and_row_swaps(self):
        rng = random.Random(4747)
        for trial in range(10):
            n = rng.randint(8, 25)
            big = 10 ** rng.choice((3, 12, 30))
            matrix = [[rng.randint(-big, big) for _ in range(n)] for _ in range(n)]
            rhs = [rng.randint(-big, big) for _ in range(n)]
            if trial % 2:
                # zero leading block: elimination must swap rows to proceed
                for i in range(n // 2):
                    matrix[i][:n // 2] = [0] * (n // 2)
            got = _solve_integer_system([row[:] for row in matrix], rhs[:])
            assert all(isinstance(x, Fraction) for x in got)
            assert got == _naive_solve(matrix, rhs)
            for row, b in zip(matrix, rhs):
                assert sum(a * x for a, x in zip(row, got)) == b

    def test_fixed_measure_shaped_systems(self):
        # d on the diagonal, at most d entries -1 elsewhere in a row
        rng = random.Random(4848)
        for _ in range(40):
            n, d = rng.randint(1, 25), rng.choice((2, 3))
            matrix = [[0] * n for _ in range(n)]
            rhs = [0] * n
            for i in range(n):
                matrix[i][i] += d
                for _ in range(rng.randint(0, d)):
                    t = rng.randrange(n + 1)
                    if t == n:
                        rhs[i] += 1
                    else:
                        matrix[i][t] -= 1
            want = _naive_solve(matrix, rhs)
            if want is None:
                with pytest.raises(SingularSystemError):
                    _solve_integer_system(matrix, rhs)
            else:
                assert _solve_integer_system(matrix, rhs) == want

    def test_first_nonzero_pivot_above_large_entries(self):
        # the first nonzero entry of the pivot column is 1, below a zero
        # and above entries of about 10^30: it is taken as the pivot
        rng = random.Random(5050)
        big = 10 ** 30
        for n in (2, 3, 5, 8, 13):
            matrix = [[rng.randint(-big, big) for _ in range(n)] for _ in range(n)]
            rhs = [rng.randint(-big, big) for _ in range(n)]
            matrix[0][0], matrix[1][0] = 0, 1
            for k in range(2, n):
                matrix[k][0] = rng.choice((-1, 1)) * rng.randint(big // 2, big)
            want = _naive_solve(matrix, rhs)
            assert want is not None
            assert _solve_integer_system([row[:] for row in matrix], rhs[:]) == want

    def test_singular_systems_of_every_size(self):
        rng = random.Random(4949)
        for n in range(2, 26, 2):
            matrix = [[rng.randint(-10**9, 10**9) for _ in range(n)] for _ in range(n)]
            i, j, k = rng.sample(range(n), 3) if n >= 3 else (0, 1, 1)
            # one row a combination of two others, or a repeated row
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            matrix[i] = [a * x + b * y for x, y in zip(matrix[j], matrix[k])]
            rng.shuffle(matrix)
            rhs = [rng.randint(-9, 9) for _ in range(n)]
            assert _naive_solve(matrix, rhs) is None
            with pytest.raises(SingularSystemError):
                _solve_integer_system([row[:] for row in matrix], rhs)


def _naive_solve(matrix, rhs):
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col] / a[col][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[r][n] / a[r][r] for r in range(n)]


class TestCertificates:
    def test_holds_for_bundled_states(self, bundled, ternary):
        for m in list(bundled.values()) + [ternary]:
            for g in m.states():
                cert = boundary_null_certificate(g)
                assert cert.holds
                assert cert.alphabet_size == m.alphabet_size
                assert cert.depth >= 1
                assert len(cert.checks) >= 1
                for k, count, bound in cert.checks:
                    assert count <= bound

    def test_grigorchuk_depth_and_bounds(self, grig):
        cert = boundary_null_certificate(grig.state("d"))
        assert cert.depth == 3
        ks = [k for k, _, _ in cert.checks]
        assert ks == list(range(1, len(ks) + 1))
        counts = fixed_counts(grig.state("d"), 3 * len(ks))
        for k, count, bound in cert.checks:
            assert count == counts.live[3 * k]
            assert bound == (2**3 - 1) ** k


class TestInteriorizable:
    def test_grigorchuk(self, grig):
        assert not interiorizable(grig.state("a"))
        for name in "bcde":
            assert interiorizable(grig.state(name))
        # witness for b: the cylinder at 110 is fixed with trivial action below
        b = grig.state("b")
        assert b.apply_word((1, 1, 0)) == (1, 1, 0)
        assert b.restrict((1, 1, 0)).is_identity()

    def test_free_machines_have_none(self, adding, lamp):
        assert not interiorizable(adding.state("a"))
        assert not interiorizable(lamp.state("p"))
        assert not interiorizable(lamp.state("q"))
        assert interiorizable(adding.state("e"))


def boundary_fixed_point(g: Aut) -> Point | None:
    """A point fixed by g with every restriction along it nontrivial.

    Returns None iff no such point exists, i.e. Fix_g = int Fix_g.  The
    witness follows smallest letters first and is canonical.  No module
    needs it; the tests keep it as an oracle next to hausdorff_witness.
    """
    c = g.canonical()
    m = c.machine
    nodes = [q for q in range(m.size) if q != m.identity]
    alive = infinite_path_nodes(nodes, _fixed_successors(m))
    return _fixed_lasso(m, c.state, alive) if c.state in alive else None


class TestBoundaryFixedPoints:
    def test_grigorchuk(self, grig):
        x = boundary_fixed_point(grig.state("d"))
        assert x is not None
        status, _ = fixed_walk(grig.state("d"), x)
        assert status == BOUNDARY
        assert boundary_fixed_point(grig.state("a")) is None
        assert boundary_fixed_point(grig.state("e")) is None
        assert boundary_fixed_point(grig.state("b")) is not None

    def test_lamplighter(self, lamp):
        x = boundary_fixed_point(lamp.state("p"))
        assert x is not None
        status, _ = fixed_walk(lamp.state("p"), x)
        assert status == BOUNDARY

    def test_everywhere_moving_state(self, adding):
        assert boundary_fixed_point(adding.state("a")) is None
        assert boundary_fixed_point(adding.state("a")) is None


class TestHausdorffWitness:
    def test_grigorchuk_returns_d_at_all_ones(self, grig):
        witness = hausdorff_witness(grig)
        assert witness is not None
        g, x = witness
        assert g == grig.state("d")
        assert x == Point((), (1,))
        status, visited = fixed_walk(g, x)
        assert status == BOUNDARY
        assert all(interiorizable(v) for v in visited)

    def test_hausdorff_machines_return_none(self, adding, lamp):
        assert hausdorff_witness(adding) is None
        assert hausdorff_witness(lamp) is None

    def test_ternary_witness(self, ternary):
        witness = hausdorff_witness(ternary)
        assert witness is not None
        g, x = witness
        assert g == ternary.state("u")
        assert x == Point((), (1,))


class TestDangerous:
    def test_grigorchuk_points(self, grig):
        assert is_dangerous(grig, parse_point("(1)", 2))
        assert is_dangerous(grig, parse_point("0(1)", 2))
        assert is_dangerous(grig, parse_point("10(1)", 2))
        assert not is_dangerous(grig, parse_point("(0)", 2))
        assert not is_dangerous(grig, parse_point("01(10)", 2))

    def test_boundary_without_interior_is_safe(self, lamp):
        # p fixes (0) forever but nothing trivializes, so no germ ambiguity
        assert not is_dangerous(lamp, parse_point("(0)", 2))
        assert not is_dangerous(lamp, parse_point("(1)", 2))

    def test_free_machine(self, adding):
        for text in ["(0)", "(1)", "01(10)"]:
            assert not is_dangerous(adding, parse_point(text, 2))


def reference_is_dangerous(machine, x):
    """is_dangerous as it stood before the greatest fixed point: one lasso
    per shift of x and per eligible state."""
    mm, _, eligible = fixedpoints._witness_states(machine)
    for n in range(len(x.preperiod) + len(x.period)):
        y = x.shift(n)
        for q in eligible:
            states, _ = state_lasso(mm.state(q), y)
            if all(s in eligible and mm.outputs[s][y.letter(i)] == y.letter(i)
                   for i, s in enumerate(states)):
                return True
    return False


def traced_lines(fn, *args):
    """Lines of Python executed by fn(*args), nested calls included."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


class TestDangerousReference:
    def test_matches_the_lasso_loop(self, bundled, ternary):
        """Seeded points with preperiods up to 50 letters on the bundled
        machines and on random ones; three in four end in a cycle that an
        eligible state fixes where the machine has one, so both verdicts
        occur often."""
        rng = random.Random(3103)
        machines = [*bundled.values(), ternary]
        tally = {True: 0, False: 0}
        for k in range(600):
            m = machines[k % 4] if k % 2 else random_raw_machine(rng)
            d = m.alphabet_size
            pre = random_word(rng, d, rng.randint(0, 50))
            period = random_word(rng, d, rng.randint(1, 4))
            if k % 4 < 3:
                oracle = RawOracle(m)
                cycles = [v for q in range(m.size) for _, v in oracle.points(q, oracle.eligible)]
                if cycles:
                    period = rng.choice(cycles)
            x = Point(pre, period)
            verdict = is_dangerous(m, x)
            assert verdict == reference_is_dangerous(m, x), (m.outputs, m.transitions, x)
            tally[verdict] += 1
        assert min(tally.values()) >= 40, tally

    def test_preperiod_adds_no_steps(self, grig):
        """0^k(1) on grigorchuk is dangerous for every k, and the verdict
        costs the same number of executed lines at k = 3,000 as at k = 1:
        the lasso loop's cost grew with k squared."""
        is_dangerous(grig, parse_point("(1)", 2))  # minimise once
        counts = {}
        for k in (1, 3000):
            x = Point((0,) * k, (1,))
            assert is_dangerous(grig, x)
            counts[k] = traced_lines(is_dangerous, grig, x)
        assert counts[1] == counts[3000] < 2000, counts

    def test_long_period(self, grig):
        """A period of n letters costs at most linearly many lines in n."""
        counts = {}
        for n in (100, 200):
            x = Point((), (1,) * (n - 1) + (0,))
            assert is_dangerous(grig, x) == reference_is_dangerous(grig, x)
            counts[n] = traced_lines(is_dangerous, grig, x)
        assert counts[200] <= 2.1 * counts[100], counts


class TestCsv:
    def test_golden_prefix(self, grig):
        csv = fixed_counts_csv(fixed_counts(grig.state("d"), 3))
        lines = csv.splitlines()
        assert lines[0] == "k,f_k,i_k,P_k,P_k_over_dk_num,P_k_over_dk_den,P_k_over_dk_float"
        assert lines[1] == "0,1,0,1,1,1,1.0"
        assert lines[2] == "1,2,1,1,1,2,0.5"
        assert lines[3] == "2,4,2,2,1,2,0.5"
        assert lines[4] == "3,6,4,2,1,4,0.25"
        assert csv.endswith("\n")


# ---------------------------------------------------------------------------
# the block solve of the fixed-measure system against the dense solve


def reference_bareiss(A, b):
    """Bareiss elimination with Fraction back-substitution, as the dense
    solve ran it."""
    n = len(A)
    M = [list(A[i]) + [b[i]] for i in range(n)]
    prev = 1
    for k in range(n):
        piv = max(range(k, n), key=lambda r: abs(M[r][k]))
        assert M[piv][k] != 0, "singular reference system"
        M[k], M[piv] = M[piv], M[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n + 1):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        s = Fraction(M[i][n]) - sum(Fraction(M[i][j]) * x[j] for j in range(i + 1, n))
        x[i] = s / M[i][i]
    return x


def dense_system(m):
    """(states, A, b) of d*mu(q) - sum_{x fixed, q|x != e} mu(q|x) =
    #{x fixed : q|x = e} over every non-identity state of m."""
    d = m.alphabet_size
    others = [q for q in range(m.size) if q != m.identity]
    idx = {q: i for i, q in enumerate(others)}
    A = [[0] * len(others) for _ in others]
    b = [0] * len(others)
    for q in others:
        A[idx[q]][idx[q]] += d
        for x in range(d):
            if m.outputs[q][x] == x:
                t = m.transitions[q][x]
                if t == m.identity:
                    b[idx[q]] += 1
                else:
                    A[idx[q]][idx[t]] -= 1
    return others, A, b


def reference_mu_table(m):
    """mu(Fix_q) for every state of a minimised machine from one dense
    system over all its states: the solve the block solve replaced."""
    others, A, b = dense_system(m)
    table = [Fraction(1)] * m.size
    for q, x in zip(others, reference_bareiss(A, b) if others else []):
        table[q] = x
    return table


def random_closure_machine(rng, n, d):
    """n states over d letters plus e: each output row the identity with
    probability 1/2, successors uniform over the states and e."""
    letters = tuple(range(d))
    outputs, transitions = [], []
    for _ in range(n):
        outputs.append(letters if rng.random() < 0.5 else tuple(rng.sample(letters, d)))
        transitions.append(tuple(rng.randrange(n + 1) for _ in letters))
    return Machine(d, outputs + [letters], transitions + [(n,) * d], identity=n)


def spinal_machine(rng, d):
    """a cycles the root letters; b0..b(k-1) fix the root, put a or e below
    letters 0..d-2 and pass the last letter to the next b."""
    k = rng.randint(3, 9)
    a, e = k, k + 1
    letters = tuple(range(d))
    cycle = tuple((x + 1) % d for x in letters)
    transitions = [tuple(rng.choice((a, e)) for _ in range(d - 1)) + ((i + 1) % k,)
                   for i in range(k)]
    i = rng.randrange(k)
    transitions[i] = (a,) + transitions[i][1:]
    return Machine(d, [letters] * k + [cycle, letters],
                   transitions + [(e,) * d, (e,) * d], identity=e)


def fixed_reach(m, q):
    seen, todo = {q}, [q]
    while todo:
        s = todo.pop()
        for x in range(m.alphabet_size):
            t = m.transitions[s][x]
            if m.outputs[s][x] == x and t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


class TestBlockSolveOracle:
    def machines(self):
        rng = random.Random(5151)
        for n in (3, 5, 8, 12, 20, 30, 40, 60, 80) * 2:
            yield random_closure_machine(rng, n, rng.choice((2, 3)))
        for _ in range(10):
            yield spinal_machine(rng, rng.choice((2, 3)))

    def test_every_state_matches_dense_solve(self):
        largest = 0
        for m in self.machines():
            mm, mapping = minimize(m)
            want = reference_mu_table(mm)
            state_of = {mm.state(p): p for p in range(mm.size)}
            for q in range(m.size):
                c = m.state(q).canonical()
                assert mu_fix_exact(m.state(q)) == want[mapping[q]]
                # the canonical machine's one table covers the states
                # below fixed letters, and every value in it is right
                table = _mu_table(c.machine, c.state)
                assert set(table) >= fixed_reach(c.machine, c.state) | (
                    set() if c.machine.identity is None else {c.machine.identity})
                for s, value in table.items():
                    assert value == want[state_of[Aut(c.machine, s)]]
            largest = max(largest, len(dense_system(mm)[0]))
        assert largest >= 50

    def test_table_filled_in_any_order(self):
        """One table per machine, extended start by start in random orders,
        holds exactly the states below fixed letters of the starts so far,
        each with the dense solve's value."""
        rng = random.Random(5353)
        for m in self.machines():
            mm = minimize(m)[0]
            want = reference_mu_table(mm)
            for _ in range(3):
                fresh = Machine(mm.alphabet_size, mm.outputs, mm.transitions,
                                identity=mm.identity)
                expected = set() if mm.identity is None else {mm.identity}
                for start in rng.sample(range(mm.size), mm.size):
                    table = _mu_table(fresh, start)
                    expected |= fixed_reach(mm, start)
                    assert set(table) == expected
                    assert all(table[q] == want[q] for q in table)

    def test_matches_sympy_rational_solve(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(5252)
        for m in (random_closure_machine(rng, 12, 2), random_closure_machine(rng, 15, 3),
                  spinal_machine(rng, 3)):
            mm, mapping = minimize(m)
            others, A, b = dense_system(mm)
            sol = sympy.Matrix(A).LUsolve(sympy.Matrix(b))
            want = {q: Fraction(int(v.p), int(v.q)) for q, v in zip(others, sol)}
            for q in range(m.size):
                assert mu_fix_exact(m.state(q)) == want.get(mapping[q], 1)
        # a 150-state machine, through sympy's fraction-free integer solve
        # (LUsolve over the rationals takes half a minute at this size)
        matrices = pytest.importorskip("sympy.polys.matrices")
        m = random_closure_machine(rng, 150, 2)
        mm, mapping = minimize(m)
        others, A, b = dense_system(mm)
        assert len(others) >= 140
        n = len(A)
        num, den = matrices.DomainMatrix(A, (n, n), sympy.ZZ).solve_den(
            matrices.DomainMatrix([[v] for v in b], (n, 1), sympy.ZZ))
        want = {q: Fraction(int(num[i, 0].element), int(den)) for i, q in enumerate(others)}
        for q in range(m.size):
            assert mu_fix_exact(m.state(q)) == want.get(mapping[q], 1)


class TestDegenerate:
    def test_identity_only_machine(self):
        m = parse_machine("alphabet 2\nstate z perm 0 1 to z z\n")
        g = m.state("z")
        assert g.is_identity()
        assert mu_fix_exact(g) == 1
        assert boundary_null_certificate(g).holds
        assert hausdorff_witness(m) is None


# ---------------------------------------------------------------------------
# random machines against enumeration of words and points on the raw tables


def random_raw_machine(rng):
    """n <= 6 states over 2 or 3 letters, half the output rows the identity;
    most machines carry a designated identity state, some none at all."""
    n = rng.randint(1, 6)
    d = rng.choice((2, 3))
    letters = tuple(range(d))
    identity = n - 1 if rng.random() < 0.75 else None
    outputs, transitions = [], []
    for q in range(n):
        if q == identity:
            outputs.append(letters)
            transitions.append((q,) * d)
            continue
        outputs.append(letters if rng.random() < 0.5 else tuple(rng.sample(letters, d)))
        transitions.append(tuple(rng.randrange(n) for _ in letters))
    return Machine(d, outputs, transitions, identity=identity)


def fixed_prefixes(m, q, length, ok=lambda s: True):
    """(word, states) for every word of at most `length` letters that q
    fixes with every restriction satisfying ok; states[i] is q's
    restriction below word[:i].

    Words are not extended below a state whose raw row is the identity
    with self-loops, since nothing below it is moved.
    """
    d = m.alphabet_size
    letters = tuple(range(d))
    stack = [((), (q,))] if ok(q) else []
    while stack:
        w, states = stack.pop()
        yield w, states
        s = states[-1]
        if len(w) == length or (m.outputs[s] == letters and set(m.transitions[s]) == {s}):
            continue
        for x in range(d):
            t = m.transitions[s][x]
            if m.outputs[s][x] == x and ok(t):
                stack.append((w + (x,), states + (t,)))


class RawOracle:
    """Answers from enumerating words of length <= n + 1 on the raw tables.

    A state that moves anything moves a word of length <= n; a state that
    fixes some cylinder with trivial restriction does so below a word of
    length < n; and a point fixed with every restriction in some set has
    a prefix u v, |u| + |v| <= n, with the restrictions below u and below
    u v equal (pigeonhole), so u(v) is such a point.
    """

    def __init__(self, m):
        self.m = m
        n = m.size
        self.moved = []  # shortest moved word length, None if trivial
        for q in range(n):
            lengths = [len(w) + 1 for w, states in fixed_prefixes(m, q, n)
                       if any(m.outputs[states[-1]][x] != x
                              for x in range(m.alphabet_size))]
            self.moved.append(min(lengths, default=None))
        self.interior = [
            any(self.moved[states[-1]] is None for _, states in fixed_prefixes(m, q, n))
            for q in range(n)]

    def nontrivial(self, s):
        return self.moved[s] is not None

    def eligible(self, s):
        return self.moved[s] is not None and self.interior[s]

    def points(self, q, ok):
        """(u, v) for points u(v), |u| + |v| <= n + 1, fixed by q with every
        restriction along them satisfying ok."""
        for w, states in fixed_prefixes(self.m, q, self.m.size + 1, ok):
            for i in range(len(w)):
                if states[i] == states[-1]:
                    yield w[:i], w[i:]

    def walk_ok(self, q, x, ok):
        """q fixes x and every restriction along x satisfies ok."""
        m = self.m
        s = q
        for i in range(len(x.preperiod) + len(x.period) * (m.size + 1)):
            a = x.letter(i)
            if not ok(s) or m.outputs[s][a] != a:
                return False
            s = m.transitions[s][a]
        return True

    def dangerous(self, x):
        suffixes = {x.shift(k) for k in range(len(x.preperiod) + len(x.period))}
        return any(self.walk_ok(q, y, self.eligible)
                   for y in suffixes for q in range(self.m.size))


class TestRandomMachinesAgainstEnumeration:
    def test_fixed_point_structure(self):
        rng = random.Random(2718)
        outcomes = {name: {True: 0, False: 0}
                    for name in ("interiorizable", "boundary", "hausdorff", "dangerous")}
        for _ in range(400):
            m = random_raw_machine(rng)
            oracle = RawOracle(m)
            n, d = m.size, m.alphabet_size
            assert distinguishing_depth(m) == max(
                (v for v in oracle.moved if v is not None), default=1)
            eligible_points = []
            for q in range(n):
                assert interiorizable(m.state(q)) == oracle.interior[q]
                outcomes["interiorizable"][oracle.interior[q]] += 1
                x = boundary_fixed_point(m.state(q))
                assert (x is not None) == any(oracle.points(q, oracle.nontrivial))
                if x is not None:
                    assert len(x.preperiod) + len(x.period) <= n
                    assert oracle.walk_ok(q, x, oracle.nontrivial)
                outcomes["boundary"][x is not None] += 1
                eligible_points += oracle.points(q, oracle.eligible)
            witness = hausdorff_witness(m)
            assert (witness is not None) == bool(eligible_points)
            outcomes["hausdorff"][witness is not None] += 1
            if witness is not None:
                g, x = witness
                reduced = RawOracle(g.machine)
                assert reduced.walk_ok(g.state, x, reduced.eligible)
            candidates = [Point(random_word(rng, d, rng.randint(0, 2)),
                                random_word(rng, d, rng.randint(1, 2)))]
            if eligible_points:
                u, v = rng.choice(eligible_points)
                candidates.append(Point(random_word(rng, d, rng.randint(0, 2)) + u, v))
            for x in candidates:
                verdict = is_dangerous(m, x)
                assert verdict == oracle.dangerous(x), (m.outputs, m.transitions, x)
                outcomes["dangerous"][verdict] += 1
        assert all(min(c.values()) >= 20 for c in outcomes.values()), outcomes


# ---------------------------------------------------------------------------
# the column-gather count kernel against the per-state recursion it replaced


def reference_fixed_counts(g, depth):
    """f_k, i_k and live_k by the per-state recursion that ran before the
    column kernel: both recursions at every depth, one sum per state."""
    c = g.canonical()
    m = c.machine

    def succ(q):
        return [m.transitions[q][x] for x in range(m.alphabet_size)
                if m.outputs[q][x] == x]

    reach, seen = [c.state], {c.state}
    for q in reach:
        for t in succ(q):
            if t not in seen:
                seen.add(t)
                reach.append(t)
    pos = {q: i for i, q in enumerate(reach)}
    below = [[pos[t] for t in succ(q)] for q in reach]
    f = [1] * len(reach)
    a = [0 if q == m.identity else 1 for q in reach]
    fs = [f[0]]
    live = [a[0]]
    for _ in range(depth):
        f = [sum(f[t] for t in row) for row in below]
        a = [sum(a[t] for t in row) for row in below]
        fs.append(f[0])
        live.append(a[0])
    interior = tuple(fk - ak for fk, ak in zip(fs, live))
    return FixCounts(m.alphabet_size, tuple(fs), interior, tuple(live))


def reference_certificate(g):
    """The certificate as it was built from both recursions, with the
    distinguishing depth computed afresh."""
    m = g.canonical().machine
    p = distinguishing_depth(m)
    n = max(1, min(12, 60 // p))
    counts = reference_fixed_counts(g, p * n)
    d = m.alphabet_size
    checks = tuple((k, counts.live[p * k], (d ** p - 1) ** k) for k in range(1, n + 1))
    return DecayCertificate(d, p, checks)


def layered_machine(rng, n, d, with_identity):
    """n states over d letters in a few layers, successors in the same or
    a later layer (and e, if present), so the machine has several strongly
    connected components; a few states duplicate another's rows, so the
    machine is not minimal."""
    letters = tuple(range(d))
    layer = sorted(rng.randrange(rng.randint(2, 4)) for _ in range(n))
    outputs, transitions = [], []
    for q in range(n):
        later = [t for t in range(n) if layer[t] >= layer[q]] + ([n] if with_identity else [])
        outputs.append(letters if rng.random() < 0.5 else tuple(rng.sample(letters, d)))
        transitions.append(tuple(rng.choice(later) for _ in letters))
    for q in rng.sample(range(n), n // 5):
        source = rng.choice([t for t in range(n) if layer[t] == layer[q]])
        outputs[q], transitions[q] = outputs[source], transitions[source]
    if with_identity:
        return Machine(d, outputs + [letters], transitions + [(n,) * d], identity=n)
    return Machine(d, outputs, transitions)


class TestCountKernelOracle:
    def machines(self):
        rng = random.Random(6161)
        for d in (2, 3, 4):
            for with_identity in (True, False):
                for n in (4, 7, 12, 20, 30):
                    yield layered_machine(rng, n, d, with_identity)

    def test_random_machines_match_reference(self):
        several_sccs = with_identity = without_identity = 0
        rng = random.Random(6262)
        for m in self.machines():
            mm = minimize(m)[0]
            several_sccs += len(list(strong_components(range(mm.size),
                                                       mm.transitions.__getitem__))) >= 3
            with_identity += mm.identity is not None
            without_identity += mm.identity is None
            for q in range(m.size):
                g = m.state(q)
                for depth in (0, 1, rng.randint(2, 59), 60):
                    assert fixed_counts(g, depth) == reference_fixed_counts(g, depth)
                assert boundary_null_certificate(g) == reference_certificate(g)
        assert several_sccs >= 10 and with_identity >= 10 and without_identity >= 3

    def test_bundled_and_ternary_states_match_reference(self, bundled, ternary):
        for m in list(bundled.values()) + [ternary]:
            for g in m.states():
                for depth in (0, 1, 7, 30, 60):
                    assert fixed_counts(g, depth) == reference_fixed_counts(g, depth)
                assert boundary_null_certificate(g) == reference_certificate(g)

    def test_reports_match_reference(self, bundled, ternary):
        # states 0 and 1 are equal; each row is named after the least input
        # state of its class, so state 2's row is q2 (its quotient index is 1)
        unnamed = Machine(2, [(1, 0), (1, 0), (0, 1), (0, 1)],
                          [(3, 3), (3, 3), (0, 3), (3, 3)], identity=3)
        assert minimize(unnamed)[0].size == 3
        assert essential_freeness_report(unnamed).rows == (
            ("q0", Fraction(0)), ("q2", Fraction(1, 2)))
        for m in list(bundled.values()) + [ternary] + list(self.machines()) + [unnamed]:
            mapping = minimize(m)[1]
            report = essential_freeness_report(m)
            least = [q for q in range(m.size) if mapping[q] not in mapping[:q]]
            states = [q for q in least if not m.state(q).is_identity()]
            assert report.certificates == tuple(
                reference_certificate(m.state(q)) for q in states)
            assert report.rows == tuple((m.name_of(q), mu_fix_exact(m.state(q)))
                                        for q in states)
            for q in range(m.size):
                c = m.state(q).canonical()
                assert closure_boundary_null(c) == all(
                    reference_certificate(c.machine.state(s)).holds
                    for s in range(c.machine.size))

    def test_depth_memo_cold_and_warm(self, monkeypatch):
        machines = list(self.machines())
        for m in machines:
            for q in range(m.size):
                m.state(q).canonical().machine._memo.pop("depth", None)
        cold = {}
        for m in machines:
            for q in range(m.size):
                g = m.state(q)
                M = g.canonical().machine
                cold[m, q] = boundary_null_certificate(g)
                assert M._memo["depth"] == distinguishing_depth(M) == cold[m, q].depth

        def refuse(machine):
            raise AssertionError("distinguishing depth recomputed")

        monkeypatch.setattr(fixedpoints, "distinguishing_depth", refuse)
        for m in machines:
            for q in range(m.size):
                assert boundary_null_certificate(m.state(q)) == cold[m, q]


# ---------------------------------------------------------------------------
# one numbering of minimal machines: the quotient's, with report rows and
# witnesses listed and named by least input state


def raw_mu_table(m):
    """mu(Fix_q) for every state of a machine that need not be minimal,
    from one dense system over the states oracle_trivial finds nontrivial;
    trivial states have measure 1."""
    d = m.alphabet_size
    trivial = [oracle_trivial(m, q) for q in range(m.size)]
    others = [q for q in range(m.size) if not trivial[q]]
    idx = {q: i for i, q in enumerate(others)}
    A = [[0] * len(others) for _ in others]
    b = [0] * len(others)
    for q in others:
        A[idx[q]][idx[q]] += d
        for x in range(d):
            t = m.transitions[q][x]
            if m.outputs[q][x] != x:
                continue
            if trivial[t]:
                b[idx[q]] += 1
            else:
                A[idx[q]][idx[t]] -= 1
    table = [Fraction(1)] * m.size
    for q, x in zip(others, reference_bareiss(A, b) if others else []):
        table[q] = x
    return table


class TestOneNumbering:
    def machines(self):
        rng = random.Random(1717)
        return [layered_machine(rng, rng.randint(5, 7), rng.choice((2, 3)),
                                rng.random() < 0.75) for _ in range(120)]

    def test_interned_machines_and_quotients_number_themselves(self):
        for m in self.machines():
            mm = minimize(m)[0]
            assert mealy._quotient(mm.outputs, mm.transitions)[2] == list(range(mm.size))
            for q in range(m.size):
                m.state(q).canonical()
        interned = list(mealy._interned.values())
        assert len(interned) >= 50
        for M in interned:
            assert mealy._quotient(M.outputs, M.transitions)[2] == list(range(M.size))
            assert "rank" not in M._memo

    def test_values_cold_and_warm(self):
        machines = self.machines()
        mus = [raw_mu_table(m) for m in machines]
        oracles = [RawOracle(m) for m in machines]
        for m in machines:
            for q in range(m.size):
                memo = m.state(q).canonical().machine._memo
                for key in ("mu", "depth", "boundary_null"):
                    memo.pop(key, None)
        for warm in (False, True):
            nonminimal = witnesses = 0
            for m, mu, oracle in zip(machines, mus, oracles):
                mapping = minimize(m)[1]
                nonminimal += len(set(mapping)) < m.size
                for q in range(m.size):
                    g = m.state(q)
                    assert mu_fix_exact(g) == mu[q], (warm, m.outputs, m.transitions, q)
                    assert boundary_null_certificate(g) == reference_certificate(g)
                witness = hausdorff_witness(m)
                eligible = [q for q in range(m.size)
                            if any(oracle.points(q, oracle.eligible))]
                assert (witness is not None) == bool(eligible)
                if witness is not None:
                    g, x = witness
                    witnesses += 1
                    assert g.machine is m and g.state in eligible
                    assert g.state == mapping.index(mapping[g.state])
                    assert oracle.walk_ok(g.state, x, oracle.eligible)
            assert nonminimal >= 80 and witnesses >= 15, (nonminimal, witnesses)
