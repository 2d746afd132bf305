"""One test per acceptance criterion; each reports a pass/fail summary line.

Every criterion is checked at its stated tolerance and budget.  Independent
oracles (exhaustive or pruned enumeration over raw transition tables) back
the derived exact values; nothing here trusts the recursion it is checking.
"""

import functools
import itertools
import json
import random
import time
from fractions import Fraction

from germtrace import (
    AlgebraElement,
    PartialMap,
    Point,
    Scalar,
    boundary_null_certificate,
    canonical_trace,
    fixed_counts,
    hausdorff_witness,
    indicator,
    is_dangerous,
    isotropy_defect,
    isotropy_trace,
    mu_fix_exact,
    parse_element,
    parse_point,
    rep_matrix,
    unit_element,
    unit_germ,
)
from germtrace.cli import main as cli_main

from conftest import TERNARY_TEXT, conjugate_transpose, random_element, record_criterion

HALF = Fraction(1, 2**20)


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                record_criterion(number, title, "FAIL", f"{type(exc).__name__}: {exc}")
                raise
            record_criterion(number, title, "PASS", detail or "")
        return wrapper
    return deco


# --- independent oracles over raw transition tables ------------------------

def tables_trivial(machine, q):
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


def enumerate_counts(machine, q, depth):
    """(f_k, i_k) by walking every word of every length. Exponential."""
    d = machine.alphabet_size
    trivial = [tables_trivial(machine, s) for s in range(machine.size)]
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


def pruned_counts(machine, q, depth):
    """(f_k, i_k) for k <= depth by depth-first search over fixed prefixes.

    Subtrees under a moved letter contain no fixed words and are pruned;
    subtrees under the identity state are fully fixed and interior, counted
    in closed form.  Visits only the live prefixes, so depth 20 is cheap.
    The identity-state shortcut is sound because the machine parser
    validates the designated identity row and (checked below) no other
    state acts trivially.
    """
    for s in range(machine.size):
        assert tables_trivial(machine, s) == (s == machine.identity)
    d = machine.alphabet_size
    fs = [0] * (depth + 1)
    interiors = [0] * (depth + 1)
    stack = [(q, 0)]
    while stack:
        s, k = stack.pop()
        if s == machine.identity:
            for j in range(k, depth + 1):
                fs[j] += d ** (j - k)
                interiors[j] += d ** (j - k)
            continue
        fs[k] += 1
        if k == depth:
            continue
        for x in range(d):
            if machine.outputs[s][x] == x:
                stack.append((machine.transitions[s][x], k + 1))
    return fs, interiors


# --- criteria ---------------------------------------------------------------

@criterion(1, "boundary-null certificates and measure bracket per state")
def test_criterion_1(bundled):
    worst = 0.0
    for mname, m in bundled.items():
        for g in m.states():
            start = time.perf_counter()
            cert = boundary_null_certificate(g)
            mu_total = mu_fix_exact(g)
            elapsed = time.perf_counter() - start
            worst = max(worst, elapsed)
            assert cert.holds, f"decay certificate failed for {mname}"
            for k, count, bound in cert.checks:
                assert count <= bound
            assert elapsed < 1.0, f"state of {mname} took {elapsed:.2f}s"
            counts = fixed_counts(g, 20)
            d = m.alphabet_size
            for k in range(21):
                assert Fraction(counts.interior[k], d**k) <= mu_total
                assert mu_total <= Fraction(counts.fixed[k], d**k)
    # Grigorchuk at k = 20: the bracket pins mu to within 2^-20 of the
    # midpoint; the live counts at depth 20 are known exactly.
    grig = bundled["grigorchuk"]
    live_20 = {}
    for name in "abcde":
        counts = fixed_counts(grig.state(name), 20)
        live_20[name] = counts.live[20]
        half_width = Fraction(counts.live[20], 2 * 2**20)
        assert half_width <= HALF, f"state {name}: half-width {half_width}"
    assert live_20 == {"a": 0, "b": 2, "c": 1, "d": 2, "e": 0}
    return f"all states certified; worst state {worst * 1000:.0f} ms"


@criterion(2, "mu(Fix_d) = 4/7 with independent brute-force bracket to k = 20")
def test_criterion_2(grig):
    start = time.perf_counter()
    mu = mu_fix_exact(grig.state("d"))
    assert mu == Fraction(4, 7)
    fs, interiors = pruned_counts(grig, grig.index_of("d"), 20)
    for k in range(21):
        assert Fraction(interiors[k], 2**k) <= Fraction(4, 7) <= Fraction(fs[k], 2**k)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    assert fs[20] - interiors[20] == 2
    return f"bracket down to width 2^-19 in {elapsed * 1000:.0f} ms"


@criterion(3, "recursion equals exhaustive enumeration for every bundled state")
def test_criterion_3(bundled, ternary):
    start = time.perf_counter()
    checked = 0
    for m in bundled.values():
        assert m.alphabet_size == 2
        for q in range(m.size):
            counts = fixed_counts(m.state(q), 10)
            fs, interiors = enumerate_counts(m, q, 10)
            assert list(counts.fixed) == fs
            assert list(counts.interior) == interiors
            assert list(counts.live) == [f - i for f, i in zip(fs, interiors)]
            checked += 1
    for q in range(ternary.size):
        counts = fixed_counts(ternary.state(q), 6)
        fs, interiors = enumerate_counts(ternary, q, 6)
        assert list(counts.fixed) == fs
        assert list(counts.interior) == interiors
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    return f"{checked} states, binary k<=10 and ternary k<=6, {elapsed:.1f}s"


@criterion(4, "isotropy trace equals canonical trace on 500 random elements per machine")
def test_criterion_4(bundled):
    start = time.perf_counter()
    rng = random.Random(2026)
    for m in bundled.values():
        tau_unit = canonical_trace(unit_element(m))
        assert tau_unit == Scalar(Fraction(1))
        assert isotropy_trace(unit_element(m)) == Scalar(Fraction(1))
        samples = [random_element(m, rng, max_terms=3) for _ in range(500)]
        for a in samples:
            assert canonical_trace(a) == isotropy_trace(a)
            gram = canonical_trace(a.adjoint() * a)
            assert gram.is_real() and gram.re >= 0
        for a, b in zip(samples[0::2], samples[1::2]):
            assert canonical_trace(a * b) == canonical_trace(b * a)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    return f"1500 samples, 750 commutators, {elapsed:.1f}s"


@criterion(5, "traces vanish on purely off-diagonal elements")
def test_criterion_5(bundled):
    rng = random.Random(505)
    zero = Scalar(Fraction(0))
    machines = list(bundled.values())
    for n in range(100):
        m = machines[n % len(machines)]
        a = random_element(m, rng, max_terms=3, off_diagonal=True)
        assert all(p.range_prefix != p.source_prefix for _, p in a.term_list())
        assert canonical_trace(a) == zero
        assert isotropy_trace(a) == zero
    return "100 off-diagonal elements, both traces exactly 0"


@criterion(6, "non-Hausdorff witness, dangerous point and the F - E gap")
def test_criterion_6(bundled):
    grig, adding = bundled["grigorchuk"], bundled["adding"]
    ones = parse_point("(1)", 2)
    witness = hausdorff_witness(grig)
    assert witness is not None
    g, x = witness
    assert g == grig.state("d") and x == ones
    assert is_dangerous(grig, ones)
    assert hausdorff_witness(adding) is None
    d_ind = indicator(grig, "d")
    assert d_ind.unit_restriction_eval(ones) == Scalar(Fraction(0))
    assert isotropy_defect(d_ind, ones) == Scalar(Fraction(1))
    return "witness (d, (1)); F(1_d)(1^inf) - E = 1"


@criterion(7, "algebra identities and *-axioms in the non-Hausdorff regime")
def test_criterion_7(bundled):
    grig = bundled["grigorchuk"]
    restricted = PartialMap(grig.state("d"), (), ()).restrict_source((0,))
    e00 = indicator(grig, "e", (0,), (0,))
    assert (AlgebraElement(grig, {restricted: Scalar(Fraction(1))}) - e00).is_zero()
    assert not (indicator(grig, "d") - indicator(grig, "e")).is_zero()
    rng = random.Random(707)
    machines = list(bundled.values())
    for n in range(200):
        m = machines[n % len(machines)]
        a = random_element(m, rng, max_terms=2)
        b = random_element(m, rng, max_terms=2)
        c = random_element(m, rng, max_terms=2)
        one = unit_element(m)
        assert (a * b) * c == a * (b * c)
        assert (a * b).adjoint() == b.adjoint() * a.adjoint()
        assert a.adjoint().adjoint() == a
        assert one * a == a and a * one == a
    return "zero/nonzero pins plus 200 random triples, exact"


@criterion(8, "representation truncation is multiplicative and *-compatible")
def test_criterion_8(grig):
    x = parse_point("(1)", 2)
    basis = [unit_germ(2, x)] + [
        PartialMap(grig.state(n), (), (), label=n).germ_at(x) for n in "bcd"
    ]
    rng = random.Random(808)

    def span_element():
        parts = [f"{rng.randint(-3, 3)} {name}:>" for name in "ebcd"]
        if rng.random() < 0.5:
            parts.append(f"{rng.randint(1, 2)}i {rng.choice('ebcd')}:>")
        return parse_element(grig, " ; ".join(parts))

    for _ in range(50):
        a, b = span_element(), span_element()
        ra = rep_matrix(a, x, basis)
        rb = rep_matrix(b, x, basis)
        assert ra.closed and rb.closed
        rab = rep_matrix(a * b, x, basis)
        assert ra.product(rb).entries == rab.entries
        assert rep_matrix(a.adjoint(), x, basis).entries == (
            conjugate_transpose(ra).entries
        )
        assert ra.entries[0][0] == a.unit_restriction_eval(x)
    return "50 random pairs on the closed Klein-four basis at (1)"


@criterion(9, "word problem regressions: torsion relations and infinite order")
def test_criterion_9(bundled):
    start = time.perf_counter()
    grig, adding = bundled["grigorchuk"], bundled["adding"]
    a, b, c, d, e = (grig.state(n) for n in "abcde")
    for g in (a, b, c, d):
        assert (g * g).is_identity()
    assert b * c == d and c * d == b and b * d == c
    assert (b * c * d).is_identity()
    odometer = adding.state("a")
    power = odometer
    for k in range(1, 65):
        assert not power.is_identity(), f"a^{k} collapsed"
        power = power * odometer
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    return f"relations and a^k != e for k <= 64 in {elapsed * 1000:.0f} ms"


@criterion(10, "CLI golden-file determinism across two runs")
def test_criterion_10(capsys):
    trace_elem = {"grigorchuk": "1 d:>", "adding": "1 a:>", "lamplighter": "1 p:>"}
    commands = []
    for machine in ("grigorchuk", "adding", "lamplighter"):
        commands.append(["fixmeasure", "-m", machine, "-s",
                         trace_elem[machine].split()[1].split(":")[0]])
        commands.append(["essfree", "-m", machine])
        commands.append(["hausdorff", "-m", machine])
        commands.append(["trace", "-m", machine, "-e", trace_elem[machine]])
    for argv in commands:
        outputs = []
        for _ in range(2):
            code = cli_main(list(argv))
            captured = capsys.readouterr()
            assert code == 0, f"{argv} exited {code}: {captured.err}"
            outputs.append(captured.out.encode())
        assert outputs[0] == outputs[1], f"nondeterministic output for {argv}"
        assert outputs[0]
    for fmt in ("csv", "json"):
        outputs = []
        argv = ["fixmeasure", "-m", "grigorchuk", "-s", "d", "--format", fmt]
        for _ in range(2):
            assert cli_main(list(argv)) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        if fmt == "json":
            json.loads(outputs[0])
    return "12 command/machine pairs plus csv/json, byte-identical"
