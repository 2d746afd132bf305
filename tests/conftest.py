"""Shared fixtures: bundled machines, an inline ternary machine, random elements."""

from __future__ import annotations

import random
from fractions import Fraction
from importlib import resources

import pytest

from germtrace import (
    AlgebraElement,
    DomainError,
    Machine,
    PartialMap,
    Point,
    RepMatrix,
    Scalar,
    apply_to_point,
    parse_machine,
    unit_germ,
)
from germtrace import mealy
from germtrace.convalg import ZERO


# the machines the session fixtures built: the memos of their states sit
# on their quotients (see pop_memos)
FIXTURE_MACHINES: list[Machine] = []


def _fixture_machine(text: str) -> Machine:
    FIXTURE_MACHINES.append(parse_machine(text))
    return FIXTURE_MACHINES[-1]


def _bundled(name: str) -> Machine:
    return _fixture_machine(resources.files("germtrace.data").joinpath(f"{name}.gt").read_text())


@pytest.fixture(scope="session")
def grig() -> Machine:
    return _bundled("grigorchuk")


@pytest.fixture(scope="session")
def adding() -> Machine:
    return _bundled("adding")


@pytest.fixture(scope="session")
def lamp() -> Machine:
    return _bundled("lamplighter")


@pytest.fixture(scope="session")
def bundled(grig, adding, lamp) -> dict[str, Machine]:
    return {"grigorchuk": grig, "adding": adding, "lamplighter": lamp}


TERNARY_TEXT = """\
alphabet 3
state s perm 1 2 0 to e s t
state t perm 0 2 1 to s e t
state u perm 0 1 2 to t u e
"""


@pytest.fixture(scope="session")
def ternary() -> Machine:
    return _fixture_machine(TERNARY_TEXT)


def random_word(rng: random.Random, d: int, length: int) -> tuple[int, ...]:
    return tuple(rng.randrange(d) for _ in range(length))


def random_state_expr(rng, names, d, depth=0):
    """A state expression over names with products, inverses,
    restrictions and parentheses, spaced at random."""
    def space():
        return rng.choice(["", "", " "])

    factors = []
    for _ in range(rng.randint(1, 3)):
        if depth < 2 and rng.random() < 0.3:
            atom = f"({space()}{random_state_expr(rng, names, d, depth + 1)}{space()})"
        else:
            atom = rng.choice(names)
        for _ in range(rng.choice([0, 0, 1, 2])):
            if rng.random() < 0.5:
                atom += f"{space()}^-1"
            else:
                atom += f"{space()}|" + "".join(map(str, random_word(rng, d, rng.randint(1, 3))))
        factors.append(atom)
    return f"{space()}*{space()}".join(factors)


def random_scalar(rng: random.Random, complex_ok: bool = True) -> Scalar:
    def frac() -> Fraction:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))

    re = frac()
    im = frac() if complex_ok and rng.random() < 0.5 else Fraction(0)
    if re == 0 and im == 0:
        re = Fraction(1)
    return Scalar(re, im)


def random_element(
    machine: Machine,
    rng: random.Random,
    max_terms: int = 3,
    max_depth: int = 2,
    complex_ok: bool = True,
    diagonal: bool = False,
    off_diagonal: bool = False,
) -> AlgebraElement:
    """Random span element of shift indicators with small rational coefficients."""
    d = machine.alphabet_size
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        state = machine.state(rng.randrange(machine.size))
        length = rng.randint(0, max_depth)
        v = random_word(rng, d, length)
        if diagonal:
            u = v
        else:
            u = random_word(rng, d, length)
            if off_diagonal:
                while u == v:
                    length = max(1, length)
                    v = random_word(rng, d, length)
                    u = random_word(rng, d, length)
        label = machine.name_of(state.state)
        pm = PartialMap(state, u, v, label=label)
        terms[pm] = terms.get(pm, Scalar(Fraction(0))) + random_scalar(rng, complex_ok)
    return AlgebraElement(machine, terms)


def random_machine(rng, n, d):
    """n states plus the identity (the last state): each output row is the
    identity with probability 1/2, successors are uniform over all states."""
    letters = tuple(range(d))
    outputs, transitions = [], []
    for _ in range(n):
        outputs.append(letters if rng.random() < 0.5 else tuple(rng.sample(letters, d)))
        transitions.append(tuple(rng.randrange(n + 1) for _ in letters))
    return Machine(d, outputs + [letters], transitions + [(n,) * d], identity=n)


def spinal_chain(rng, d):
    """A Grigorchuk-like machine: state 0 cycles the root letters, the
    spinal states 1..k fix the root, put state 0 or the identity below
    letters 0..d-2 and hand the last letter to the next spinal state."""
    k = rng.randint(3, 9)
    e = k + 1
    outputs = [tuple((x + 1) % d for x in range(d))] + [tuple(range(d))] * (k + 1)
    transitions = [(e,) * d]
    for i in range(k):
        transitions.append(tuple(rng.choice((0, e)) for _ in range(d - 1))
                           + (1 + (i + 1) % k,))
    return Machine(d, outputs, transitions + [(e,) * d], identity=e)


def zero_quartet(rng, m):
    """c(q1 - q2 - q3 + q4) for four new states of m with the identity
    output row, acting as x, x, w, w below letter 0, as y, z, y, z below
    letter 1 and as r below the other letters, for distinct x, w and
    distinct y, z of m.  Every germ class sums to 0 whatever the germs of
    x, w and of y, z do, so the element is zero, and its walk follows
    pairs of m's own restrictions."""
    d, n = m.alphabet_size, m.size
    canonical = [m.state(q).canonical() for q in range(n)]
    while True:
        x, w, y, z, r = (rng.randrange(n) for _ in range(5))
        if canonical[x] != canonical[w] and canonical[y] != canonical[z]:
            break
    quads = [(a, b) + (r,) * (d - 2) for a in (x, w) for b in (y, z)]
    mm = Machine(d, [*m.outputs, *[tuple(range(d))] * 4], [*m.transitions, *quads],
                 identity=m.identity)
    c = random_scalar(rng)
    return AlgebraElement(mm, [(c * sign, PartialMap(mm.state(n + i), (), ()))
                               for i, sign in enumerate((1, -1, -1, 1))])


def memo_machines() -> list[Machine]:
    """The interned machines and the quotients of the fixture machines: the
    minimal machines that hold the memos of the fixtures' states and of
    their products."""
    return [*mealy._interned.values(), *(mealy._minimized(m)[0] for m in FIXTURE_MACHINES)]


def pop_memos(*kinds: str) -> None:
    """Drop the memo entries of these kinds ("germ", "after", "compose",
    "inverse", "unit", ...) from memo_machines().  A test that needs them
    dropped from another machine's quotient builds that machine afresh."""
    for m in memo_machines():
        for key in [k for k in m._memo if (k if isinstance(k, str) else k[0]) in kinds]:
            del m._memo[key]


def reference_quotient(outputs, transitions):
    """mealy._quotient before its signatures became integers, kept
    verbatim: each round ranks the tuples (class, successor classes)."""
    block, count = None, 0
    signatures = outputs
    while True:
        rank = {s: r for r, s in enumerate(sorted(set(signatures)))}
        if len(rank) == count:  # no class split: the names are final
            break
        block, count = [rank[s] for s in signatures], len(rank)
        at = block.__getitem__
        signatures = [(b, tuple(map(at, row))) for b, row in zip(block, transitions)]
    member = dict(zip(block, range(len(block))))  # class -> one of its states
    member = [member[c] for c in range(count)]
    return (tuple(outputs[q] for q in member),
            tuple(tuple(map(at, transitions[q])) for q in member),
            block)


# Methods the library dropped for want of a caller there, kept as test
# oracles written with its public API.

def evaluate(a: AlgebraElement, germ) -> Scalar:
    """Value of the function a represents at a germ: the sum of the
    coefficients of the terms whose germ at its base it is."""
    x = germ.base
    return sum((c for b, c in a.terms.items() if b.contains_base(x) and b.germ_at(x) == germ),
               ZERO)


def is_termwise_zero(a: AlgebraElement) -> bool:
    return not a.terms


def apply_point(pmap: PartialMap, x: Point) -> Point:
    """The image of a point of pmap's source cylinder."""
    if not pmap.contains_base(x):
        raise DomainError("point lies outside the source cylinder")
    y = apply_to_point(pmap.state, x.shift(len(pmap.source_prefix)))
    return Point(pmap.range_prefix + y.preperiod, y.period)


def is_identity_map(pmap: PartialMap) -> bool:
    return pmap.range_prefix == pmap.source_prefix and pmap.state.is_identity()


def is_unit(germ) -> bool:
    return germ == unit_germ(germ.map.alphabet_size, germ.base)


def fixes_base(germ) -> bool:
    return germ.range() == germ.base


def conjugate_transpose(rep: RepMatrix) -> RepMatrix:
    n = rep.size
    rows = tuple(tuple(rep.entries[j][i].conjugate() for j in range(n)) for i in range(n))
    return RepMatrix(rep.labels, rows, rep.closed)


# Acceptance criteria report one line each at the end of the run.
ACCEPTANCE_RESULTS: list[tuple[int, str, str, str]] = []


def record_criterion(number: int, title: str, status: str, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((number, title, status, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, title, status, detail in sorted(ACCEPTANCE_RESULTS):
        line = f"criterion {number:2d} [{status}] {title}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)
