"""Fixed words, fixed-point measures and boundary fixed points.

For a state g over a d-letter alphabet write f_k for the number of words
of length k fixed by g, i_k for those fixed with trivial restriction
below, and live_k = f_k - i_k for the fixed words below which g still
acts.  The live counts decay geometrically relative to d^k, which makes
the boundary of the fixed set null for the uniform Bernoulli measure and
lets the common value mu(Fix) = mu(int Fix) be solved exactly from a
linear system over the states that g reaches through letters they fix.
That system is solved block by block, one strongly connected component
of the fixed-letter graph at a time, sinks first.  The essential-freeness
report collects the measure and the decay certificate of every state.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add

from .errors import SingularSystemError
from .mealy import (Aut, Machine, _least_states, _minimized, backward_distances,
                    distinguishing_depth, forward_closure, infinite_path_nodes,
                    strong_components)
from .points import Point, check_letters


@dataclass(frozen=True)
class FixCounts:
    """Per-depth fixed-word counts for one automorphism."""

    alphabet_size: int
    fixed: tuple[int, ...]     # f_k
    interior: tuple[int, ...]  # i_k: fixed words with trivial restriction
    live: tuple[int, ...]      # f_k - i_k

    @property
    def depth(self) -> int:
        return len(self.fixed) - 1


def _fixed_successors(m: Machine):
    """succ for the graph helpers: a state's restrictions below the
    letters it fixes."""
    return lambda q: [m.transitions[q][x] for x in range(m.alphabet_size)
                      if m.outputs[q][x] == x]


def _word_counts(m: Machine, start: int, depth: int, live: bool) -> list[int]:
    """Number of words of length k = 0 .. depth that start fixes: all of
    them, or with live only those below which the restriction is not e.

    One column per letter runs over the states start reaches through
    letters they fix, start first.  It holds the position of each state's
    restriction below the letter, or -1 if the state moves the letter,
    and slot -1 of the count vector always holds 0.  A depth step sums
    the counts gathered through every column, a chain of maps with no
    Python frame per state.  m must be minimal, so e is its only trivial
    state.
    """
    reach = forward_closure([start], _fixed_successors(m))
    pos = {q: i for i, q in enumerate(reach)}
    rows = [(m.outputs[q], m.transitions[q]) for q in reach]
    first, *rest = [[pos[t[x]] if o[x] == x else -1 for o, t in rows]
                    for x in range(m.alphabet_size)]
    counts = [0 if live and q == m.identity else 1 for q in reach]
    counts.append(0)
    found = [counts[0]]
    for _ in range(depth):
        at = counts.__getitem__
        step = map(at, first)
        for column in rest:
            step = map(add, step, map(at, column))
        counts = [*step, 0]
        found.append(counts[0])
    return found


def fixed_counts(g: Aut, depth: int) -> FixCounts:
    """Exact counts for k = 0 .. depth: f_k and live_k each from the
    state-closure recursion of _word_counts on g's canonical form."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    c = g.canonical()
    fs = _word_counts(c.machine, c.state, depth, False)
    live = _word_counts(c.machine, c.state, depth, True)
    interior = tuple(fk - ak for fk, ak in zip(fs, live))
    return FixCounts(c.machine.alphabet_size, tuple(fs), interior, tuple(live))


def fixed_counts_csv(counts: FixCounts) -> str:
    lines = ["k,f_k,i_k,P_k,P_k_over_dk_num,P_k_over_dk_den,P_k_over_dk_float"]
    for k in range(counts.depth + 1):
        frac = Fraction(counts.live[k], counts.alphabet_size ** k)
        lines.append(
            f"{k},{counts.fixed[k]},{counts.interior[k]},{counts.live[k]},"
            f"{frac.numerator},{frac.denominator},{float(frac)!r}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DecayCertificate:
    """Checked witnesses that live counts die off relative to d^k.

    depth is the least p such that every nontrivial state of the closure
    moves some word of length <= p; each check records (k, live count at
    depth p*k, bound (d^p - 1)^k).  Together with the bound's derivation
    this certifies live_k / d^k -> 0, i.e. the fixed set's boundary is
    null, and that the fixed-measure linear system is invertible.
    """

    alphabet_size: int
    depth: int
    checks: tuple[tuple[int, int, int], ...]

    @property
    def holds(self) -> bool:
        return all(count <= bound for _, count, bound in self.checks)


def boundary_null_certificate(g: Aut) -> DecayCertificate:
    """Decay checks at k = 1 .. n, n = 60 // depth clamped to 1 .. 12.

    Only the live counts are run, to depth p*n.  The depth p is memoised
    on the canonical machine, next to its mu table.
    """
    c = g.canonical()
    m = c.machine
    p = m._memo.get("depth")
    if p is None:
        p = m._memo["depth"] = distinguishing_depth(m)
    n = max(1, min(12, 60 // p))
    live = _word_counts(m, c.state, p * n, True)
    d = m.alphabet_size
    checks = tuple((k, live[p * k], (d ** p - 1) ** k) for k in range(1, n + 1))
    return DecayCertificate(d, p, checks)


def closure_boundary_null(g: Aut) -> bool:
    """True iff every state of g's closure passes its decay certificate.

    The verdict is memoised once per canonical machine.
    """
    m = g.canonical().machine
    verdict = m._memo.get("boundary_null")
    if verdict is None:
        verdict = all(boundary_null_certificate(m.state(q)).holds
                      for q in range(m.size))
        m._memo["boundary_null"] = verdict
    return verdict


# ---------------------------------------------------------------------------
# exact fixed-point measure

def _solve_integer_system(A, b):
    """Fraction-free Gaussian elimination (Bareiss), pivoting on the first
    nonzero entry of each column.

    A and b hold integers; the exact rational solution is returned.  Every
    entry after step k is a minor of the input, so neither exactness nor
    entry growth depends on which nonzero pivot is taken.  Step
    k multiplies a row with 0 in the pivot column by pivot_k / pivot_(k-1)
    and nothing else, so on sparse systems those factors are deferred and
    applied at once when the row is next used: row i holds the entries of
    step level[i], which are zero exactly where the caught-up entries are,
    so pivots are found among the stored entries.  A column that is zero
    from row k down makes the system singular.  After
    elimination the last pivot is det, and y = det*x is integral, so the
    back-substitution runs in integers and each x_i is y_i / det.
    """
    n = len(A)
    M = [list(A[i]) + [b[i]] for i in range(n)]
    level = [0] * n
    pivots = [1]  # pivots[k] divides the entry updates of step k

    def catch_up(i, k):
        if level[i] < k:
            num, den = pivots[k], pivots[level[i]]
            M[i][level[i]:] = [a * num // den for a in M[i][level[i]:]]
            level[i] = k

    for k in range(n):
        piv = next((r for r in range(k, n) if M[r][k]), None)
        if piv is None:
            raise SingularSystemError("fixed-measure system is singular")
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            level[k], level[piv] = level[piv], level[k]
        catch_up(k, k)
        top = M[k]
        pk, prev = top[k], pivots[k]
        for i in range(k + 1, n):
            if M[i][k]:
                catch_up(i, k)
                row = M[i]
                f = row[k]
                row[k + 1:] = [(a * pk - f * c) // prev
                               for a, c in zip(row[k + 1:], top[k + 1:])]
                row[k] = 0
                level[i] = k + 1
        pivots.append(pk)
    det = pivots[n]
    y = [0] * n
    for i in reversed(range(n)):
        s = det * M[i][n] - sum(M[i][j] * y[j] for j in range(i + 1, n))
        y[i] = s // M[i][i]
    return [Fraction(yi, det) for yi in y]


def _mu_table(m: Machine, start: int) -> dict[int, Fraction]:
    """mu(Fix_q) for e and for every state q that start reaches through
    letters they fix, in a minimised machine.

    The machine keeps one table, which each call extends by the states
    not solved yet, so one table serves every state of a canonical
    machine.

    Solves d*mu(q) = sum over fixed letters x of mu(q|_x) with mu(e) = 1.
    The interior measures satisfy the identical system, and the decay
    certificate makes the system matrix invertible, so the one solution
    serves as both mu(Fix_q) and mu(int Fix_q).

    mu(q) depends only on the states below q's fixed letters, so the
    strongly connected components of that graph are solved one at a time,
    sinks first: a singleton takes one division, and a larger block runs
    Bareiss on its own rows, with the already solved values moved to the
    right-hand side and scaled by the lcm of their denominators.  The
    system matrix is block-triangular, so it is singular iff some block
    is.  A singular block would consist of states that fix every letter
    and stay inside the block; such states act trivially, and a minimised
    machine has none besides e.
    """
    mu = m._memo.get("mu")
    if mu is None:
        mu = m._memo["mu"] = {} if m.identity is None else {m.identity: Fraction(1)}
    if start in mu:
        return mu
    d = m.alphabet_size
    succ = _fixed_successors(m)
    # the solved states are closed under succ: only new blocks remain
    for block in strong_components([start], lambda q: [t for t in succ(q) if t not in mu]):
        if len(block) == 1:
            q = block[0]
            below = succ(q)
            diagonal = d - below.count(q)
            if diagonal == 0:
                raise SingularSystemError("fixed-measure system is singular")
            mu[q] = sum((mu[t] for t in below if t != q), Fraction(0)) / diagonal
            continue
        idx = {q: i for i, q in enumerate(block)}
        A = [[0] * len(block) for _ in block]
        known = [[] for _ in block]
        for q, i in idx.items():
            A[i][i] += d
            for t in succ(q):
                if t in idx:
                    A[i][idx[t]] -= 1
                else:
                    known[i].append(mu[t])
        scale = lcm(*(v.denominator for row in known for v in row))
        b = [sum(v.numerator * (scale // v.denominator) for v in row) for row in known]
        for q, x in zip(block, _solve_integer_system(A, b)):
            mu[q] = x / scale
    return mu


def mu_fix_exact(g: Aut) -> Fraction:
    """Bernoulli measure of the fixed set of g (equals that of its interior)."""
    c = g.canonical()
    return _mu_table(c.machine, c.state)[c.state]


@dataclass(frozen=True)
class FreenessReport:
    """Proof data for essential freeness of the germ groupoid's measure.

    Essential freeness asks that every shift's non-unit isotropy sits
    over a null set, i.e. mu(Fix_q minus int Fix_q) = 0 per state; the
    decay certificates materialize exactly that, and the single rational
    per state serves as both the interior and the total fixed measure.
    """

    rows: tuple[tuple[str, Fraction], ...]
    certificates: tuple[DecayCertificate, ...]

    @property
    def essentially_free(self) -> bool:
        return all(c.holds for c in self.certificates)

    @property
    def topologically_free(self) -> bool:
        """A cylinder of fixed points forces a trivial restriction.

        Interior fixed points carry only unit germs by construction of
        germs, so the germ groupoid's isotropy is trivial on a dense
        open set whenever the action is faithful; nothing to compute.
        """
        return True


def essential_freeness_report(machine: Machine) -> FreenessReport:
    """Certify essential freeness of the state action, with exact measures.

    For every nontrivial state the decay certificate pins the boundary
    of its fixed set as null, which is the essential-freeness condition
    shift by shift; the reported measure is mu(Fix) = mu(int Fix).  Rows
    are the classes of the quotient (mealy._minimized), listed and named
    by their least input states (mealy._least_states).
    """
    mm = _minimized(machine)[0]
    rows = []
    certs = []
    for c, q in _least_states(machine).items():
        if c == mm.identity:
            continue
        aut = mm.state(c)
        rows.append((machine.name_of(q), mu_fix_exact(aut)))
        certs.append(boundary_null_certificate(aut))
    return FreenessReport(tuple(rows), tuple(certs))


# ---------------------------------------------------------------------------
# boundary fixed points and the Hausdorff test

def _interior_depths(m: Machine) -> dict[int, int]:
    """State -> length of a shortest word it fixes with trivial restriction.

    Only interiorizable states appear; the identity maps to 0.  Computed
    afresh on each call: one backward search over the fixed-letter graph.
    """
    targets = [] if m.identity is None else [m.identity]
    return backward_distances(range(m.size), _fixed_successors(m), targets)


def interiorizable(g: Aut) -> bool:
    """True iff g fixes some cylinder pointwise, i.e. int Fix_g is nonempty."""
    c = g.canonical()
    return c.state in _interior_depths(c.machine)


def _fixed_lasso(m: Machine, start: int, alive: set[int]) -> Point:
    """The point along which start fixes every letter and every restriction
    stays in alive, taking the smallest such letter at each step.

    start must lie in alive, a set of states each with an infinite fixed
    path inside it.
    """
    letters: list[int] = []
    pos = {start: 0}
    s = start
    while True:
        x = next(x for x in range(m.alphabet_size)
                 if m.outputs[s][x] == x and m.transitions[s][x] in alive)
        s = m.transitions[s][x]
        letters.append(x)
        if s in pos:
            j = pos[s]
            return Point(letters[:j], letters[j:])
        pos[s] = len(letters)


def _witness_states(machine: Machine):
    """(minimised machine, its interior depths, eligible states).

    A state is eligible iff it fixes some point along which every
    restriction is nontrivial and interiorizable.
    """
    mm = _minimized(machine)[0]
    depths = _interior_depths(mm)
    nodes = [q for q in depths if q != mm.identity]
    return mm, depths, infinite_path_nodes(nodes, _fixed_successors(mm))


def hausdorff_witness(machine: Machine):
    """A state q and point x witnessing that int Fix_q is not closed.

    Returns (state, point) with x fixed by q, every restriction along x
    nontrivial, and every one of those restrictions fixing some cylinder;
    x then lies in the closure of int Fix_q without being interior.  None
    means no machine state admits such a point, so the groupoid of germs
    of the machine's states (and of the cylinder shifts built from them)
    is Hausdorff.

    The eligible states are those with an infinite fixed path through
    nontrivial interiorizable states of the minimised machine.  Among
    them the one with the shortest trivially fixed word is reported as
    the least input state of its class (_least_states), ties broken by
    that state; the point walks smallest letters first inside them.
    """
    mm, depths, eligible = _witness_states(machine)
    if not eligible:
        return None
    least = _least_states(machine)
    chosen = min(eligible, key=lambda c: (depths[c], least[c]))
    return machine.state(least[chosen]), _fixed_lasso(mm, chosen, eligible)


def is_dangerous(machine: Machine, x: Point) -> bool:
    """True iff the unit at x is a limit of non-unit germs of shifted states.

    A cylinder shift carrying prefix u of x to itself contributes the
    germ of a state q at the shifted point y = x without u; that germ is
    a non-unit limit of units iff y is fixed by q, never with trivial
    restriction, while every restriction along y fixes some cylinder.
    Only the eligible states of hausdorff_witness need checking: such a
    state must fix every letter of y and stay among the eligible states.
    A state that does so from some position of x does so again from the
    next position where x's period starts, so only the period matters:
    x is dangerous iff some pair (eligible state, phase of the period)
    has an infinite path through such pairs, each fixing the phase's
    letter and moving to its restriction at the next phase.  That is one
    greatest fixed point over those pairs, linear in their number and
    independent of the preperiod's length.  A letter of x outside the
    alphabet raises DomainError.
    """
    mm, _, eligible = _witness_states(machine)
    check_letters(x, mm.alphabet_size)
    out, trans, per = mm.outputs, mm.transitions, x.period
    n = len(per)
    pairs = [(q, j) for j, a in enumerate(per) for q in eligible if out[q][a] == a]
    return bool(infinite_path_nodes(
        pairs, lambda pair: [(trans[pair[0]][per[pair[1]]], (pair[1] + 1) % n)]))
