"""Fixed words, fixed-point measures and boundary fixed points.

For a state g over a d-letter alphabet write f_k for the number of words
of length k fixed by g, i_k for those fixed with trivial restriction
below, and live_k = f_k - i_k for the fixed words below which g still
acts.  The live counts decay geometrically relative to d^k, which makes
the boundary of the fixed set null for the uniform Bernoulli measure and
lets the common value mu(Fix) = mu(int Fix) be solved exactly from a
small linear system over the state closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SingularSystemError
from .mealy import Aut, Machine, distinguishing_depth, minimize
from .points import BOUNDARY, Point, fixed_walk


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


def fixed_counts(g: Aut, depth: int) -> FixCounts:
    """Exact counts for k = 0 .. depth via the state-closure recursion."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    m = g.canonical().machine
    d = m.alphabet_size
    out, trans = m.outputs, m.transitions
    f = [1] * m.size
    a = [0 if q == m.identity else 1 for q in range(m.size)]
    fs = [f[0]]
    live = [a[0]]
    fixed_under = [tuple(x for x in range(d) if out[q][x] == x)
                   for q in range(m.size)]
    for _ in range(depth):
        f = [sum(f[trans[q][x]] for x in fixed_under[q]) for q in range(m.size)]
        a = [sum(a[trans[q][x]] for x in fixed_under[q]) for q in range(m.size)]
        fs.append(f[0])
        live.append(a[0])
    interior = tuple(fk - ak for fk, ak in zip(fs, live))
    return FixCounts(d, tuple(fs), interior, tuple(live))


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


def boundary_null_certificate(g: Aut, max_checks: int | None = None) -> DecayCertificate:
    m = g.canonical().machine
    p = distinguishing_depth(m)
    if max_checks is None:
        max_checks = max(1, min(12, 60 // p))
    counts = fixed_counts(g, p * max_checks)
    d = m.alphabet_size
    checks = tuple((k, counts.live[p * k], (d ** p - 1) ** k)
                   for k in range(1, max_checks + 1))
    return DecayCertificate(d, p, checks)


# ---------------------------------------------------------------------------
# exact fixed-point measure

def _solve_integer_system(A, b):
    """Fraction-free Gaussian elimination (Bareiss) with magnitude pivoting.

    A and b hold integers; the exact rational solution is returned.
    """
    n = len(A)
    M = [list(A[i]) + [b[i]] for i in range(n)]
    prev = 1
    for k in range(n):
        piv = max(range(k, n), key=lambda r: abs(M[r][k]))
        if M[piv][k] == 0:
            raise SingularSystemError("fixed-measure system is singular")
        if piv != k:
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


def _mu_table(m: Machine) -> tuple[Fraction, ...]:
    """mu(Fix_q) for every state of a minimised closure machine.

    Solves d*mu(q) = sum over fixed letters x of mu(q|_x) with mu(e) = 1.
    The interior measures satisfy the identical system, and the decay
    certificate makes the system matrix invertible, so the one solution
    serves as both mu(Fix_q) and mu(int Fix_q).
    """
    cached = m._memo.get("mu")
    if cached is not None:
        return cached
    d = m.alphabet_size
    others = [q for q in range(m.size) if q != m.identity]
    table = [Fraction(1)] * m.size
    if others:
        idx = {q: i for i, q in enumerate(others)}
        A = [[0] * len(others) for _ in others]
        b = [0] * len(others)
        for q in others:
            i = idx[q]
            A[i][i] += d
            for x in range(d):
                if m.outputs[q][x] == x:
                    t = m.transitions[q][x]
                    if t == m.identity:
                        b[i] += 1
                    else:
                        A[i][idx[t]] -= 1
        sol = _solve_integer_system(A, b)
        for q in others:
            table[q] = sol[idx[q]]
    cached = tuple(table)
    m._memo["mu"] = cached
    return cached


def mu_fix_exact(g: Aut) -> Fraction:
    """Bernoulli measure of the fixed set of g (equals that of its interior)."""
    c = g.canonical()
    return _mu_table(c.machine)[c.state]


# ---------------------------------------------------------------------------
# boundary fixed points and the Hausdorff test

def interiorizable(g: Aut) -> bool:
    """True iff g fixes some cylinder pointwise, i.e. int Fix_g is nonempty."""
    c = g.canonical()
    return c.state in _interiorizable_states(c.machine)


def _interiorizable_states(m: Machine) -> frozenset[int]:
    cached = m._memo.get("interiorizable")
    if cached is not None:
        return cached
    good: set[int] = set()
    if m.identity is not None:
        good.add(m.identity)
        changed = True
        while changed:
            changed = False
            for q in range(m.size):
                if q in good:
                    continue
                for x in range(m.alphabet_size):
                    if m.outputs[q][x] == x and m.transitions[q][x] in good:
                        good.add(q)
                        changed = True
                        break
    cached = frozenset(good)
    m._memo["interiorizable"] = cached
    return cached


def _interior_depth(m: Machine, q: int) -> int | None:
    """Length of a shortest word fixed by q with trivial restriction below."""
    if q == m.identity:
        return 0
    seen = {q}
    frontier = [q]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for s in frontier:
            for x in range(m.alphabet_size):
                if m.outputs[s][x] == x:
                    t = m.transitions[s][x]
                    if t == m.identity:
                        return depth
                    if t not in seen:
                        seen.add(t)
                        nxt.append(t)
        frontier = nxt
    return None


def _infinite_path_states(m: Machine, nodes: set[int], edges) -> set[int]:
    """Subset of nodes from which an infinite path inside nodes exists."""
    alive = set(nodes)
    changed = True
    while changed:
        changed = False
        for q in list(alive):
            if not any(t in alive for _, t in edges(q)):
                alive.discard(q)
                changed = True
    return alive


def _reaching(nodes: set[int], edges, targets: set[int]) -> set[int]:
    reach = set(targets)
    changed = True
    while changed:
        changed = False
        for q in nodes:
            if q not in reach and any(t in reach for _, t in edges(q)):
                reach.add(q)
                changed = True
    return reach


def _greedy_cycle_walk(start: int, edges_into) -> Point:
    """Trace a deterministic eventually periodic path, smallest letter first."""
    letters: list[int] = []
    pos = {start: 0}
    s = start
    while True:
        x, t = edges_into(s)
        letters.append(x)
        if t in pos:
            j = pos[t]
            return Point(letters[:j], letters[j:])
        pos[t] = len(letters)
        s = t


def boundary_fixed_point(g: Aut) -> Point | None:
    """A point fixed by g with every restriction along it nontrivial.

    Returns None iff no such point exists, i.e. Fix_g = int Fix_g.  The
    witness follows smallest letters first and is canonical.
    """
    c = g.canonical()
    m = c.machine
    nodes = {q for q in range(m.size) if q != m.identity}

    def edges(q):
        for x in range(m.alphabet_size):
            if m.outputs[q][x] == x:
                t = m.transitions[q][x]
                if t in nodes:
                    yield x, t

    alive = _infinite_path_states(m, nodes, edges)
    reach = _reaching(nodes, edges, alive)
    if c.state not in reach:
        return None

    def step(s):
        for x, t in edges(s):
            if t in reach:
                return x, t
        raise AssertionError("reaching set must have a successor")

    return _greedy_cycle_walk(c.state, step)


def has_boundary_fixed_point(g: Aut) -> bool:
    return boundary_fixed_point(g) is not None


def hausdorff_witness(machine: Machine):
    """A state q and point x witnessing that int Fix_q is not closed.

    Returns (state, point) with x fixed by q, every restriction along x
    nontrivial, and every one of those restrictions fixing some cylinder;
    x then lies in the closure of int Fix_q without being interior.  None
    means no machine state admits such a point, so the groupoid of germs
    of the machine's states (and of the cylinder shifts built from them)
    is Hausdorff.

    Among eligible states the one whose trivially-fixed cylinder is
    shallowest is reported, ties broken by machine order; the point walks
    smallest letters first.
    """
    mm, _ = minimize(machine)
    d = mm.alphabet_size
    inter = _interiorizable_states(mm)
    nodes = {q for q in range(mm.size) if q != mm.identity and q in inter}

    def edges(q):
        for x in range(d):
            if mm.outputs[q][x] == x:
                t = mm.transitions[q][x]
                if t in nodes:
                    yield x, t

    alive = _infinite_path_states(mm, nodes, edges)
    reach = _reaching(nodes, edges, alive)
    candidates = [q for q in sorted(nodes) if q in reach]
    if not candidates:
        return None
    chosen = min(candidates, key=lambda q: (_interior_depth(mm, q), q))

    def step(s):
        for x, t in edges(s):
            if t in reach:
                return x, t
        raise AssertionError("reaching set must have a successor")

    return mm.state(chosen), _greedy_cycle_walk(chosen, step)


def is_dangerous(machine: Machine, x: Point) -> bool:
    """True iff the unit at x is a limit of non-unit germs of shifted states.

    A cylinder shift carrying prefix u of x to itself contributes the
    germ of a state q at the shifted point y = x without u; that germ is
    a non-unit limit of units iff y is fixed by q, never with trivial
    restriction, while every restriction along y fixes some cylinder.
    Only the finitely many distinct suffixes of x need checking.
    """
    mm, _ = minimize(machine)
    for n in range(len(x.preperiod) + len(x.period)):
        y = x.shift(n)
        for q in range(mm.size):
            if q == mm.identity:
                continue
            status, states = fixed_walk(mm.state(q), y)
            if status == BOUNDARY and all(interiorizable(a) for a in states):
                return True
    return False
