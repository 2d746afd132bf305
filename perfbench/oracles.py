"""Independent oracles, run after the timed stream.

They read the raw tables of the machine text the benchmark generated and
act letter by letter; none of them calls the germtrace function whose
answer it checks.
"""

from __future__ import annotations

from fractions import Fraction

# Prime modulus for the fixed-measure check: a wrong rational agrees with
# the true one modulo P only if P divides their difference's numerator.
P = (1 << 61) - 1


class RawMachine:
    """The state tables of a machine file, parsed without germtrace."""

    def __init__(self, text: str):
        self.d = None
        self.out: dict[str, tuple[int, ...]] = {}
        self.succ: dict[str, tuple[str, ...]] = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].split()
            if not line:
                continue
            if line[0] == "alphabet":
                self.d = int(line[1])
                continue
            name, d = line[1], self.d
            self.out[name] = tuple(int(p) for p in line[3:3 + d])
            self.succ[name] = tuple(line[4 + d:4 + 2 * d])
        if "e" not in self.out:
            self.out["e"] = tuple(range(self.d))
            self.succ["e"] = ("e",) * self.d
        self.names = list(self.out)
        self._trivial = None

    def trivial(self) -> set[str]:
        """States acting as the identity: the greatest set of states with
        identity output whose successors all lie in the set."""
        if self._trivial is None:
            ident = tuple(range(self.d))
            s = {q for q in self.names if self.out[q] == ident}
            changed = True
            while changed:
                changed = False
                for q in list(s):
                    if any(t not in s for t in self.succ[q]):
                        s.discard(q)
                        changed = True
            self._trivial = s
        return self._trivial

    def closure(self, q: str) -> list[str]:
        seen, order = {q}, [q]
        for s in order:
            for t in self.succ[s]:
                if t not in seen:
                    seen.add(t)
                    order.append(t)
        return order

    def fixed_letters(self, q: str):
        return [x for x in range(self.d) if self.out[q][x] == x]


def mu_mod_p(raw: RawMachine) -> dict[str, int]:
    """mu(Fix_q) mod P for every state, solving the defining equations
    d*mu(q) = sum over fixed letters x of mu(q|x), mu = 1 on trivial states,
    by sparse Gauss-Jordan elimination over GF(P)."""
    triv = raw.trivial()
    rows: dict[str, dict[str, int]] = {}
    rhs: dict[str, int] = {}
    for q in raw.names:
        if q in triv:
            continue
        row = {q: raw.d}
        b = 0
        for x in raw.fixed_letters(q):
            t = raw.succ[q][x]
            if t in triv:
                b += 1
            else:
                row[t] = row.get(t, 0) - 1
        rows[q] = {k: v % P for k, v in row.items() if v % P}
        rhs[q] = b % P
    # rows and variables share names; eliminate each variable using its
    # own row when possible, else any remaining row that contains it
    pending = set(rows)
    solved: dict[str, str] = {}  # variable -> pivot row
    for v in list(rows):
        piv = v if v in pending and rows[v].get(v) else next(
            (r for r in pending if rows[r].get(v)), None)
        if piv is None:
            raise ArithmeticError("fixed-measure system singular mod P")
        pending.discard(piv)
        prow = rows[piv]
        inv = pow(prow[v], P - 2, P)
        for k in prow:
            prow[k] = prow[k] * inv % P
        rhs[piv] = rhs[piv] * inv % P
        for r, row in rows.items():
            f = row.get(v)
            if r == piv or not f:
                continue
            for k, pv in prow.items():
                nv = (row.get(k, 0) - f * pv) % P
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
            rhs[r] = (rhs[r] - f * rhs[piv]) % P
        solved[v] = piv
    mu = {q: 1 for q in triv}
    for v, piv in solved.items():
        mu[v] = rhs[piv]
    return mu


def fraction_matches(value: Fraction, residue: int) -> bool:
    return value.denominator % P != 0 and (
        value.numerator - residue * value.denominator) % P == 0


def live_counts(raw: RawMachine, depth: int) -> list[dict[str, int]]:
    """live_k(q): words of length k fixed by q with a nontrivial restriction
    below, for k = 0..depth, by the recursion over fixed letters."""
    triv = raw.trivial()
    a = {q: 0 if q in triv else 1 for q in raw.names}
    levels = [a]
    fixed = {q: raw.fixed_letters(q) for q in raw.names}
    for _ in range(depth):
        a = {q: sum(a[raw.succ[q][x]] for x in fixed[q]) for q in raw.names}
        levels.append(a)
    return levels


def moving_depth(raw: RawMachine, q: str) -> int:
    """Least p such that every nontrivial state reachable from q moves a
    word of length at most p (1 when the closure is trivial)."""
    triv = raw.trivial()
    ident = tuple(range(raw.d))
    depth = {s: 1 for s in raw.names if raw.out[s] != ident}
    changed = True
    while changed:  # Bellman-Ford over identity-output states
        changed = False
        for s in raw.names:
            if s in triv or raw.out[s] != ident:
                continue
            known = [depth[t] for t in raw.succ[s] if t in depth]
            if known and min(known) + 1 < depth.get(s, len(raw.names) + 2):
                depth[s] = min(known) + 1
                changed = True
    return max([depth[s] for s in raw.closure(q) if s not in triv], default=1)


def has_hausdorff_witness(raw: RawMachine) -> bool:
    """Some nontrivial state with an interiorizable closure along a fixed
    infinite path: an infinite path in the fixed-letter graph restricted
    to nontrivial states that reach a trivial state by fixed letters."""
    triv = raw.trivial()
    inter = set(triv)
    changed = True
    while changed:
        changed = False
        for q in raw.names:
            if q not in inter and any(raw.succ[q][x] in inter
                                      for x in raw.fixed_letters(q)):
                inter.add(q)
                changed = True
    nodes = {q for q in inter if q not in triv}
    alive = set(nodes)
    changed = True
    while changed:
        changed = False
        for q in list(alive):
            if not any(raw.succ[q][x] in alive for x in raw.fixed_letters(q)):
                alive.discard(q)
                changed = True
    return bool(alive)


def point_letters(pre, per, n: int) -> list[int]:
    return [pre[i] if i < len(pre) else per[(i - len(pre)) % len(per)]
            for i in range(n)]


def parse_point_text(text: str):
    pre, per = text.rstrip(")").split("(")
    return tuple(map(int, pre)), tuple(map(int, per))


def act_on_prefix(raw: RawMachine, word: list[str], letters: list[int]) -> list[int]:
    """Image of a finite word under the product word[0]*...*word[-1] (the
    rightmost factor acts first); names ending in '^-1' act inversely."""
    for name in reversed(word):
        inverse = name.endswith("^-1")
        q = name[:-3] if inverse else name
        res = []
        for y in letters:
            x = raw.out[q].index(y) if inverse else y
            res.append(raw.out[q][x] if not inverse else x)
            q = raw.succ[q][x]
        letters = res
    return letters


class LevelAction:
    """Permutations of the words of one length under single factors."""

    def __init__(self, raw: RawMachine, depth: int):
        self.raw = raw
        self.words = [[]]
        for _ in range(depth):
            self.words = [w + [x] for w in self.words for x in range(raw.d)]
        self.index = {tuple(w): i for i, w in enumerate(self.words)}
        self.perms: dict[str, list[int]] = {}

    def perm(self, factor: str) -> list[int]:
        p = self.perms.get(factor)
        if p is None:
            p = [self.index[tuple(act_on_prefix(self.raw, [factor], w))]
                 for w in self.words]
            self.perms[factor] = p
        return p

    def fixes_level(self, word: list[str]) -> bool:
        """True iff the product fixes every word of this length."""
        img = list(range(len(self.words)))
        for factor in reversed(word):
            p = self.perm(factor)
            img = [p[i] for i in img]
        return img == list(range(len(self.words)))


def walk_status(raw: RawMachine, q: str, pre, per) -> str:
    """moved / interior / boundary for state q along the point pre(per)."""
    triv = raw.trivial()
    seen = set()
    i = 0
    while True:
        if q in triv:
            return "interior"
        phase = i - len(pre)
        if phase >= 0:
            key = (q, phase % len(per))
            if key in seen:
                return "boundary"
            seen.add(key)
        x = pre[i] if i < len(pre) else per[phase % len(per)]
        if raw.out[q][x] != x:
            return "moved"
        q = raw.succ[q][x]
        i += 1
