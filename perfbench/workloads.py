"""The benchmark's three workloads: seeded query lists and how each query runs.

`build` turns (workload, seed) into machine texts and a list of queries
without importing germtrace.  `run_query` executes one query through the
context's `call`, which records a span per call into a germtrace layer
when tracing is on, and returns a check that the oracles run after the
timed stream.

- measure-random: fixed-point measures on seeded random machines and
  spinal chains; the Bareiss solve in `fixedpoints` dominates and every
  (machine, state) pair is new, so caches are cold.
- iszero-random: `is_zero` on fresh random elements with known verdicts;
  `convalg` pattern search plus `mealy` compose/inverse/minimise, with no
  product repeated across queries.
- session-bundled: an interactive session on the bundled machines and one
  ternary machine; every canonical product is a warm intern hit and the
  linear systems are tiny, so germ scans, bisection products and word
  subproducts dominate.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import gen
import oracles

HERE = Path(__file__).resolve().parent
WORKLOADS = ("measure-random", "iszero-random", "session-bundled")

# measure-random: each block holds one machine per (n, d) family plus two
# spinal chains, shuffled, so any prefix of the stream mixes sizes evenly.
MEASURE_SIZES = (20, 40, 80, 150)
MEASURE_BLOCKS = 60

ISZERO_SIZES = (20, 40, 80)
ISZERO_BLOCKS = 100
CAP_SHARE = 0.2
# Elements have 2-5 terms; fewer on larger machines, where a 5-term bucket
# builds ten quotient machines of up to n^2 states and one query would
# take seconds.  The count cycles through its range within each family,
# since a bucket of k states builds k(k-1)/2 quotient machines and random
# counts moved the 90th percentile by 30% between seeds.
ISZERO_MAX_TERMS = {40: 4, 80: 3}

SESSION_QUERIES = 14000

# peak_rss_mb is read once this many queries are done, so commits of
# different speed are compared on the same work
RSS_AFTER = {"measure-random": 200, "iszero-random": 400, "session-bundled": 3000}

TERNARY = """\
# ternary machine used inline by the session workload
alphabet 3
state s perm 1 2 0 to e s t
state t perm 0 2 1 to s e t
state u perm 0 1 2 to t u e
"""

KLEIN_BASIS = ("e:>", "b:>", "c:>", "d:>")

RELATORS = {
    "grigorchuk": [["a", "a"], ["b", "b"], ["c", "c"], ["d", "d"], ["b", "c", "d"],
                   ["a", "d"] * 4, ["a", "c"] * 8],
    "adding": [],
    "lamplighter": [],
    "ternary": [],
}

# Random words, whose verdict is checked on all words of this length, are
# drawn only on these machines: products of random lamplighter or ternary
# words grow to thousands of states, so those machines get words that are
# the identity by construction.
WORD_CHECK_DEPTH = {"grigorchuk": 9, "adding": 7}

# Sorted by cost the kinds run walk, isotropy, zero, feval, algebra, cli,
# word, rep; these weights put the median inside algebra and the 90th
# percentile inside rep, away from the jumps between kinds.
SESSION_MIX = (("rep", 3), ("feval", 2), ("isotropy", 2), ("walk", 3),
               ("algebra", 3), ("zero", 2), ("word", 3), ("cli", 2))


def state_names(text: str) -> list[str]:
    return [line.split()[1] for line in text.splitlines() if line.startswith("state ")]


def bundled_text(root: Path, name: str) -> str:
    return (root / "src" / "germtrace" / "data" / f"{name}.gt").read_text(encoding="utf-8")


def cli_commands() -> list[list[str]]:
    """The criterion-10 command set plus rep, dangerous, alg and wordproblem."""
    trace_elem = {"grigorchuk": "1 d:>", "adding": "1 a:>", "lamplighter": "1 p:>"}
    cmds = []
    for m, elem in trace_elem.items():
        cmds.append(["fixmeasure", "-m", m, "-s", elem.split()[1].split(":")[0]])
        cmds.append(["essfree", "-m", m])
        cmds.append(["hausdorff", "-m", m])
        cmds.append(["trace", "-m", m, "-e", elem])
    for fmt in ("csv", "json"):
        cmds.append(["fixmeasure", "-m", "grigorchuk", "-s", "d", "--format", fmt])
    cmds += [
        ["rep", "-m", "grigorchuk", "-e", "1 b:>;2 c:>;-1 d:>", "-x", "(1)",
         "--basis", "e:>;b:>;c:>;d:>"],
        ["dangerous", "-m", "grigorchuk", "-x", "(1)"],
        ["dangerous", "-m", "grigorchuk", "-x", "0(1)"],
        ["dangerous", "-m", "adding", "-x", "(1)"],
        ["alg", "mult", "-m", "grigorchuk", "-e1", "1 b:>;1 a:0>1", "-e2", "1 c:>;-1 d:1>1"],
        ["alg", "add", "-m", "lamplighter", "-e1", "1 p:>", "-e2", "-1 q:0>0"],
        ["alg", "adjoint", "-m", "grigorchuk", "-e", "1/2+i a:0>1;2 d:>"],
        ["alg", "iszero", "-m", "grigorchuk", "-e", "1 d:>;-1 e:0>0;-1 b:1>1"],
        ["alg", "issingular", "-m", "grigorchuk", "-e", "1 d:>;-1 e:>"],
        ["wordproblem", "-m", "grigorchuk", "-s", "b*c*d"],
        ["wordproblem", "-m", "adding", "-s", "a*a*a^-1"],
        ["wordproblem", "-m", "lamplighter", "-s", "p*q^-1*p"],
    ]
    return cmds


def cli_key(argv: list[str]) -> str:
    return json.dumps(argv)


def load_golden() -> dict[str, str]:
    with open(HERE / "golden_cli.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# generation

def build(workload: str, seed: int, root: Path, smoke: bool = False):
    """(machine texts by name, query list) for a workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "measure-random":
        return _build_measure(rng, smoke)
    if workload == "iszero-random":
        return _build_iszero(rng, smoke)
    if workload == "session-bundled":
        return _build_session(rng, root, smoke)
    raise ValueError(f"unknown workload {workload!r}")


def _families(sizes, smoke):
    fams = [(n, d) for n in (sizes[:1] if smoke else sizes) for d in (2, 3)]
    return fams + [(None, 2), (None, 3)]


def _new_machine(rng, machines, n, d):
    name = f"m{len(machines)}"
    text = gen.spinal_chain(rng, d) if n is None else gen.random_machine(rng, n, d)
    machines[name] = text
    return name, text


def _build_measure(rng, smoke):
    machines, queries = {}, []
    for _ in range(1 if smoke else MEASURE_BLOCKS):
        fams = _families(MEASURE_SIZES, smoke)
        rng.shuffle(fams)
        for n, d in fams:
            name, text = _new_machine(rng, machines, n, d)
            states = state_names(text)
            picks = rng.sample(states, min(_measure_states(n, d), len(states)))
            for i, s in enumerate(picks):
                queries.append(("measure", name, s, i == 0))
    return machines, queries


def _measure_states(n, d):
    """States queried per machine.  Sorted by cost the families run spinal,
    20, 40, 80, 150, with d = 2 below d = 3 from n = 80 on.  These counts
    put the median in the middle of the n = 40 queries and the 90th
    percentile inside (150, 3), away from the several-fold jumps between
    sizes: 6 + 4 queries below n = 40, 4 at it, 6 + 4 above."""
    if n is None:
        return 3
    return 4 if (n, d) == (150, 3) else 2


def _nonzero_terms(rng, raw, names, count):
    """Distinct states at one common (range, source) pair with coefficients
    of positive real part: every germ class sums to a nonzero value."""
    k = rng.randint(0, 2)
    u, v = gen.random_word(rng, raw.d, k), gen.random_word(rng, raw.d, k)
    states = rng.sample(names, min(len(names), count))
    return [(gen.positive_scalar(rng), s, u, v) for s in states]


def _zero_terms(rng, raw, names, count):
    """An element minus its one-letter refinement: zero by construction."""
    base = []
    for _ in range(count):
        k = rng.randint(0, 1)
        base.append((gen.small_scalar(rng), rng.choice(names),
                     gen.random_word(rng, raw.d, k), gen.random_word(rng, raw.d, k)))
    return base + gen.negated(gen.one_letter_refinement(base, raw))


def _build_iszero(rng, smoke):
    machines, queries = {}, []
    made = {}  # elements per family so far: term counts cycle 2..max
    for _ in range(1 if smoke else ISZERO_BLOCKS):
        fams = _families(ISZERO_SIZES, smoke)
        rng.shuffle(fams)
        for n, d in fams:
            name, text = _new_machine(rng, machines, n, d)
            raw = oracles.RawMachine(text)
            names = state_names(text)
            for zero in (False, True, rng.random() < 0.5):
                i = made[n, d, zero] = made.get((n, d, zero), -1) + 1
                count = 2 + i % (ISZERO_MAX_TERMS.get(n, 5) - 1)
                terms = (_zero_terms if zero else _nonzero_terms)(rng, raw, names, count)
                cap = rng.randint(2, 40) if rng.random() < CAP_SHARE else None
                queries.append(("iszero", name, gen.element_text(terms), zero, cap))
    return machines, queries


def _identity_word(rng, gens, relators, length):
    """Conjugates of relators and of w*w^-1, which multiply to the identity."""
    word = []
    while len(word) < length:
        w = [rng.choice(gens) for _ in range(rng.randint(1, 4))]
        if relators and rng.random() < 0.5:
            core = rng.choice(relators)
        else:
            v = [rng.choice(gens) for _ in range(rng.randint(1, 4))]
            core = v + _inverse_word(v)
        word += w + core + _inverse_word(w)
    return word


def _inverse_word(word):
    return [f[:-3] if f.endswith("^-1") else f + "^-1" for f in reversed(word)]


def _build_session(rng, root, smoke):
    machines = {m: bundled_text(root, m) for m in ("grigorchuk", "adding", "lamplighter")}
    machines["ternary"] = TERNARY
    raws = {m: oracles.RawMachine(t) for m, t in machines.items()}
    names = {m: state_names(t) for m, t in machines.items()}
    kinds = [k for k, w in SESSION_MIX for _ in range(w)]
    cmds = cli_commands()
    queries = []
    for _ in range(60 if smoke else SESSION_QUERIES):
        kind = rng.choice(kinds)
        m = rng.choice(list(machines))
        raw, d = raws[m], raws[m].d
        if kind == "rep":
            def span():
                terms = [((Fraction(rng.randint(-3, 3)), Fraction(0)), s, (), ())
                         for s in "ebcd"]
                if rng.random() < 0.5:
                    terms.append(((Fraction(0), Fraction(rng.randint(1, 2))),
                                  rng.choice("ebcd"), (), ()))
                return terms
            queries.append(("rep", span(), "(1)"))
        elif kind in ("feval", "algebra"):
            def elem():
                terms = []
                for _ in range(rng.randint(1, 3)):
                    k = rng.randint(0, 1)
                    v = gen.random_word(rng, d, k)
                    u = v if rng.random() < 0.7 else gen.random_word(rng, d, k)
                    terms.append((gen.small_scalar(rng), rng.choice(names[m] + ["e"]), u, v))
                return terms
            if kind == "feval":
                queries.append(("feval", m, elem(), gen.random_point(rng, d)))
            else:
                queries.append(("algebra", m, elem(), elem()))
        elif kind == "isotropy":
            queries.append(("isotropy", m, gen.random_point(rng, d), rng.randint(0, 3)))
        elif kind == "walk":
            factors = [rng.choice(names[m]) for _ in range(rng.randint(1, 3))]
            queries.append(("walk", m, factors, gen.random_point(rng, d)))
        elif kind == "zero":
            zero = rng.random() < 0.5
            pool = names[m] + ["e"]
            terms = (_zero_terms if zero else _nonzero_terms)(rng, raw, pool, rng.randint(2, 3))
            op = rng.choice(("iszero", "issingular"))
            queries.append(("zero", m, gen.element_text(terms), zero, op))
        elif kind == "word":
            gens = names[m] + [f"{s}^-1" for s in names[m]]
            length = rng.randint(20, 60)
            if m not in WORD_CHECK_DEPTH or rng.random() < 0.5:
                queries.append(("word", m, _identity_word(rng, gens, RELATORS[m], length), True))
            else:
                queries.append(("word", m, [rng.choice(gens) for _ in range(length)], None))
        else:
            queries.append(("cli", cli_key(rng.choice(cmds))))
    return machines, queries


# ---------------------------------------------------------------------------
# execution

class Context:
    """Parsed machines, the tracer and oracle caches of one worker."""

    def __init__(self, gt, cli, machines, texts, tracer):
        self.gt = gt
        self.cli = cli
        self.machines = machines
        self.texts = texts
        self.call = tracer.call
        self.count = tracer.count
        self.peak = tracer.peak
        self._raw = {}
        self._mu = {}
        self._live = {}
        self._levels = {}
        self._klein = {}
        self.golden = load_golden() if cli is not None else None

    def raw(self, name):
        if name not in self._raw:
            self._raw[name] = oracles.RawMachine(self.texts[name])
        return self._raw[name]

    def mu(self, name):
        if name not in self._mu:
            self._mu[name] = oracles.mu_mod_p(self.raw(name))
        return self._mu[name]

    def live(self, name, depth):
        levels = self._live.get(name)
        if levels is None or len(levels) <= depth:
            levels = self._live[name] = oracles.live_counts(self.raw(name), depth)
        return levels

    def levels(self, name):
        if name not in self._levels:
            self._levels[name] = oracles.LevelAction(self.raw(name), WORD_CHECK_DEPTH[name])
        return self._levels[name]

    def klein(self, point):
        """rho of the generators e, b, c, d on the Klein-four basis, checked
        once: rho(gh) = rho(g) rho(h) and rho(g*) = rho(g)^*."""
        if point not in self._klein:
            gt, m = self.gt, self.machines["grigorchuk"]
            x = gt.parse_point(point, 2)
            basis = [gt.parse_shift(m, s).germ_at(x) for s in KLEIN_BASIS]
            elems = {s: gt.parse_element(m, f"1 {s}:>") for s in "ebcd"}
            gens = {s: _mat(gt.rep_matrix(e, x, basis)) for s, e in elems.items()}
            err = None
            for g, eg in elems.items():
                if _mat(gt.rep_matrix(eg.adjoint(), x, basis)) != _adjoint(gens[g]):
                    err = f"rho({g}*) != rho({g})^*"
                for h, eh in elems.items():
                    if _mat(gt.rep_matrix(eg * eh, x, basis)) != _matmul(gens[g], gens[h]):
                        err = f"rho({g}{h}) != rho({g}) rho({h})"
            self._klein[point] = (gens, err)
        return self._klein[point]

    def unit_value(self, name, terms, point):
        """E(a)(x) from the raw tables: coefficients of diagonal terms whose
        state fixes a neighbourhood of the shifted point."""
        raw = self.raw(name)
        pre, per = oracles.parse_point_text(point)
        re = im = Fraction(0)
        for (c_re, c_im), s, u, v in terms:
            n = len(v)
            if u != v or oracles.point_letters(pre, per, n) != list(v):
                continue
            spre, sper = shift_point(pre, per, n)
            if oracles.walk_status(raw, s, spre, sper) == "interior":
                re, im = re + c_re, im + c_im
        return re, im


def shift_point(pre, per, n):
    if n <= len(pre):
        return pre[n:], per
    k = (n - len(pre)) % len(per)
    return (), per[k:] + per[:k]


def _sc(s):
    return (s.re, s.im)


def _mat(rep):
    return [[_sc(s) for s in row] for row in rep.entries]


def _adjoint(a):
    n = len(a)
    return [[(a[j][i][0], -a[j][i][1]) for j in range(n)] for i in range(n)]


def _matmul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            re = im = Fraction(0)
            for k in range(n):
                (ar, ai), (br, bi) = a[i][k], b[k][j]
                re += ar * br - ai * bi
                im += ar * bi + ai * br
            row.append((re, im))
        out.append(row)
    return out


def _point_eq(p, pre, per):
    n = max(len(p.preperiod), len(pre)) + len(p.period) * len(per)
    return (oracles.point_letters(p.preperiod, p.period, n)
            == oracles.point_letters(pre, per, n))


def run_query(ctx: Context, q):
    return QUERY_KINDS[q[0]](ctx, *q[1:])


def _q_measure(ctx, name, state, with_hausdorff):
    gt, call = ctx.gt, ctx.call
    check_w = _q_hausdorff(ctx, name) if with_hausdorff else (lambda: None)
    c = call("mealy.canonical", ctx.machines[name].state(state).canonical)
    mu = call("fixedpoints.mu", gt.mu_fix_exact, c)
    cert = call("fixedpoints.certificate", gt.boundary_null_certificate, c)
    m = c.machine
    ctx.count("mealy.closure_states", m.size)
    ctx.count("fixedpoints.system_dim", m.size - (m.identity is not None))
    ctx.peak("fixedpoints.mu_bits", max(mu.numerator.bit_length(),
                                        mu.denominator.bit_length()))

    def check():
        raw = ctx.raw(name)
        if not oracles.fraction_matches(mu, ctx.mu(name)[state]):
            return f"mu({state}) = {mu} breaks the defining equations"
        if not cert.holds:
            return f"certificate of {state} fails"
        p = cert.depth
        if p != oracles.moving_depth(raw, state):
            return f"certificate depth {p} of {state} is not the moving depth"
        live = ctx.live(name, p * len(cert.checks))
        for k, count, bound in cert.checks:
            if count != live[p * k][state] or bound != (raw.d ** p - 1) ** k:
                return f"certificate check {k} of {state} disagrees with the tables"
        return check_w()
    return check


def _q_hausdorff(ctx, name):
    w = ctx.call("fixedpoints.hausdorff", ctx.gt.hausdorff_witness, ctx.machines[name])

    def check():
        raw = ctx.raw(name)
        if (w is not None) != oracles.has_hausdorff_witness(raw):
            return f"hausdorff witness {w!r} disagrees with the tables"
        if w is not None:
            state, point = w
            s = state.machine.name_of(state.state)
            if oracles.walk_status(raw, s, point.preperiod, point.period) != "boundary":
                return f"witness {s} does not fix {point!r} on the boundary"
        return None
    return check


def _q_iszero(ctx, name, text, zero, cap):
    gt = ctx.gt
    elem = ctx.call("convalg.parse", gt.parse_element, ctx.machines[name], text)
    ctx.count("convalg.terms", len(elem.terms))
    try:
        got = ctx.call("convalg.iszero", elem.is_zero, cap)
    except gt.CapExceededError:
        if cap is None:
            raise
        ctx.count("convalg.cap_refusals", 1)
        return lambda: None
    return lambda: None if got == zero else f"is_zero gave {got} for {text!r}"


def _q_rep(ctx, ta, point):
    """rho(a) on the Klein-four basis at (1)."""
    gt, call = ctx.gt, ctx.call
    m = ctx.machines["grigorchuk"]
    a = call("convalg.parse", gt.parse_element, m, gen.element_text(ta))
    x = gt.parse_point(point, 2)
    basis = [call("convalg.parse", gt.parse_shift, m, s).germ_at(x) for s in KLEIN_BASIS]
    ra = call("traces.rep_matrix", gt.rep_matrix, a, x, basis)
    ctx.count("traces.rep_entries", len(basis) ** 2)

    def check():
        # rho is linear, so rho(a) is the combination of the generators'
        # matrices, which Context.klein checks for multiplicativity and
        # adjoints once
        gens, err = ctx.klein(point)
        if err:
            return err
        want = [[(Fraction(0), Fraction(0))] * len(basis) for _ in basis]
        for (c_re, c_im), s, _, _ in ta:
            for i, row in enumerate(gens[s]):
                for j, (g_re, g_im) in enumerate(row):
                    w_re, w_im = want[i][j]
                    want[i][j] = (w_re + c_re * g_re - c_im * g_im,
                                  w_im + c_re * g_im + c_im * g_re)
        if not ra.closed or _mat(ra) != want:
            return "rho(a) is not the combination of the generators' matrices"
        if want[0][0] != ctx.unit_value("grigorchuk", ta, point):
            return "rho(a)[e, e] is not E(a)(x)"
        return None
    return check


def _q_feval(ctx, name, terms, point):
    gt, call = ctx.gt, ctx.call
    m = ctx.machines[name]
    a = call("convalg.parse", gt.parse_element, m, gen.element_text(terms))
    x = gt.parse_point(point, m.alphabet_size)
    f = call("traces.F_eval", gt.F_eval, a, x)
    defect = call("traces.F_eval", gt.isotropy_defect, a, x)

    def check():
        if (f.re - defect.re, f.im - defect.im) != ctx.unit_value(name, terms, point):
            return f"F - defect != E at {point} for {gen.element_text(terms)!r}"
        return None
    return check


def _q_isotropy(ctx, name, point, cap):
    gt = ctx.gt
    m = ctx.machines[name]
    x = gt.parse_point(point, m.alphabet_size)
    germs = ctx.call("germs.isotropy", gt.isotropy_germs_at, x, m, cap)
    ctx.count("germs.isotropy_germs", len(germs))
    found = [(g.map.label, g.map.range_prefix, g.map.source_prefix) for g in germs]

    def check():
        raw = ctx.raw(name)
        pre, per = oracles.parse_point_text(point)
        for label, u, v in found:
            if u != v or oracles.point_letters(pre, per, len(v)) != list(v):
                return f"isotropy germ {label} at {point} is not based on a prefix"
            if oracles.walk_status(raw, label, *shift_point(pre, per, len(v))) != "boundary":
                return f"isotropy germ {label}:{v} at {point} is not a boundary germ"
        any_boundary = any(
            oracles.walk_status(raw, s, *shift_point(pre, per, n)) == "boundary"
            for n in range(cap + 1) for s in raw.names)
        if any_boundary != bool(found):
            return f"isotropy at {point} missed or invented germs"
        return None
    return check


def _q_walk(ctx, name, factors, point):
    gt, call = ctx.gt, ctx.call
    m = ctx.machines[name]
    x = gt.parse_point(point, m.alphabet_size)
    g = call("mealy.word", gt.parse_state_expr, m, "*".join(factors))
    status, _ = call("points.fixed_walk", gt.fixed_walk, g, x)
    y = call("points.apply", gt.apply_to_point, g, x)

    def check():
        raw = ctx.raw(name)
        pre, per = oracles.parse_point_text(point)
        n = len(pre) + 2 * len(per) + len(y.preperiod) + 2 * len(y.period)
        if oracles.point_letters(y.preperiod, y.period, n) != oracles.act_on_prefix(
                raw, factors, oracles.point_letters(pre, per, n)):
            return f"apply_to_point({'*'.join(factors)}, {point}) disagrees with the tables"
        if (status == gt.MOVED) == _point_eq(y, pre, per):
            return f"fixed_walk status {status} contradicts the image of {point}"
        if len(factors) == 1 and status != oracles.walk_status(raw, factors[0], pre, per):
            return f"fixed_walk({factors[0]}, {point}) gave {status}"
        return None
    return check


def _q_algebra(ctx, name, ta, tb):
    gt, call = ctx.gt, ctx.call
    m = ctx.machines[name]
    a = call("convalg.parse", gt.parse_element, m, gen.element_text(ta))
    b = call("convalg.parse", gt.parse_element, m, gen.element_text(tb))
    ab = call("convalg.product", a.__mul__, b)
    ba = call("convalg.product", b.__mul__, a)
    astar = call("convalg.product", a.adjoint)
    t_ab = call("traces.trace", gt.canonical_trace, ab)
    t_ba = call("traces.trace", gt.canonical_trace, ba)
    phi_ab = call("traces.trace", gt.isotropy_trace, ab)
    t_a = call("traces.trace", gt.canonical_trace, a)
    t_astar = call("traces.trace", gt.canonical_trace, astar)

    def check():
        if _sc(t_ab) != _sc(t_ba):
            return "tau(ab) != tau(ba)"
        if _sc(t_ab) != _sc(phi_ab):
            return "tau(ab) != phi(ab)"
        if _sc(t_astar) != (t_a.re, -t_a.im):
            return "tau(a*) != conj tau(a)"
        return None
    return check


def _q_zero(ctx, name, text, zero, op):
    gt = ctx.gt
    elem = ctx.call("convalg.parse", gt.parse_element, ctx.machines[name], text)
    if op == "iszero":
        got = ctx.call("convalg.iszero", elem.is_zero)
    else:
        got = ctx.call("convalg.issingular", elem.is_singular)
    return lambda: None if got == zero else f"{op} gave {got} for {text!r}"


def _q_word(ctx, name, factors, known):
    gt = ctx.gt
    m = ctx.machines[name]
    got = ctx.call("mealy.word",
                   lambda: gt.parse_state_expr(m, "*".join(factors)).is_identity())

    def check():
        if known is not None:
            return None if got == known else f"word {'*'.join(factors)} not the identity"
        if got != ctx.levels(name).fixes_level(factors):
            return f"word {'*'.join(factors)}: is_identity {got} disagrees with its action"
        return None
    return check


def _q_cli(ctx, key):
    argv = json.loads(key)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ctx.call("cli.main", ctx.cli.main, list(argv))
    out = buf.getvalue()
    expected = ctx.golden.get(key)
    return lambda: None if code == 0 and out == expected else \
        f"germtrace {' '.join(argv)}: exit {code}, stdout differs from golden"


QUERY_KINDS = {
    "measure": _q_measure, "iszero": _q_iszero,
    "rep": _q_rep, "feval": _q_feval, "isotropy": _q_isotropy, "walk": _q_walk,
    "algebra": _q_algebra, "zero": _q_zero, "word": _q_word, "cli": _q_cli,
}
