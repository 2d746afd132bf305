"""An operator model of the algebra on finite words, an oracle for products,
adjoints and True is_zero verdicts that reads only raw state tables.

A shift (g, u, v) sends the word v w to u g(w) and every other word of
that length to 0, so an element acts on the words of each length as a
matrix with Gaussian-rational entries, and the product of two elements
acts as the product of the two matrices.  The model evaluates each
term's label (state names, '*', '^-1', '|w' and parentheses) on the
tables of the machine the element was parsed over, letter by letter,
and keeps coefficients as pairs of Fractions: it reads the terms'
labels, prefixes, coefficients and tables, and runs none of the mealy,
germs or convalg code that acts on words or multiplies.  It also checks
each term's label against the tables of the term's own state, so a term
whose state and label disagree fails too.
"""

import itertools
import random
import re

from germtrace import AlgebraElement, format_machine, parse_machine, parse_shift

from conftest import random_machine, random_scalar, random_state_expr, random_word, spinal_chain

# the words of every length up to this are checked
WORD_DEPTH = 6
ADJOINT_DEPTH = 4

_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|(\^-1|\|[0-9]+|[*()]))")


def tables(machine):
    """(output rows, successor rows, state name -> index) of a parsed machine."""
    return (machine.outputs, machine.transitions,
            {n: q for q, n in enumerate(machine.names)})


def walk(out, trans, q, inverted, word):
    """(image of word, state below word) of state q, or of its inverse:
    q^-1 reads y as the x with out[q][x] = y, and acts below y as
    (q|x)^-1."""
    image = []
    for y in word:
        x = out[q].index(y) if inverted else y
        image.append(x if inverted else out[q][x])
        q = trans[q][x]
    return tuple(image), q


class Factors:
    """A label parsed into factors (state, inverted), leftmost first; the
    product acts rightmost factor first."""

    def __init__(self, raw, label: str):
        self.out, self.trans, self.index = raw
        self.tokens = _TOKEN_RE.findall(label)
        self.i = 0
        self.factors = self.expr()
        assert self.i == len(self.tokens), label

    def expr(self):
        factors = self.factor()
        while self.i < len(self.tokens) and self.tokens[self.i][1] == "*":
            self.i += 1
            factors = factors + self.factor()
        return factors

    def factor(self):
        name, symbol = self.tokens[self.i]
        self.i += 1
        if name:
            factors = [(self.index[name], False)]
        else:
            assert symbol == "("
            factors = self.expr()
            assert self.tokens[self.i][1] == ")"
            self.i += 1
        while self.i < len(self.tokens) and self.tokens[self.i][1][:1] in ("^", "|"):
            symbol = self.tokens[self.i][1]
            self.i += 1
            if symbol == "^-1":
                factors = [(q, not inverted) for q, inverted in reversed(factors)]
            else:
                factors = self.restrict(factors, tuple(map(int, symbol[1:])))
        return factors

    def restrict(self, factors, w):
        below = []
        for q, inverted in reversed(factors):
            w, r = walk(self.out, self.trans, q, inverted, w)
            below.append((r, inverted))
        return below[::-1]

    def apply(self, word):
        for q, inverted in reversed(self.factors):
            word = walk(self.out, self.trans, q, inverted, word)[0]
        return word


def add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


class Operator:
    """An element as a map from words to {word: coefficient}, built from
    the raw tables of the element's machine."""

    def __init__(self, elem: AlgebraElement):
        raw = tables(elem.machine)
        self.terms = []
        for pmap, c in elem.terms.items():
            assert pmap.label is not None, pmap
            label = Factors(raw, pmap.label)
            g = pmap.state
            own = (g.machine.outputs, g.machine.transitions, g.state)
            self.terms.append(((c.re, c.im), pmap.range_prefix, pmap.source_prefix, label, own))
        self.sources = [v for _, _, v, _, _ in self.terms]

    def __call__(self, z) -> dict:
        image = {}
        for c, u, v, label, _ in self.terms:
            if z[:len(v)] == v:
                y = u + label.apply(z[len(v):])
                image[y] = add(image.get(y, (0, 0)), c)
        return {y: c for y, c in image.items() if c != (0, 0)}

    def on(self, vector: dict) -> dict:
        """The operator applied to a combination of words."""
        image = {}
        for z, c in vector.items():
            for y, e in self(z).items():
                image[y] = add(image.get(y, (0, 0)), mul(c, e))
        return {y: c for y, c in image.items() if c != (0, 0)}

    def labels_match_states(self, words) -> bool:
        """Every term's label acts as its own state does, on the words."""
        return all(label.apply(w) == walk(out, trans, q, False, w)[0]
                   for _, _, _, label, (out, trans, q) in self.terms for w in words)


def words_up_to(d, n):
    return [w for k in range(n + 1) for w in itertools.product(range(d), repeat=k)]


def machines(rng, bundled, ternary):
    """The bundled machines and seeded random machines and spinal chains,
    each parsed from its text, so every state has a name."""
    found = [*bundled.values(), ternary]
    for k in range(6):
        d = 2 + k % 2
        m = spinal_chain(rng, d) if k % 3 == 0 else random_machine(rng, rng.randint(3, 6), d)
        found.append(parse_machine(format_machine(m)))
    return found


def labelled_element(rng, m, max_terms=3):
    """A random element whose terms carry their expression texts as labels."""
    names = [n for n in m.names if n != "e"]
    d = m.alphabet_size
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        k = rng.randint(0, 2)
        u, v = random_word(rng, d, k), random_word(rng, d, k)
        text = (f"{random_state_expr(rng, names, d, depth=1)}:"
                f"{''.join(map(str, u))}>{''.join(map(str, v))}")
        terms.append((random_scalar(rng), parse_shift(m, text)))
    return AlgebraElement(m, terms)


def refinement_zero(rng, m):
    """1 b - sum over letters x of 1 b|x, for a random labelled term b:
    the shift as the sum of its restrictions, so zero at every germ."""
    (b,) = labelled_element(rng, m, max_terms=1).terms
    d = m.alphabet_size
    return AlgebraElement(m, [(1, b)] + [(-1, b.restrict_source((x,))) for x in range(d)])


def check_product(a, b, words) -> int:
    """(ab)(z) = a(b(z)) on every word; the number of words checked."""
    ab, oa, ob = Operator(a * b), Operator(a), Operator(b)
    assert ab.labels_match_states(words)
    for z in words:
        assert ab(z) == oa.on(ob(z)), (a, b, z)
    return len(words)


def check_adjoint(a, d) -> int:
    """<y, a* z> is the conjugate of <z, a y> for all words y, z of one
    length; the number of pairs (y, z) with a nonzero entry."""
    oa, star = Operator(a), Operator(a.adjoint())
    words = words_up_to(d, ADJOINT_DEPTH)
    assert star.labels_match_states(words)
    forward = {(z, y): c for y in words for z, c in oa(y).items()}
    backward = {(z, y): (c[0], -c[1]) for z in words for y, c in star(z).items()}
    assert forward == backward, a
    return len(forward)


def check_zero(a, words) -> int:
    """A True is_zero sends to 0 every word at least as long as all of
    its source prefixes; the number of words checked."""
    oa = Operator(a)
    assert oa.labels_match_states(words)
    deep = max(map(len, oa.sources), default=0)
    long_words = [z for z in words if len(z) >= deep]
    for z in long_words:
        assert oa(z) == {}, (a, z)
    return len(long_words)


class TestOperatorModel:
    def test_products_act_as_compositions(self, bundled, ternary):
        rng = random.Random(4201)
        checked = nested = 0
        for m in machines(rng, bundled, ternary):
            words = words_up_to(m.alphabet_size, WORD_DEPTH)
            for _ in range(8 if m.alphabet_size == 2 else 3):
                a, b = labelled_element(rng, m), labelled_element(rng, m)
                checked += check_product(a, b, words)
                if rng.random() < 0.4:
                    c = labelled_element(rng, m, max_terms=2)
                    checked += check_product(a * b, c, words)
                    checked += check_product(c, a * b, words)
                    nested += 1
        assert checked >= 30_000 and nested >= 20, (checked, nested)

    def test_adjoints_are_conjugate_transposes(self, bundled, ternary):
        rng = random.Random(4202)
        entries = 0
        for m in machines(rng, bundled, ternary):
            for _ in range(6):
                a = labelled_element(rng, m)
                if rng.random() < 0.5:
                    a = a * labelled_element(rng, m, max_terms=2)
                entries += check_adjoint(a, m.alphabet_size)
        assert entries >= 2_500, entries

    def test_zero_elements_vanish_below_their_sources(self, bundled, ternary):
        rng = random.Random(4203)
        zeros = checked = 0
        for m in machines(rng, bundled, ternary):
            words = words_up_to(m.alphabet_size, WORD_DEPTH)
            for _ in range(4 if m.alphabet_size == 2 else 2):
                z, b = refinement_zero(rng, m), labelled_element(rng, m, max_terms=2)
                for a in (z, z * b, b * z, b * z * labelled_element(rng, m, max_terms=1),
                          labelled_element(rng, m)):
                    if a.is_zero():
                        zeros += 1
                        checked += check_zero(a, words)
        assert zeros >= 100 and checked >= 40_000, (zeros, checked)
