"""Seeded input generators for the benchmark.

Everything here emits text in germtrace's own formats (machine files,
element terms, state expressions, points), so parsing is part of what the
benchmark measures.  Nothing here imports germtrace: the same
`random.Random(seed)` stream gives byte-identical text in every process.
"""

from __future__ import annotations

import random
from fractions import Fraction


def random_machine(rng: random.Random, n: int, d: int) -> str:
    """n states s0..s{n-1} over d letters.

    Each output row is the identity with probability 1/2, otherwise a
    uniformly drawn non-identity permutation; successors are uniform over
    the n states plus the identity e.
    """
    ident = list(range(d))
    targets = [f"s{i}" for i in range(n)] + ["e"]
    lines = [f"# random machine n={n} d={d}", f"alphabet {d}"]
    for i in range(n):
        perm = ident
        if rng.random() >= 0.5:
            while perm == ident:
                perm = rng.sample(ident, d)
        succ = [rng.choice(targets) for _ in range(d)]
        lines.append(f"state s{i} perm {' '.join(map(str, perm))} "
                     f"to {' '.join(succ)}")
    return "\n".join(lines) + "\n"


def spinal_chain(rng: random.Random, d: int) -> str:
    """A Grigorchuk-like spinal machine, which is contracting.

    `a` cycles the letters at the root and is trivial below; the spinal
    states b0..b{k-1} fix the root, put `a` or `e` below letters 0..d-2
    and hand the last letter to the next spinal state, as b, c, d do in
    the Grigorchuk machine.
    """
    k = rng.randint(3, 9)
    rows = [[rng.choice("ae") for _ in range(d - 1)] for _ in range(k)]
    rows[rng.randrange(k)][rng.randrange(d - 1)] = "a"
    cycle = " ".join(str((x + 1) % d) for x in range(d))
    lines = [f"# spinal chain k={k} d={d}", f"alphabet {d}",
             f"state a perm {cycle} to {' '.join('e' * d)}"]
    ident = " ".join(map(str, range(d)))
    for i, row in enumerate(rows):
        succ = " ".join(row + [f"b{(i + 1) % k}"])
        lines.append(f"state b{i} perm {ident} to {succ}")
    return "\n".join(lines) + "\n"


def word_text(w) -> str:
    return "".join(map(str, w))


def random_word(rng: random.Random, d: int, length: int) -> tuple[int, ...]:
    return tuple(rng.randrange(d) for _ in range(length))


def random_point(rng: random.Random, d: int, max_pre: int = 3,
                 max_per: int = 3) -> str:
    """An eventually periodic point u(v) in the textual point syntax."""
    pre = random_word(rng, d, rng.randint(0, max_pre))
    per = random_word(rng, d, rng.randint(1, max_per))
    return f"{word_text(pre)}({word_text(per)})"


def frac_text(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def scalar_text(re: Fraction, im: Fraction) -> str:
    """Gaussian rational in germtrace's scalar syntax (re part first)."""
    if im == 0:
        return frac_text(re)
    mag = "" if abs(im) == 1 else frac_text(abs(im))
    imag = f"{mag}i"
    if re == 0:
        return imag if im > 0 else f"-{imag}"
    return f"{frac_text(re)}{'+' if im > 0 else '-'}{imag}"


def positive_scalar(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A coefficient whose real part is positive, so sums never cancel."""
    re = Fraction(rng.randint(1, 5), rng.randint(1, 4))
    im = Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.5 else Fraction(0)
    return re, im


def small_scalar(rng: random.Random, complex_ok: bool = True) -> tuple[Fraction, Fraction]:
    re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    im = Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if complex_ok and rng.random() < 0.4 else Fraction(0)
    if re == 0 and im == 0:
        re = Fraction(1)
    return re, im


def term_text(coeff, state: str, u, v) -> str:
    return f"{scalar_text(*coeff)} {state}:{word_text(u)}>{word_text(v)}"


def element_text(terms) -> str:
    """Terms (coeff, state, u, v) joined with ';'."""
    return " ; ".join(term_text(*t) for t in terms)


def one_letter_refinement(terms, raw):
    """Each term cut into d terms one letter deeper, from the raw tables.

    A shift q:u>v equals the sum over letters x of q|x : u q(x) > v x; the
    refinement is built from the transition table itself, not from any
    germtrace operation.
    """
    out = []
    for coeff, state, u, v in terms:
        for x in range(raw.d):
            out.append((coeff, raw.succ[state][x], u + (raw.out[state][x],), v + (x,)))
    return out


def negated(terms):
    return [((-c[0], -c[1]), s, u, v) for c, s, u, v in terms]
