"""Machine parsing, composition, interning equality, minimization, depth,
the memoised group law and its caps."""

import contextlib
import gc
import itertools
import random
import re
import sys
import threading

import pytest

from germtrace import (
    STATE_CAP,
    Aut,
    DomainError,
    ElementParseError,
    Machine,
    MachineParseError,
    StateCapError,
    compose_labels,
    distinguishing_depth,
    format_machine,
    identity_aut,
    invert_label,
    minimize,
    parse_machine,
    parse_shift,
    parse_state_expr,
    restrict_label,
    state_cap,
)

from germtrace import AlgebraElement, PartialMap, Point, Scalar, germs, mealy, rep_matrix
from germtrace.errors import excerpt
from germtrace.mealy import backward_distances, infinite_path_nodes, strong_components

from conftest import (memo_machines, pop_memos, random_element, random_state_expr,
                      random_word, reference_quotient, spinal_chain)


def state_hashes(m):
    """The content hash of each state of m, as Aut.__hash__ gives it."""
    return tuple(map(hash, m.states()))


def oracle_min_moved(machine, q, max_len=8):
    """Shortest moved-word length for state q, walking raw tables only.

    Breadth-first over the states reachable along fixed letters; the first
    depth at which any frontier state permutes a letter nontrivially is the
    answer. Returns None when q fixes everything up to max_len.
    """
    frontier = {q}
    for length in range(1, max_len + 1):
        nxt = set()
        for state in frontier:
            for x in range(machine.alphabet_size):
                if machine.outputs[state][x] != x:
                    return length
                nxt.add(machine.transitions[state][x])
        frontier = nxt
        if not frontier:
            return None
    return None


# malformed machine texts and the message each is refused with
MALFORMED_MACHINES = {
    "state a perm 1 0 to e e\n":  # missing alphabet
        "line 1: state before alphabet directive",
    "alphabet 1\nstate a perm 0 to e\n":  # alphabet too small
        "line 1: alphabet must have 2 to 10 letters, got '1'",
    "alphabet 2\nstate a perm 1 1 to e e\n":  # not a permutation
        "line 2: output row of a is not a permutation",
    "alphabet 2\nstate a perm 1 0 to e zz\n":  # unknown target
        "line 2: unknown successor state 'zz'",
    "alphabet 2\nstate a perm 1 0 to e\n":  # short target row
        "line 2: state a needs 2 images and 2 successors",
    "alphabet 2\nstate a perm 1 0 to e e\nstate a perm 0 1 to a a\n":
        "duplicate state name",
    "alphabet 2\nstate e perm 1 0 to e e\n":  # e must act trivially
        "state 'e' is reserved for the identity",
    "alphabet 2\n":  # no states
        "machine has no states",
    "alphabet 11\nstate a perm 1 0 2 3 4 5 6 7 8 9 10 to e e e e e e e e e e e\n":
        "line 1: alphabet must have 2 to 10 letters, got '11'",
    "alphabet \u0662\nstate a perm 1 0 to e e\n":  # non-ASCII numeral
        "line 1: expected 'alphabet <d>'",
    "alphabet 2\nstate a perm +1 0 to e a\n":  # signed image
        "line 2: non-integer image",
    "alphabet 2\nstate a perm 1 \u0660 to e a\n":  # non-ASCII image
        "line 2: non-integer image",
    # a row text seen before, then a short successor list
    "alphabet 2\nstate a perm 1 0 to e e\nstate b perm 1 0 to a\n":
        "line 3: state b needs 2 images and 2 successors",
    # a good row, then one that is not a permutation
    "alphabet 3\nstate a perm 1 0 2 to e e e\nstate b perm 1 1 2 to a a a\n":
        "line 3: output row of b is not a permutation",
    # an unknown successor on a later line, after known ones
    "alphabet 2\nstate a perm 1 0 to e b\nstate b perm 0 1 to a e\nstate c perm 1 0 to b x1\n":
        "line 4: unknown successor state 'x1'",
}


class TestParsing:
    def test_bundled_grigorchuk_shape(self, grig):
        assert grig.alphabet_size == 2
        assert grig.size == 5
        assert set(grig.names) == {"a", "b", "c", "d", "e"}
        assert grig.identity == grig.index_of("e")

    def test_identity_state_is_synthesized(self):
        m = parse_machine("alphabet 2\nstate a perm 1 0 to e e\n")
        assert m.size == 2
        assert m.state("e").is_identity()

    def test_explicit_identity_row_allowed(self):
        m = parse_machine(
            "alphabet 2\nstate e perm 0 1 to e e\nstate a perm 1 0 to e e\n"
        )
        assert m.state("e").is_identity()

    @pytest.mark.parametrize("text", list(MALFORMED_MACHINES))
    def test_rejects_malformed(self, text):
        with pytest.raises(MachineParseError) as info:
            parse_machine(text)
        assert str(info.value) == MALFORMED_MACHINES[text]

    def test_index_of_reads_a_dict(self):
        m = parse_machine("alphabet 2\nstate a perm 1 0 to e b\nstate b perm 0 1 to a e\n")
        assert m._memo["index"] == {"a": 0, "b": 1, "e": 2}
        assert [m.index_of(n) for n in ("a", "b", "e")] == [0, 1, 2]
        built = Machine(2, m.outputs, m.transitions, identity=2, names=("x", "y", "z"))
        assert "index" not in built._memo
        assert [built.index_of(n) for n in ("z", "x", "y")] == [2, 0, 1]
        assert built._memo["index"] == {"x": 0, "y": 1, "z": 2}
        anonymous = Machine(2, m.outputs, m.transitions)
        for machine, name in ((m, "x"), (built, "a"), (anonymous, "q0"), (m, "a" * 50),
                              (m, ["a"])):
            with pytest.raises(DomainError) as info:
                machine.index_of(name)
            assert str(info.value) == f"unknown state name {excerpt(name)}"
        assert "index" not in anonymous._memo

    def test_index_of_other_names_is_a_domain_error(self):
        """Names may be any hashables, so index_of takes any value: one that
        names no state is a DomainError, whatever its type."""
        m = parse_machine("alphabet 2\nstate a perm 1 0 to e b\nstate b perm 0 1 to a e\n")
        numbered = Machine(2, [(1, 0), (0, 1)], [(1, 1), (1, 1)], names=(7, "x"))
        assert numbered.index_of(7) == 0
        for machine, name, shown in ((m, 3, "3"), (m, None, "None"), (m, 2.5, "2.5"),
                                     (numbered, 8, "8"), (numbered, "7", "'7'")):
            with pytest.raises(DomainError) as info:
                machine.index_of(name)
            assert str(info.value) == f"unknown state name {shown}"

    def test_format_round_trip(self, bundled):
        for m in bundled.values():
            again = parse_machine(format_machine(m))
            assert again.size == m.size
            for name in m.names:
                assert again.state(name) == m.state(name)

    def test_format_round_trip_on_every_alphabet(self):
        """Seeded machines over 2..10 letters read back with the same tables
        and names; over 11 letters format_machine refuses, as word_text
        does, since no text parse_machine reads holds them."""
        rng = random.Random(1611)
        for d in range(2, 11):
            for _ in range(3):
                m = oracle_machine(rng, duplicate=rng.random() < 0.5, d=d, size=9)
                m = Machine(d, m.outputs, m.transitions, names=[f"s{q}" for q in range(m.size)])
                again = parse_machine(format_machine(m))
                k = m.size  # parse_machine appends the identity e
                assert again.names[:k] == m.names and again.names[k:] == ("e",)
                assert again.outputs[:k] == m.outputs and again.transitions[:k] == m.transitions
                assert format_machine(again).startswith(format_machine(m))
        for m in (oracle_machine(rng, False, d=11, size=4), Machine(12, [range(12)], [[0] * 12])):
            with pytest.raises(ValueError, match="at most 10 letters"):
                format_machine(m)

    def test_ten_letters_is_the_largest_alphabet(self):
        m = parse_machine("alphabet 10\nstate a perm 1 0 2 3 4 5 6 7 8 9 to"
                          + " e" * 10 + "\n")
        assert m.state("a").apply_word(mealy.parse_word("09", 10)) == (1, 9)

    def test_comments_and_blank_lines_ignored(self):
        m = parse_machine(
            "# odometer\n\nalphabet 2\n  state a perm 1 0 to e a  # carry\n"
        )
        assert m.size == 2


class TestAction:
    def test_apply_word_examples(self, grig):
        a, b, d = grig.state("a"), grig.state("b"), grig.state("d")
        assert a.apply_word((0, 1, 1)) == (1, 1, 1)
        assert b.apply_word((1, 1)) == (1, 1)
        assert b.apply_word((0, 1)) == (0, 0)  # b acts as a below 0
        assert d.apply_word((1, 0, 1)) == (1, 0, 0)

    def test_word_text_takes_decimal_digits_only(self, grig):
        a = grig.state("a")
        assert a.apply_word(mealy.parse_word("011", 2)) == (1, 1, 1)
        assert mealy.parse_word(" 011 ", 2) == (0, 1, 1)
        assert mealy.parse_word("", 2) == ()
        # superscripts, letters and non-ASCII decimal digits are no letters
        for text in ("\u00b2", "0\u00b9", "1a", "\u0661", "0\u0660", "\uff11"):
            with pytest.raises(ValueError, match="bad word"):
                mealy.parse_word(text, 10)
        with pytest.raises(ValueError, match="letter 2 outside alphabet of size 2"):
            mealy.parse_word("012", 2)

    def test_words_are_int_sequences(self, grig):
        a = grig.state("a")
        assert a.apply_word([0, 1, 1]) == (1, 1, 1)
        for word in ("011", (0, "1"), (0, 1.0)):
            with pytest.raises(ValueError, match="outside alphabet"):
                a.apply_word(word)
        with pytest.raises(ValueError, match="outside alphabet"):
            a.restrict((0, 2))

    def test_action_and_identity_intern_nothing(self, monkeypatch):
        """is_identity, apply_word and restrict on the states of freshly
        parsed machines make no _intern call (counted by a spy: the
        table's size could also shrink), and is_identity is triviality
        read off the raw tables: the greatest set of states with the
        identity row whose successors all lie in it."""
        calls = []
        intern = mealy._intern
        monkeypatch.setattr(mealy, "_intern", lambda *args: calls.append(args) or intern(*args))
        rng = random.Random(4102)
        extra_trivial = 0
        for _ in range(60):
            d = rng.choice((2, 3))
            m = parse_machine("\n".join(machine_text_lines(rng, d)))
            trivial = {q for q in range(m.size) if m.outputs[q] == tuple(range(d))}
            while any(t not in trivial for q in trivial for t in m.transitions[q]):
                trivial = {q for q in trivial if set(m.transitions[q]) <= trivial}
            for q in range(m.size):
                g = m.state(q)
                assert g.is_identity() == (q in trivial)
                w = random_word(rng, d, rng.randint(0, 5))
                g.restrict(w).is_identity()
                g.apply_word(w)
            extra_trivial += len(trivial) - 1  # besides e
        assert calls == []
        assert extra_trivial >= 20, extra_trivial

    def test_self_similarity_identity(self, bundled):
        """g(wv) = g(w) . (g|_w)(v) for random states and words."""
        rng = random.Random(11)
        for m in bundled.values():
            for _ in range(60):
                g = m.state(rng.randrange(m.size))
                w = random_word(rng, m.alphabet_size, rng.randint(0, 4))
                v = random_word(rng, m.alphabet_size, rng.randint(0, 4))
                assert g.apply_word(w + v) == g.apply_word(w) + g.restrict(w).apply_word(v)

    def test_compose_acts_as_composition(self, bundled):
        rng = random.Random(12)
        for m in bundled.values():
            states = m.states()
            for _ in range(40):
                g = states[rng.randrange(len(states))]
                h = states[rng.randrange(len(states))]
                w = random_word(rng, m.alphabet_size, 6)
                assert (g * h).apply_word(w) == g.apply_word(h.apply_word(w))

    def test_inverse(self, bundled):
        rng = random.Random(13)
        for m in bundled.values():
            for g in m.states():
                assert (g * g.inverse()).is_identity()
                assert (g.inverse() * g).is_identity()
                w = random_word(rng, m.alphabet_size, 7)
                assert g.inverse().apply_word(g.apply_word(w)) == w

    def test_powers(self, adding):
        a = adding.state("a")
        assert (a**2).apply_word((0, 0)) == (0, 1)  # adding 2 in binary
        assert (a**0).is_identity()
        assert a**-1 == a.inverse()
        assert a**3 == a * a * a


class TestEquality:
    def test_relations_of_grigorchuk(self, grig):
        a, b, c, d, e = (grig.state(n) for n in "abcde")
        for g in (a, b, c, d):
            assert (g * g).is_identity()
        assert b * c == d
        assert c * d == b
        assert d * b == c
        assert b * c * d == e
        assert (a * d) ** 4 == e
        assert (a * b) ** 16 == e
        assert (a * b) ** 8 != e

    def test_interned_equality_and_hash(self, grig):
        b, c, d = grig.state("b"), grig.state("c"), grig.state("d")
        prod = b * c
        assert prod == d
        assert hash(prod) == hash(d)
        assert prod.canonical().machine is d.canonical().machine
        assert prod.canonical().state == d.canonical().state

    def test_identity_aut_crosses_machines(self, grig, adding):
        assert identity_aut(2) == grig.state("e")
        assert identity_aut(2) == adding.state("e")
        assert grig.state("e") == adding.state("e")
        assert grig.state("a") != adding.state("a")

    @pytest.mark.parametrize("size, message", [
        (1, "alphabet must have at least two letters"),
        (0, "alphabet must have at least two letters"),
        (-3, "alphabet must have at least two letters"),
        (2.0, "alphabet size must be an integer, not 2.0"),
    ])
    def test_identity_aut_refuses_a_bad_alphabet(self, size, message):
        before = len(mealy._interned)
        with pytest.raises(ValueError, match=message):
            identity_aut(size)
        assert len(mealy._interned) == before

    def test_state_index_is_an_integer(self, grig):
        for ref in (2.5, 1.0, None):
            with pytest.raises(ValueError, match=f"state index must be an integer, not {ref}"):
                grig.state(ref)
        assert grig.state(True) == grig.state(1)
        with pytest.raises(DomainError, match="state index 5 out of range"):
            grig.state(5)


class TestMinimize:
    def test_collapses_duplicate_states(self):
        m = parse_machine(
            "alphabet 2\n"
            "state a perm 1 0 to e a\n"
            "state a2 perm 1 0 to e a2\n"
            "state z perm 0 1 to a a2\n"
        )
        mm, mapping = minimize(m)
        assert mm.size == 3  # e, odometer, z
        assert mapping[m.index_of("a")] == mapping[m.index_of("a2")]
        for q in range(m.size):
            assert m.state(q) == mm.state(mapping[q])

    def test_already_minimal(self, grig):
        mm, mapping = minimize(grig)
        assert mm.size == grig.size
        assert sorted(mapping) == list(range(grig.size))


class TestDistinguishingDepth:
    def test_grigorchuk_depth_matches_enumeration(self, grig):
        minima = {
            name: oracle_min_moved(grig, grig.index_of(name))
            for name in "abcd"
        }
        assert minima == {"a": 1, "b": 2, "c": 2, "d": 3}
        assert distinguishing_depth(grig) == max(minima.values()) == 3

    def test_other_machines(self, adding, lamp, ternary):
        assert distinguishing_depth(adding) == 1
        assert distinguishing_depth(lamp) == oracle_min_moved(lamp, lamp.index_of("p")) == 2
        enum = max(
            oracle_min_moved(ternary, q)
            for q in range(ternary.size)
            if q != ternary.identity
        )
        assert distinguishing_depth(ternary) == enum

    def test_identity_only_machine(self):
        m = parse_machine("alphabet 2\nstate z perm 0 1 to z z\n")
        assert distinguishing_depth(m) == 1


class TestStateExpr:
    def test_products_and_restrictions(self, grig):
        assert parse_state_expr(grig, "b*c") == grig.state("d")
        assert parse_state_expr(grig, "a^-1") == grig.state("a")
        assert parse_state_expr(grig, "d|1") == grig.state("b")
        assert parse_state_expr(grig, "d|11") == grig.state("c")
        assert parse_state_expr(grig, "(a*b)|0") == grig.state("a")
        assert parse_state_expr(grig, " b * b ").is_identity()
        # (g^-1)|_w = (g|_{g^-1(w)})^-1; here (a*d)^-1 maps 0 to 1
        assert parse_state_expr(grig, "(a*d)^-1|0") == parse_state_expr(
            grig, "((a*d)|1)^-1"
        )

    def test_inverse_restriction_identity(self, grig):
        rng = random.Random(7)
        states = grig.states()
        for _ in range(30):
            g = states[rng.randrange(len(states))] * states[rng.randrange(len(states))]
            w = random_word(rng, 2, rng.randint(1, 3))
            lhs = g.inverse().restrict(w)
            rhs = g.restrict(g.inverse().apply_word(w)).inverse()
            assert lhs == rhs

    @pytest.mark.parametrize(
        "text", ["", "a**b", "a|", "a|2", "(a", "a)", "a^2", "a b"]
    )
    def test_rejects_bad_expressions(self, grig, text):
        from germtrace import ParseError

        with pytest.raises(ParseError):
            parse_state_expr(grig, text)

    def test_deep_nesting_is_parse_error(self, grig):
        from germtrace import ParseError

        assert parse_state_expr(grig, "(" * 50 + "a" + ")" * 50) == grig.state("a")
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_state_expr(grig, "(" * 2000 + "a" + ")" * 2000)

    def test_unknown_state_is_domain_error(self, grig):
        with pytest.raises(DomainError):
            parse_state_expr(grig, "zz")

    @pytest.mark.parametrize("text, message", [
        ("   a)", "trailing input at column 5"),
        ("\t a * b  c", "trailing input at column 10"),
        ("  a*%", "expected state name at column 5"),
    ])
    def test_error_columns_count_the_quoted_text(self, grig, text, message):
        from germtrace import ParseError

        with pytest.raises(ParseError) as info:
            parse_state_expr(grig, text)
        assert str(info.value) == f"state expression {text!r}: {message}"

    def test_one_atom_is_walked_on_the_raw_tables(self, grig):
        """A name with restrictions only is the raw state it leads to, and
        the machine is not minimised for it."""
        m = parse_machine(format_machine(grig))
        for text, name in [("d|11", "c"), ("((d)|1)|1", "c"), (" a ", "a"), ("e|0", "e")]:
            a = parse_state_expr(m, text)
            assert (a.machine, a.state) == (m, m.index_of(name))
        assert "minimize" not in m._memo


class TestLabels:
    def test_helpers(self):
        assert compose_labels("a", "b") == "a*b"
        assert invert_label("a") == "a^-1"
        assert invert_label("a*b") == "(a*b)^-1"
        assert restrict_label("d", (1,)) == "d|1"
        assert restrict_label("a*b", (0, 1)) == "(a*b)|01"
        assert restrict_label("d", ()) == "d"

    def test_labels_parse_back(self, grig):
        b, c = grig.state("b"), grig.state("c")
        lab = compose_labels("b", "c")
        assert parse_state_expr(grig, lab) == b * c
        assert parse_state_expr(grig, invert_label(lab)) == (b * c).inverse()
        assert parse_state_expr(grig, restrict_label(lab, (1,))) == (b * c).restrict((1,))


class TestStateCap:
    def test_cap_enforced_and_restored(self, grig):
        with state_cap(2):
            with pytest.raises(StateCapError):
                (grig.state("a") * grig.state("b")).canonical()
        assert (grig.state("a") * grig.state("b")).canonical() is not None

    def test_nested_scopes_restore_outer_cap(self, grig):
        a, b = grig.state("a"), grig.state("b")
        with state_cap(2):
            with state_cap(STATE_CAP):
                a * b
            with pytest.raises(StateCapError):
                a * b
            with pytest.raises(StateCapError), state_cap(3):
                a * b
            with pytest.raises(StateCapError):
                a * b
        a * b

    def test_thread_keeps_default_cap(self, grig):
        results = []
        with state_cap(2):
            worker = threading.Thread(
                target=lambda: results.append(grig.state("a") * grig.state("b")))
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive()
            with pytest.raises(StateCapError):
                grig.state("a") * grig.state("b")
        assert results == [parse_state_expr(grig, "a*b")]

    def test_nonpositive_cap_rejected(self):
        for n in (0, -1):
            with pytest.raises(ValueError), state_cap(n):
                pass


def reference_parse_state_expr(machine, text):
    """The state expression parser as it stood before expressions became
    reduced words: a chain that builds, minimises and interns every
    prefix product and every inverse through Aut.compose / Aut.inverse."""
    from germtrace import ParseError

    pos = 0
    s = text.strip()

    def fail(msg):
        raise ParseError(f"state expression {text!r}: {msg}")

    def skip_ws():
        nonlocal pos
        while pos < len(s) and s[pos].isspace():
            pos += 1

    def parse_atom():
        nonlocal pos
        skip_ws()
        if pos >= len(s):
            fail("unexpected end")
        if s[pos] == "(":
            pos += 1
            a = parse_expr()
            skip_ws()
            if pos >= len(s) or s[pos] != ")":
                fail("missing ')'")
            pos += 1
            return a
        m = re.compile(r"[A-Za-z_][A-Za-z0-9_]*").match(s, pos)
        if not m:
            fail("expected state name")
        pos = m.end()
        return machine.state(m.group(0))

    def parse_factor():
        nonlocal pos
        a = parse_atom()
        while True:
            skip_ws()
            if s.startswith("^-1", pos):
                pos += 3
                a = a.inverse()
            elif pos < len(s) and s[pos] == "|":
                pos += 1
                m = re.compile(r"[0-9]+").match(s, pos)
                if not m:
                    fail("expected word after '|'")
                pos = m.end()
                a = a.restrict(tuple(map(int, m.group(0))))
            else:
                return a

    def parse_expr():
        nonlocal pos
        a = parse_factor()
        while True:
            skip_ws()
            if pos < len(s) and s[pos] == "*":
                pos += 1
                a = a * parse_factor()
            else:
                return a

    result = parse_expr()
    skip_ws()
    if pos != len(s):
        fail("trailing input")
    return result


def chain_outcome(machine, text, cap):
    """The canonical (machine, state) of reference_parse_state_expr under
    the cap, or None when a product or inverse of the chain is refused."""
    with state_cap(cap):
        try:
            c = reference_parse_state_expr(machine, text).canonical()
        except StateCapError:
            return None
    return c.machine, c.state


def invert_factor(f):
    return f[:-3] if f.endswith("^-1") else f + "^-1"


def free_reduction(factors):
    """The factors ('x' or 'x^-1') with adjacent x, x^-1 cancelled."""
    stack = []
    for f in factors:
        if stack and stack[-1] == invert_factor(f):
            stack.pop()
        else:
            stack.append(f)
    return stack


def word_action(machine, factors, length):
    """Image of every input word of the given length under the product of
    factors, the rightmost acting first, by walking the raw tables."""
    images = []
    for w in itertools.product(range(machine.alphabet_size), repeat=length):
        for f in reversed(factors):
            inverse = f.endswith("^-1")
            q = machine.index_of(f[:-3] if inverse else f)
            image = []
            for y in w:
                x = machine.outputs[q].index(y) if inverse else y
                image.append(x if inverse else machine.outputs[q][x])
                q = machine.transitions[q][x]
            w = tuple(image)
        images.append(w)
    return images


class TestChainReference:
    """parse_state_expr against the chain parser it replaced: the same
    interned machine and state whenever the chain is accepted, under a
    bounded cap, and the action the raw tables give."""

    CAP = 2000

    def test_random_expressions_match_the_chain(self, bundled, ternary):
        rng = random.Random(2301)
        machines = [*bundled.values(), ternary]
        while len(machines) < 16:
            m = oracle_machine(rng, duplicate=True, size=10)
            if minimize(m)[0].size < m.size:
                machines.append(Machine(m.alphabet_size, m.outputs, m.transitions,
                                        names=[f"s{q}" for q in range(m.size)]))
        compared = nonminimal = 0
        seen = set()
        for m in machines:
            for _ in range(40):
                text = random_state_expr(rng, list(m.names), m.alphabet_size)
                expected = chain_outcome(m, text, self.CAP)
                if expected is None:
                    continue
                with state_cap(self.CAP):
                    got = parse_state_expr(m, text).canonical()
                assert (got.machine, got.state) == expected, text
                seen.update(c for c in "*^|(" if c in text)
                compared += 1
                nonminimal += m.names[0] == "s0"
        assert seen == set("*^|(")
        assert compared >= 500 and nonminimal >= 300, (compared, nonminimal)

    def words(self, rng):
        """(machine name, factors) of words that do not cancel freely:
        conjugates of (p*q^-1)^2 on lamplighter and of grigorchuk
        relators, and random lamplighter and ternary words."""
        def conjugate(gens, core):
            w = [rng.choice(gens) for _ in range(rng.randint(1, 4))]
            return w + core + [invert_factor(f) for f in reversed(w)]

        relators = [["b", "c", "d"], ["a", "d"] * 4, ["a", "c"] * 8, ["a", "a"]]
        lamp = ["p", "q", "p^-1", "q^-1"]
        tern = ["s", "t", "u", "s^-1", "t^-1", "u^-1"]
        for _ in range(30):
            yield "lamplighter", conjugate(lamp, ["p", "q^-1", "p", "q^-1"]), True
            yield "grigorchuk", conjugate(list("abcd"), rng.choice(relators)), True
            yield "lamplighter", [rng.choice(lamp) for _ in range(rng.randint(2, 8))], None
            yield "ternary", [rng.choice(tern) for _ in range(rng.randint(2, 6))], None

    def test_words_that_do_not_cancel_match_the_chain_and_the_tables(self, bundled,
                                                                      ternary):
        machines = {**bundled, "ternary": ternary}
        rng = random.Random(2302)
        checked = identities = 0
        for name, factors, identity in self.words(rng):
            m = machines[name]
            if not free_reduction(factors):
                continue
            text = "*".join(factors)
            got = parse_state_expr(m, text)
            assert (got.machine, got.state) == chain_outcome(m, text, STATE_CAP), text
            assert [got.apply_word(w) for w in itertools.product(
                range(m.alphabet_size), repeat=5)] == word_action(m, factors, 5), text
            if identity:
                assert got.is_identity(), text
                identities += 1
            checked += 1
        assert checked >= 100 and identities >= 50, (checked, identities)


class TestExpressionCap:
    """The state cap counts the reduced words an expression's exploration
    reaches; the whole text is parsed first."""

    def test_refusal_names_the_expression(self, grig):
        assert cap_outcome(3, lambda: parse_state_expr(grig, "a*b*a*c")) == (
            "more than 3 states while building the state expression 'a*b*a*c'")
        long_text = "*".join("abcd" * 15)
        assert cap_outcome(3, lambda: parse_state_expr(grig, long_text)) == (
            f"more than 3 states while building the state expression "
            f"{long_text[:40]!r}... ({len(long_text)} characters)")

    def test_cap_counts_the_reduced_words(self, grig, lamp):
        """The least cap that accepts an expression is the number of
        reduced words its exploration reaches, identity entries dropped."""
        for machine, text, explored in [(grig, "a*b*a*c", 8), (grig, "(a*b)^-1*c", 12),
                                         (grig, "a*b", 6), (grig, "b*c", 6),
                                         (lamp, "p*q^-1*p*q^-1", 2)]:
            assert least_cap(lambda: parse_state_expr(machine, text), 100) == explored, text

    def test_unknown_name_comes_before_the_cap(self, grig):
        with state_cap(1), pytest.raises(DomainError, match="unknown state name 'zz'"):
            parse_state_expr(grig, "a*b*zz")

    def test_free_cancellation_is_never_refused(self, grig):
        with state_cap(1):
            assert parse_state_expr(grig, "a*b*b^-1*a^-1").is_identity()
            assert parse_state_expr(grig, "e*e|01").is_identity()
            assert parse_state_expr(grig, "(a*d^-1)^-1*a*d^-1") == identity_aut(2)

    def test_free_cancellation_explores_nothing(self, grig, lamp, ternary, monkeypatch):
        """The empty reduced word is identity_aut's interned machine,
        returned without an exploration."""
        def refuse(*args):
            raise AssertionError("explored an expression that cancels freely")

        monkeypatch.setattr(mealy, "_derive", refuse)
        for machine, text in [(lamp, "p*q*q^-1*p^-1"), (grig, "a*b|1*(a*b|1)^-1"),
                              (ternary, "s*t*u*(s*t*u)^-1"), (ternary, "(s*t)^-1*s*t")]:
            cancelled = parse_state_expr(machine, text)
            assert cancelled.machine is identity_aut(machine.alphabet_size).machine
            assert cancelled == identity_aut(machine.alphabet_size)

    def test_each_expression_interns_at_most_one_machine(self, ternary):
        rng = random.Random(2303)
        gens = ["s", "t", "u", "s^-1", "t^-1", "u^-1"]
        words = []
        while len(words) < 40:
            factors = [rng.choice(gens) for _ in range(12)]
            if len(free_reduction(factors)) == 12:
                words.append("*".join(factors))
        before = len(mealy._interned)
        for text in words[:20]:
            parse_state_expr(ternary, text)
        assert len(mealy._interned) - before <= 20
        before = len(mealy._interned)
        for text in words[20:]:
            reference_parse_state_expr(ternary, text)
        assert len(mealy._interned) - before > 20


def stored_words(machine):
    """The explorations memoised on minimize(machine)'s quotient, by
    reduced word, as (explored, Aut)."""
    return minimize(machine)[0]._memo.get("word", {})


def expression_outcome(cap, machine, text):
    """The Aut parse_state_expr returns under the cap, or the text of the
    StateCapError it raises."""
    with state_cap(cap):
        try:
            return parse_state_expr(machine, text)
        except StateCapError as exc:
            return str(exc)


class TestExpressionMemo:
    """A state expression's exploration is memoised on the quotient of its
    machine by reduced word, and acts warm as it acts cold under every cap:
    the identical Aut under the cap, the same refusal over it."""

    def test_warm_acts_like_cold_under_every_cap(self, bundled, ternary):
        rng = random.Random(3104)
        checked = refused = 0
        for m in [*bundled.values(), ternary]:
            for _ in range(30):
                text = random_state_expr(rng, list(m.names), m.alphabet_size)
                warm_machine = parse_machine(format_machine(m))
                parse_state_expr(warm_machine, text)
                if not stored_words(warm_machine):
                    continue  # one name with restrictions, or free cancellation
                (entry,) = stored_words(warm_machine).values()
                explored, value = entry
                for cap in sorted(c for c in {1, explored - 1, explored, explored + 1} if c):
                    warm = expression_outcome(cap, warm_machine, text)
                    cold_machine = parse_machine(format_machine(m))
                    cold = expression_outcome(cap, cold_machine, text)
                    if isinstance(cold, str):
                        assert warm == cold, (text, cap)
                        assert cold == (f"more than {cap} states while building the "
                                        f"state expression {excerpt(text)}")
                        refused += 1
                    else:
                        assert warm is value, (text, cap)
                        assert (cold.machine, cold.state) == (value.machine, value.state)
                        assert cap >= explored
                    checked += 1
                (kept,) = stored_words(warm_machine).values()
                assert kept is entry
        assert refused >= 100 and checked >= 250, (refused, checked)

    def test_texts_with_one_reduced_word_share_an_entry(self, grig):
        m = parse_machine(format_machine(grig))
        texts = ["a*b*a*c", "a*(b*a)*c", "a*b*d^-1*d*a*c", "(c^-1*a^-1*b^-1*a^-1)^-1"]
        first = parse_state_expr(m, texts[0])
        for text in texts[1:]:
            assert parse_state_expr(m, text) is first
        assert len(stored_words(m)) == 1
        for text in texts:
            assert expression_outcome(3, m, text) == (
                f"more than 3 states while building the state expression {text!r}")
        assert parse_state_expr(m, texts[-1]) is first

    def test_names_and_cancellations_store_nothing(self, grig):
        m = parse_machine(format_machine(grig))
        for text in ["a", "b|0", "b|01", "a*a^-1", "(a*b)|0|1*((a*b)|01)^-1"]:
            parse_state_expr(m, text)
        assert stored_words(m) == {}

    def test_memo_keeps_at_most_the_limit(self, ternary, monkeypatch):
        """Past the limit a new word is explored as before but not stored,
        and the stored words still hit."""
        monkeypatch.setattr(mealy, "_SHIFT_MEMO_LIMIT", 5)
        m = parse_machine(format_machine(ternary))
        texts = ["*".join(w) for w in itertools.product("stu", repeat=2)]
        got = [parse_state_expr(m, text) for text in texts]
        assert len(stored_words(m)) == 5
        for text, aut in zip(texts, got):
            again = parse_state_expr(m, text)
            assert (again.machine, again.state) == (aut.machine, aut.state)
            assert (again is aut) == (text in texts[:5])
            cold = parse_state_expr(parse_machine(format_machine(ternary)), text)
            assert (cold.machine, cold.state) == (aut.machine, aut.state)
        assert len(stored_words(m)) == 5


def oracle_machine(rng, duplicate, d=None, size=30):
    """A random machine of at most size states over d (2 or 3) letters,
    half the output rows the identity.  With duplicate, some states are
    copied (same row, some edges redirected to the copy), so the machine
    is not minimal; state order is shuffled either way."""
    d = d or rng.choice((2, 3))
    letters = tuple(range(d))
    k = rng.randint(2, size * 2 // 3 if duplicate else size)
    outputs = [letters if rng.random() < 0.5 else tuple(rng.sample(letters, d))
               for _ in range(k)]
    transitions = [[rng.randrange(k) for _ in letters] for _ in range(k)]
    if duplicate:
        for q in rng.sample(range(k), rng.randint(1, min(k, size - k))):
            copy = len(outputs)
            outputs.append(outputs[q])
            transitions.append(list(transitions[q]))
            for row in transitions:
                for x in letters:
                    if row[x] == q and rng.random() < 0.5:
                        row[x] = copy
    order = list(range(len(outputs)))
    rng.shuffle(order)
    place = {old: new for new, old in enumerate(order)}
    return Machine(d, [outputs[old] for old in order],
                   [[place[t] for t in transitions[old]] for old in order])


def cap_outcome(cap, build):
    """The interned machine build() returns under the cap, or the text of
    the StateCapError it raises."""
    with state_cap(cap):
        try:
            return build().machine
        except StateCapError as exc:
            return str(exc)


class TestCapErrorText:
    def test_built_only_when_the_cap_refuses(self, monkeypatch):
        """Accepted products and inverses, fresh or memoised, build no cap
        error and so format no text."""
        rng = random.Random(9093)
        pairs = []
        for i in range(10):
            m = oracle_machine(rng, duplicate=i % 2 == 1, size=8)
            pairs.append((m.state(rng.randrange(m.size)), m.state(rng.randrange(m.size))))

        def refuse(cap, what):
            raise AssertionError(f"cap error built for {what}")

        monkeypatch.setattr(mealy, "_cap_error", refuse)
        for _ in range(2):  # fresh, then memoised
            for g, h in pairs:
                assert (g * h).machine.size >= 1 and g.inverse().machine.size >= 1


class TestCapReplay:
    """A memoised product or inverse is refused under exactly the caps that
    refuse building it afresh, with the same message."""

    def test_outcome_is_the_same_cold_and_warm(self):
        rng = random.Random(9091)
        refused = accepted = 0
        for i in range(8):
            states = [identity_aut(3)]
            while states[-1].canonical().machine.size < 4:
                m = oracle_machine(rng, duplicate=i % 2 == 1, d=3, size=10)
                states = sorted(m.states(), key=lambda s: s.canonical().machine.size)
            a, b = states[-1], rng.choice(states[len(states) // 2:])
            ops = [lambda: a * b, a.inverse, lambda: a ** 3]
            left = a.canonical().machine
            assert ("compose", b.canonical().machine) not in left._memo
            assert "inverse" not in left._memo
            caps = []
            cold = []
            while len(caps) < 2 or any(isinstance(o, str) for o in cold[-2]):
                caps.append(len(caps) + 1)
                cold.append([cap_outcome(caps[-1], op) for op in ops])
            uncapped = [op().machine for op in ops]
            warm = [[cap_outcome(c, op) for op in ops] for c in caps]
            assert warm == cold
            # the inverse of a minimal machine reaches each of its states
            assert [isinstance(row[1], str) for row in cold] == [c < left.size
                                                                 for c in caps]
            for cap, row in zip(caps, cold):
                for outcome, machine in zip(row, uncapped):
                    if isinstance(outcome, str):
                        assert outcome.startswith(f"more than {cap} states while building the ")
                        refused += 1
                    else:
                        assert outcome is machine
                        accepted += 1
        assert refused >= 100 and accepted >= 20, (refused, accepted)

    def test_threads_keep_their_own_cap_on_a_warm_pair(self, grig):
        a, b = grig.state("a"), grig.state("b")
        expected = a * b
        outcomes = {}

        def capped():
            outcomes["capped"] = cap_outcome(2, lambda: a * b)

        def default():
            outcomes["default"] = (a * b).machine

        workers = [threading.Thread(target=capped), threading.Thread(target=default)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
            assert not w.is_alive()
        assert outcomes == {
            "capped": "more than 2 states while building the product of a "
                      "2-state and a 5-state automorphism",
            "default": expected.machine,
        }

    def test_threads_racing_to_fill_the_memo(self, monkeypatch):
        """Threads with different caps build the same fresh products at
        once; each gets what one thread alone gets under its cap.  Then
        threads intern the same fresh tables at once, into an empty
        table: every thread gets the one machine stored for each."""
        rng = random.Random(9092)
        pairs = []
        for i in range(12):
            m = oracle_machine(rng, duplicate=i % 2 == 1, size=12)
            pairs.append((m.state(rng.randrange(m.size)), m.state(rng.randrange(m.size))))
        caps = (4, 16, 64, STATE_CAP)
        outcomes = {}

        def work(cap):
            outcomes[cap] = [(cap_outcome(cap, lambda: g * h),
                              cap_outcome(cap, g.inverse)) for g, h in pairs]

        def race(target, args):
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                workers = [threading.Thread(target=target, args=a) for a in args]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(timeout=120)
                    assert not w.is_alive()
            finally:
                sys.setswitchinterval(interval)

        race(work, [(c,) for c in caps * 2])
        for cap in caps:
            alone = [(cap_outcome(cap, lambda: g * h), cap_outcome(cap, g.inverse))
                     for g, h in pairs]
            assert outcomes[cap] == alone
        assert all(not isinstance(o, str) for row in outcomes[STATE_CAP] for o in row)
        assert any(isinstance(o, str) for row in outcomes[4] for o in row)

        tables = []
        for _ in range(300):
            m = oracle_machine(rng, duplicate=False, size=12)
            outs, trans, block = mealy._quotient(m.outputs, m.transitions)
            d = m.alphabet_size
            tables.append((d, outs, trans, block[0], mealy._identity_state(d, outs, trans)))
        start = threading.Barrier(4, timeout=60)
        got = [None] * 4

        def intern(i):
            start.wait()
            got[i] = [mealy._intern(*t) for t in tables]

        for _ in range(4):  # repeated: a lost race shows in some runs only
            monkeypatch.setattr(mealy, "_interned", {})
            race(intern, [(i,) for i in range(4)])
            assert len(mealy._interned) == len({t[:3] for t in tables})
            for t, *machines in zip(tables, *got):
                assert all(m is mealy._interned[t[:3]] for m in machines)

    def test_messages_name_what_was_built(self, grig):
        """Each operand is named by the size of its canonical machine, also
        when its closure is smaller than its machine's quotient (seeded
        random machines and spinal chains, every refusing cap)."""
        a, b = grig.state("a"), grig.state("b")
        assert cap_outcome(3, lambda: a * b) == (
            "more than 3 states while building the product of a 2-state and a "
            "5-state automorphism")
        assert cap_outcome(3, b.inverse) == (
            "more than 3 states while building the inverse of a 5-state automorphism")
        rng = random.Random(9096)
        refused = 0
        for k in range(24):
            m = (spinal_chain(rng, 2 + k % 2) if k % 3 == 0
                 else oracle_machine(rng, duplicate=k % 2 == 1, size=16))
            size = [m.state(q).canonical().machine.size for q in range(m.size)]
            small = [q for q in range(m.size) if size[q] < minimize(m)[0].size]
            for q in small[:3]:
                r = rng.randrange(m.size)
                g, h = m.state(q), m.state(r)
                for build, what in (
                        (lambda: g * h, f"the product of a {size[q]}-state and a "
                                        f"{size[r]}-state automorphism"),
                        (lambda: h * g, f"the product of a {size[r]}-state and a "
                                        f"{size[q]}-state automorphism"),
                        (g.inverse, f"the inverse of a {size[q]}-state automorphism")):
                    cap = 1
                    while isinstance(outcome := cap_outcome(cap, build), str):
                        assert outcome == f"more than {cap} states while building {what}"
                        refused += 1
                        cap += 1
        assert refused >= 150, refused


def rep_outcome(cap, a, x, basis, iso=()):
    """rep_matrix's (entries, closed) under the cap, or the text of the
    StateCapError it raises."""
    with state_cap(cap):
        try:
            rep = rep_matrix(a, x, basis, iso)
            return rep.entries, rep.closed
        except StateCapError as exc:
            return str(exc)


def after_outcome(cap, t, g):
    """The composite key germs._after_key gives under the cap, or the
    text of the StateCapError it raises."""
    with state_cap(cap):
        try:
            return germs._after_key(t, g.map, g.base)
        except StateCapError as exc:
            return str(exc)


def outcomes_over_caps(outcome):
    """outcome(cap) for caps 1, 2, ... up to the first accepted one, each
    built with every product, inverse and germ memo dropped first."""
    cold = []
    while not cold or isinstance(cold[-1], str):
        pop_memos("germ", "after", "compose", "inverse")
        cold.append(outcome(len(cold) + 1))
    return cold


class TestCompositeCapReplay:
    """A memoised composite germ key replays the products and inverses its
    build took, so rep_matrix is refused under exactly the caps, and with
    the text, that refuse it when nothing is memoised."""

    def composites(self, bundled, ternary):
        """(term, basis germ) pairs of both bisection_product branches: a
        term whose source prefix is no longer than the germ's range prefix
        (a product) and one whose prefix is longer (an inverse, then a
        product)."""
        rng = random.Random(9094)
        for m in [bundled["grigorchuk"], bundled["lamplighter"], ternary]:
            d = m.alphabet_size
            for _ in range(6):
                x = Point(random_word(rng, d, rng.randint(0, 2)),
                          random_word(rng, d, rng.randint(1, 2)))
                k = rng.randint(0, 1)
                g = PartialMap(m.state(rng.randrange(m.size)),
                               random_word(rng, d, k), x.prefix(k)).germ_at(x)
                y = g.range()
                for depth in (k, k + 1, k + 2):
                    t = PartialMap(m.state(rng.randrange(m.size)),
                                   random_word(rng, d, depth), y.prefix(depth))
                    yield m, t, g

    def test_composite_refused_alike_cold_and_warm(self, bundled, ternary):
        refusals = {"product": 0, "inverse": 0}
        for _, t, g in self.composites(bundled, ternary):
            cold = outcomes_over_caps(lambda cap: after_outcome(cap, t, g))
            germs._after_key(t, g.map, g.base)
            assert [after_outcome(c, t, g) for c in range(1, len(cold) + 1)] == cold
            for outcome in cold[:-1]:
                kind = outcome.split("building the ")[1].split(" ")[0]
                refusals[kind] += 1
        assert refusals["product"] >= 20 and refusals["inverse"] >= 20, refusals

    def test_rep_matrix_refused_alike_cold_and_warm(self, bundled, ternary, monkeypatch):
        inverses = []
        real_inverse = mealy._inverse
        monkeypatch.setattr(mealy, "_inverse", lambda c: inverses.append(c) or real_inverse(c))
        rng = random.Random(9095)
        refused = 0
        composites = list(self.composites(bundled, ternary))
        for m, t, g in composites[::3]:
            a = random_element(m, rng, max_terms=2)
            a = AlgebraElement(m, {**a.terms, t: Scalar(1)})
            basis = [PartialMap(identity_aut(m.alphabet_size), (), ()).germ_at(g.base), g]
            cold = outcomes_over_caps(lambda cap: rep_outcome(cap, a, g.base, basis))
            rep_matrix(a, g.base, basis)
            assert [rep_outcome(c, a, g.base, basis) for c in range(1, len(cold) + 1)] == cold
            refused += len(cold) - 1
        assert refused >= 20 and len(inverses) >= 5, (refused, len(inverses))

    def test_threads_keep_their_own_cap_on_a_warm_composite(self, grig):
        x = Point((), (1,))
        g = PartialMap(grig.state("b"), (), ()).germ_at(x)
        t = PartialMap(grig.state("a"), (0,), (1,))
        expected = germs._after_key(t, g.map, x)
        outcomes = {}

        def capped():
            outcomes["capped"] = after_outcome(2, t, g)

        def default():
            outcomes["default"] = germs._after_key(t, g.map, x)

        workers = [threading.Thread(target=capped), threading.Thread(target=default)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
            assert not w.is_alive()
        assert outcomes == {
            "capped": "more than 2 states while building the inverse of a "
                      "5-state automorphism",
            "default": expected,
        }


class TestFailedCompositeBuild:
    """A composite germ key whose build raises leaves no entry behind, so
    the next call builds it afresh; once stored, a hit over the cap is
    built again, refused and leaves the entry as it was."""

    def after_slots(self, t):
        return [k for k in t.state.machine._memo if k[0] == "after"]

    def counting_builds(self, monkeypatch):
        builds = []
        real_build = germs._composite_key
        monkeypatch.setattr(germs, "_composite_key",
                            lambda *args: builds.append(args) or real_build(*args))
        return builds

    def test_refused_build_stores_nothing(self, grig, monkeypatch):
        builds = self.counting_builds(monkeypatch)
        x = Point((), (1,))
        g = PartialMap(grig.state("b"), (), ()).germ_at(x)
        t = PartialMap(grig.state("a"), (0,), (1,))
        pop_memos("after", "compose", "inverse")
        refusal = after_outcome(2, t, g)
        assert refusal == ("more than 2 states while building the inverse of a "
                           "5-state automorphism")
        assert self.after_slots(t) == [] and len(builds) == 1
        key = germs._after_key(t, g.map, x)
        (slot,) = self.after_slots(t)
        assert len(builds) == 2
        entry = t.state.machine._memo[slot]
        explored, value = entry
        assert value is key and explored > 2
        assert after_outcome(2, t, g) == refusal
        assert len(builds) == 3 and t.state.machine._memo[slot] is entry
        assert germs._after_key(t, g.map, x) is key
        assert len(builds) == 3

    def test_germs_that_do_not_compose_store_nothing(self, grig, monkeypatch):
        builds = self.counting_builds(monkeypatch)
        x = Point((), (1,))
        g = PartialMap(grig.state("b"), (), ()).germ_at(x)
        t = PartialMap(grig.state("a"), (0,), (0,))  # g(x) starts with 1
        pop_memos("after")
        for attempt in (1, 2):
            with pytest.raises(DomainError, match="do not match up"):
                germs._after_key(t, g.map, x)
            assert self.after_slots(t) == [] and len(builds) == attempt


class TestBuildScope:
    """The running maximum of a memoised build in progress, like the cap,
    belongs to the context running it: a build paused in one thread
    counts none of another thread's explorations, and every call leaves
    the scope as it found it."""

    SHIFTS = ("a*b:0>1", "(b*c)^-1*a:>", "a*d|1*c:10>01", "b:1>1")

    def composites(self, grig):
        x = Point((1,), (0,))
        g = PartialMap(grig.state("b"), (0,), (1,)).germ_at(x)
        y = g.range()
        return [(PartialMap(grig.state(s), u, y.prefix(len(u))), g)
                for s, u in (("a", (0,)), ("c", (1, 0)), ("d", (0, 1, 1)))]

    def entries(self, grig):
        """(shift texts -> explored, composite slots -> explored) of the
        entries built by parsing SHIFTS and keying the composites, from
        cold memos."""
        pop_memos("after", "compose", "inverse")
        grig._memo.pop("shift", None)
        for text in self.SHIFTS:
            parse_shift(grig, text)
            parse_shift(grig, text)  # the second sighting stores it
        for t, g in self.composites(grig):
            germs._after_key(t, g.map, g.base)
        shifts = {text: grig._memo["shift"][text][0] for text in self.SHIFTS}
        after = {slot: entry[0] for m in memo_machines()
                 for slot, entry in m._memo.items() if slot[0] == "after"}
        return shifts, after

    def paused_build(self, grig, started, release):
        """The caps read by a build that parses, waits for release, and
        parses again under a cap of its own."""
        caps = [mealy._state_cap()]
        parse_state_expr(grig, "a*b*a*c")
        started.set()
        assert release.wait(timeout=60)
        with state_cap(500):
            parse_state_expr(grig, "(b*a)^-1*d")
        caps.append(mealy._state_cap())
        return caps

    def test_paused_build_collects_only_its_own_records(self, grig):
        solo = self.entries(grig)
        unpaused = threading.Event()
        unpaused.set()
        solo_memo, memo = {}, {}
        with state_cap(400):
            mealy._memoised(solo_memo, "slot", self.paused_build, grig, unpaused, unpaused)
        started, release = threading.Event(), threading.Event()

        def paused():
            with state_cap(400):
                mealy._memoised(memo, "slot", self.paused_build, grig, started, release)

        worker = threading.Thread(target=paused)
        worker.start()
        try:
            assert started.wait(timeout=60)
            with state_cap(300):
                assert mealy._state_cap() == 300
                concurrent = self.entries(grig)
        finally:
            release.set()
            worker.join(timeout=60)
        assert not worker.is_alive()
        assert concurrent == solo
        assert all(solo[0][text] for text in self.SHIFTS[:3]) and not solo[0]["b:1>1"]
        assert solo[1] and all(solo[1].values())
        assert memo == solo_memo
        explored, caps = memo["slot"]
        assert caps == [400, 400]
        assert explored == max(least_cap(lambda: parse_state_expr(grig, text), 500)
                               for text in ("a*b*a*c", "(b*a)^-1*d"))

    def test_build_that_sets_its_own_cap_is_hit_like_a_cold_build(self, grig):
        """A build that raises its own cap counts what it explored under
        that cap; a hit under a lower cap builds it again and gives what
        a cold build gives, and the count joins an enclosing build's."""
        def build():
            with state_cap(100):
                return parse_state_expr(grig, "a*b*a*c")

        warm, outer = {}, {}
        value = mealy._memoised(warm, "slot", build)
        with state_cap(2):
            cold = mealy._memoised({}, "slot", build)
            warm_hit = mealy._memoised(warm, "slot", build)
            assert warm_hit.machine is cold.machine is value.machine
            assert warm_hit.state == cold.state == value.state
            mealy._memoised(outer, "slot", mealy._memoised, warm, "slot", build)
        assert warm == outer == {"slot": (8, value)}

    def test_every_outcome_restores_the_scope(self, grig):
        t, g = self.composites(grig)[1]
        for cap in (None, 1, 2):
            with contextlib.ExitStack() as stack:
                if cap is not None:
                    stack.enter_context(state_cap(cap))
                before = mealy._scope.get()
                assert before == (cap or STATE_CAP, None)
                pop_memos("after", "compose", "inverse")
                grig._memo.pop("shift", None)
                calls = [lambda: parse_shift(grig, "a*b*a*c:>"),
                         lambda: germs._after_key(t, g.map, g.base),
                         lambda: parse_shift(grig, "a*zz:>"),
                         lambda: parse_shift(grig, "a*(b:>")]
                outcomes = []
                for call in calls:
                    try:
                        call()
                        outcomes.append("built")
                    except (StateCapError, ElementParseError) as exc:
                        outcomes.append(type(exc).__name__)
                    assert mealy._scope.get() is before
                built = "built" if cap is None else "StateCapError"
                assert outcomes == [built, built, "ElementParseError", "ElementParseError"]
            assert mealy._scope.get() == (STATE_CAP, None)


def reference_refine(d, outputs, transitions, members):
    """The Moore refinement the quotient replaced, kept verbatim."""
    block = {}
    seen = {}
    for q in members:
        sig = outputs[q]
        if sig not in seen:
            seen[sig] = len(seen)
        block[q] = seen[sig]
    nblocks = len(seen)
    while True:
        seen = {}
        nxt = {}
        for q in members:
            sig = (block[q], tuple(block[transitions[q][x]] for x in range(d)))
            if sig not in seen:
                seen[sig] = len(seen)
            nxt[q] = seen[sig]
        if len(seen) == nblocks:
            return nxt
        block = nxt
        nblocks = len(seen)


def reference_tables(d, outputs, transitions, start):
    """Tables of the canonical form of state start before the quotient was
    memoised per machine: refine the whole table, number the blocks
    breadth-first from the start's block."""
    members = list(range(len(outputs)))
    block = reference_refine(d, outputs, transitions, members)
    rep = {}
    for q in members:
        rep.setdefault(block[q], q)
    number = {block[start]: 0}
    border = [block[start]]
    pos = 0
    while pos < len(border):
        b = border[pos]
        pos += 1
        q = rep[b]
        for x in range(d):
            tb = block[transitions[q][x]]
            if tb not in number:
                number[tb] = len(border)
                border.append(tb)
    canon_out = []
    canon_trans = []
    for b in border:
        q = rep[b]
        canon_out.append(outputs[q])
        canon_trans.append(tuple(number[block[transitions[q][x]]] for x in range(d)))
    return tuple(canon_out), tuple(canon_trans)


def reference_canonical(d, outputs, transitions, start):
    """The canonical form before canonical forms became (SCC closure,
    state) pairs: the key state 0 of reference_tables was interned under,
    one closure per state.  Two states were equal iff their keys were."""
    return (d, *reference_tables(d, outputs, transitions, start))


def closure_key(a):
    """The closure of a's state in its machine, renumbered breadth-first
    from that state and keyed like reference_canonical."""
    return (a.machine.alphabet_size,
            *breadth_first_renumbering(a.machine.outputs, a.machine.transitions, a.state))


def random_machine(rng):
    """At most 7 named states over 2 or 3 letters, half the output rows
    the identity, some states duplicated (same row, some edges redirected
    to the copy), state order shuffled."""
    d = rng.choice((2, 3))
    letters = tuple(range(d))
    k = rng.randint(1, 6)
    outputs = [letters if rng.random() < 0.5 else tuple(rng.sample(letters, d))
               for _ in range(k)]
    transitions = [[rng.randrange(k) for _ in letters] for _ in range(k)]
    while len(outputs) < 7 and rng.random() < 0.6:
        q = rng.randrange(k)
        copy = len(outputs)
        outputs.append(outputs[q])
        transitions.append(list(transitions[q]))
        for row in transitions:
            for x in letters:
                if row[x] == q and rng.random() < 0.5:
                    row[x] = copy
    order = list(range(len(outputs)))
    rng.shuffle(order)
    place = {old: new for new, old in enumerate(order)}
    return Machine(d, [outputs[old] for old in order],
                   [[place[t] for t in transitions[old]] for old in order],
                   names=[f"s{q}" for q in range(len(order))])


def outputs_on_words(machine, q, length):
    """Output of state q on every input word of the given length, in
    lexicographic order of the inputs, by walking the raw tables."""
    layer = [((), q)]
    for _ in range(length):
        layer = [(out + (machine.outputs[s][x],), machine.transitions[s][x])
                 for out, s in layer for x in range(machine.alphabet_size)]
    return tuple(out for out, _ in layer)


def raw_product(m, a, b):
    """Tables of the product machine w -> a(b(w)) on all state pairs."""
    d = m.alphabet_size
    pairs = list(itertools.product(range(m.size), repeat=2))
    index = {p: i for i, p in enumerate(pairs)}
    outputs = [tuple(m.outputs[p][m.outputs[q][x]] for x in range(d)) for p, q in pairs]
    transitions = [tuple(index[m.transitions[p][m.outputs[q][x]], m.transitions[q][x]]
                         for x in range(d)) for p, q in pairs]
    return outputs, transitions, index[a, b]


def raw_inverse(m):
    """Tables of the inverse machine on all states."""
    d = m.alphabet_size
    inverse_rows = [tuple(row.index(x) for x in range(d)) for row in m.outputs]
    transitions = [tuple(m.transitions[q][inverse_rows[q][x]] for x in range(d))
                   for q in range(m.size)]
    return inverse_rows, transitions


class TestQuotientOracle:
    MACHINES = 300

    def machines(self):
        rng = random.Random(2718)
        return [random_machine(rng) for _ in range(self.MACHINES)]

    def test_classes_match_outputs_on_words(self):
        merged = singleton = 0
        for m in self.machines():
            mm, mapping = minimize(m)
            classes = {}
            for q in range(m.size):
                classes.setdefault(outputs_on_words(m, q, m.size), set()).add(q)
            expected = {frozenset(c) for c in classes.values()}
            got = {}
            for q, b in enumerate(mapping):
                got.setdefault(b, set()).add(q)
            assert {frozenset(c) for c in got.values()} == expected
            assert (mm.outputs, mm.transitions) == mealy._quotient(m.outputs,
                                                                   m.transitions)[:2]
            assert mm.names is None
            assert minimize(mm) == (mm, list(range(mm.size)))
            merged += mm.size < m.size
            singleton += mm.size == m.size
        assert merged >= 20 and singleton >= 20, (merged, singleton)

    def test_canonical_matches_reference(self):
        rng = random.Random(1618)
        d_seen = set()
        for m in self.machines():
            d = m.alphabet_size
            d_seen.add(d)
            inv_out, inv_trans = raw_inverse(m)
            for q in range(m.size):
                c = m.state(q).canonical()
                assert c.machine.root[c.state]
                assert closure_key(c) == reference_canonical(d, m.outputs, m.transitions, q)
                cm = c.machine
                for s in range(cm.size):
                    assert closure_key(Aut(cm, s).canonical()) == reference_canonical(
                        d, cm.outputs, cm.transitions, s)
                r = rng.randrange(m.size)
                prod = m.state(q) * m.state(r)
                assert prod.machine.root[prod.state]
                assert closure_key(prod) == reference_canonical(d, *raw_product(m, q, r))
                assert prod.canonical() is prod
                inv = m.state(q).inverse()
                assert inv.machine.root[inv.state]
                assert closure_key(inv) == reference_canonical(d, inv_out, inv_trans, q)
        assert d_seen == {2, 3}

    def test_equal_iff_reference_forms_are(self):
        """On machines with duplicated states and several SCCs, two states
        are equal (and then hash equal) iff their reference forms are."""
        by_d = {}
        for m in self.machines()[:120]:
            for q in range(m.size):
                by_d.setdefault(m.alphabet_size, []).append(
                    (m.state(q), reference_canonical(m.alphabet_size, m.outputs,
                                                     m.transitions, q)))
        equal = 0
        for states in by_d.values():
            for (a, ref_a), (b, ref_b) in itertools.combinations(states, 2):
                assert (a == b) == (ref_a == ref_b)
                if ref_a == ref_b:
                    assert hash(a) == hash(b)
                    equal += a.machine is not b.machine
        assert equal >= 1000, equal

    def test_permuted_copies_intern_identically(self):
        rng = random.Random(1414)
        machines = self.machines()[:60] + [oracle_machine(rng, duplicate=i % 2 == 1,
                                                          size=30) for i in range(10)]
        for m in machines:
            order = list(range(m.size))
            rng.shuffle(order)
            place = {old: new for new, old in enumerate(order)}
            copy = Machine(m.alphabet_size, [m.outputs[old] for old in order],
                           [[place[t] for t in m.transitions[old]] for old in order])
            for q in range(m.size):
                c, c_copy = m.state(q).canonical(), copy.state(place[q]).canonical()
                assert c.machine is c_copy.machine and c.state == c_copy.state

    def test_rank_order_restricts_to_forward_closed_sets(self):
        """The order _quotient gives the states of a forward-closed set
        inside a machine is the order it gives the set alone."""
        rng = random.Random(1732)
        proper = 0
        for m in self.machines():
            block = mealy._quotient(m.outputs, m.transitions)[2]
            starts = rng.sample(range(m.size), min(m.size, rng.randint(1, 2)))
            members = reference_closure(m, starts)
            index = {s: i for i, s in enumerate(members)}
            alone = mealy._quotient([m.outputs[s] for s in members],
                                    [[index[t] for t in m.transitions[s]] for s in members])[2]
            pairs = {(block[s], alone[index[s]]) for s in members}
            assert len({w for w, _ in pairs}) == len({a for _, a in pairs}) == len(pairs)
            assert sorted(pairs) == sorted(pairs, key=lambda p: p[1])
            proper += len(members) < m.size
        assert proper >= 100, proper

    def test_intern_table_grows_by_scc_closures(self):
        """Canonicalising every state of a fresh machine interns one
        machine per distinct SCC closure of its quotient."""
        rng = random.Random(1123)
        d = 7  # no other test uses seven letters, so every closure is new
        letters = tuple(range(d))
        for _ in range(5):
            # four groups of three states, each state a random non-identity
            # row; edges stay in their group or go to a later one; then a
            # state is copied, so the machine is not minimal
            group = [g for g in range(4) for _ in range(3)]
            outputs = [tuple(rng.sample(letters, d)) for _ in group]
            transitions = [[rng.choice([t for t in range(12) if group[t] == g])
                            if g == 3 or rng.random() < 0.8
                            else rng.choice([t for t in range(12) if group[t] > g])
                            for _ in letters] for g in group]
            outputs.append(outputs[0])
            transitions.append(list(transitions[0]))
            transitions[1][0] = 12
            m = Machine(d, outputs, transitions)
            mm = minimize(m)[0]
            reach = reference_reachability(range(mm.size), mm.transitions.__getitem__)
            sccs = {frozenset(t for t in reach[s] if s in reach[t]) for s in range(mm.size)}
            before = set(map(id, mealy._interned.values()))
            canonical = [m.state(q).canonical() for q in range(m.size)]
            machines = {c.machine for c in canonical}
            assert len(mealy._interned) - len(before) == len(machines) == len(sccs)
            assert not {id(c) for c in machines} & before
            assert max(map(len, sccs)) >= 2

    def test_mapping_does_not_alias_memo(self, grig):
        for m in [grig, *self.machines()[:20]]:
            mm, mapping = minimize(m)
            expected = list(mapping)
            mapping[0] = mm.size
            mapping.append(0)
            again, mapping2 = minimize(m)
            assert again is mm
            assert mapping2 == expected
            assert mapping2 is not mapping

    def test_interned_states_skip_refinement(self, monkeypatch):
        rng = random.Random(5772)
        interned = []
        for _ in range(40):
            m = random_machine(rng)
            interned += [(m.state(q) * m.state(0)).machine for q in range(m.size)]
        closures = []

        def no_refinement(*args):
            raise AssertionError("canonical() refined an interned machine")

        def counted_closure(*args):
            closures.append(args)
            return real_closure(*args)

        real_closure = mealy._interned_closure
        monkeypatch.setattr(mealy, "_quotient", no_refinement)
        monkeypatch.setattr(mealy, "_interned_closure", counted_closure)
        for cm in interned:
            for s in range(cm.size):
                a = Aut(cm, s)
                c = a.canonical()
                assert c.machine.root[c.state]
                assert (c is a) == (c.machine is cm) == cm.root[s]
                assert mealy._canonical_pair(cm, s) == (c.machine, c.state)
        assert len(closures) >= 50


def reference_reachable(d, start, out_fn, trans_fn):
    """Tables of the states reachable from start (state 0), found
    depth-first; shares no loop with mealy._explore."""
    index = {start: 0}
    labels = [start]
    stack = [start]
    while stack:
        q = stack.pop()
        for x in range(d):
            t = trans_fn(q, x)
            if t not in index:
                index[t] = len(labels)
                labels.append(t)
                stack.append(t)
    return ([tuple(out_fn(q)) for q in labels],
            [tuple(index[trans_fn(q, x)] for x in range(d)) for q in labels])


def reference_result(d, outputs, transitions):
    """State 0 of an uninterned machine holding the reference canonical
    tables of state 0 of the given tables."""
    return Aut(Machine(d, *reference_tables(d, outputs, transitions, 0)), 0)


def reference_compose(g, h):
    """The product as computed before products were memoised: explored
    from the raw operands, with nothing cached, refined and numbered by
    the reference loops.  Returns the product (an uninterned machine) and
    the number of product states reachable."""
    d = g.machine.alphabet_size
    out1, tr1 = g.machine.outputs, g.machine.transitions
    out2, tr2 = h.machine.outputs, h.machine.transitions

    def out_fn(pair):
        a, b = pair
        return tuple(out1[a][out2[b][x]] for x in range(d))

    def trans_fn(pair, x):
        a, b = pair
        return (tr1[a][out2[b][x]], tr2[b][x])

    outputs, transitions = reference_reachable(d, (g.state, h.state), out_fn, trans_fn)
    return reference_result(d, outputs, transitions), len(outputs)


def reference_inverse(g):
    """The inverse as computed before inverses were memoised, like
    reference_compose; returns the inverse and the number of states
    reachable."""
    d = g.machine.alphabet_size
    tr = g.machine.transitions
    inv = [tuple(row.index(x) for x in range(d)) for row in g.machine.outputs]

    def trans_fn(q, x):
        return tr[q][inv[q][x]]

    outputs, transitions = reference_reachable(d, g.state, inv.__getitem__, trans_fn)
    return reference_result(d, outputs, transitions), len(outputs)


def reference_closure(m, starts):
    """The states of m reachable from starts, in index order."""
    reach = reference_reachability(range(m.size), m.transitions.__getitem__)
    return sorted(set().union(*(reach[s] for s in starts)))


def tables(a):
    """Tables of the closure of an automorphism's state in its machine,
    renumbered breadth-first from that state."""
    return breadth_first_renumbering(a.machine.outputs, a.machine.transitions, a.state)


def least_cap(build, most):
    """Least cap under which build() succeeds, given that it succeeds
    under most (a StateCapError from that first call fails the test)."""
    with state_cap(most):
        build()
    lo, hi = 1, most
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            with state_cap(mid):
                build()
            hi = mid
        except StateCapError:
            lo = mid + 1
    return lo


def words_up_to(d, length):
    return [w for k in range(length + 1) for w in itertools.product(range(d), repeat=k)]


class TestGroupLawOracle:
    """Memoised compose / inverse against the kept raw-operand bodies."""

    def test_random_machines_match_reference(self):
        rng = random.Random(31415)
        lower = {"compose": 0, "inverse": 0}
        nonminimal = brute = 0
        for i in range(240):
            duplicate = i % 2 == 1
            m = oracle_machine(rng, duplicate)
            other = m if rng.random() < 0.5 else oracle_machine(rng, duplicate,
                                                                 d=m.alphabet_size)
            nonminimal += minimize(m)[0].size < m.size
            g, h = m.state(rng.randrange(m.size)), other.state(rng.randrange(other.size))
            for op, build, (ref, explored) in (
                    ("compose", lambda: g * h, reference_compose(g, h)),
                    ("inverse", g.inverse, reference_inverse(g))):
                cold = build()
                assert tables(cold) == tables(ref)
                assert build() is cold  # warm
                cap = least_cap(build, explored)
                assert cap <= explored
                lower[op] += cap < explored
            if i % 8 == 0:
                brute += 1
                prod, inv = g * h, g.inverse()
                for w in words_up_to(m.alphabet_size, 5):
                    assert prod.apply_word(w) == g.apply_word(h.apply_word(w))
                    assert inv.apply_word(g.apply_word(w)) == w
        assert nonminimal >= 120 and brute == 30
        assert min(lower.values()) >= 100, lower

    def test_words_on_bundled_machines_match_reference(self, grig, adding):
        rng = random.Random(27182)
        for m in (grig, adding):
            gens = [m.state(n) for n in m.names if n != "e"]
            for _ in range(30):
                acc = ref = m.state("e")
                for _ in range(rng.randint(1, 12)):
                    g = rng.choice(gens)
                    if rng.random() < 0.3:
                        g, ref_g = g.inverse(), reference_inverse(g)[0]
                        assert tables(g) == tables(ref_g)
                    acc = acc * g
                    ref = reference_compose(ref, g)[0]
                    assert tables(acc) == tables(ref)
                assert tables(acc.inverse()) == tables(reference_inverse(ref)[0])
                for w in words_up_to(2, 5):
                    assert acc.inverse().apply_word(acc.apply_word(w)) == w

    def test_memos_sit_on_minimal_machines(self, grig):
        """After a seeded session of products, inverses, germ keys,
        composite keys and term products on raw machines, interned
        products and grig, every such entry sits on a minimal machine,
        an interned one or a quotient, and its slot names states of that
        machine; no other machine holds one."""
        rng = random.Random(161)
        raws = [grig]
        for i in range(12):
            raw = oracle_machine(rng, duplicate=i % 2 == 0, size=12)
            g, h = raw.state(rng.randrange(raw.size)), raw.state(rng.randrange(raw.size))
            product = g * h
            quotient, block = minimize(raw)
            assert ("compose", block[g.state], quotient, block[h.state]) in quotient._memo
            product.inverse()
            assert ("inverse", product.state) in product.machine._memo
            raws += [raw, product.machine]
        for m in raws:
            d = m.alphabet_size
            a, b = random_element(m, rng), random_element(m, rng)
            a * b
            x = Point(random_word(rng, d, rng.randint(0, 2)), random_word(rng, d, 1))
            k = rng.randint(0, 1)
            g = PartialMap(m.state(rng.randrange(m.size)), random_word(rng, d, k),
                           x.prefix(k)).germ_at(x)
            y = g.range()
            t = PartialMap(m.state(rng.randrange(m.size)), random_word(rng, d, 2), y.prefix(2))
            germs._after_key(t, g.map, x)
        # kind -> the indices of (machine, state) pairs in a slot after its own state
        others = {"compose": (2,), "inverse": (), "germ": (), "after": (4,), "times": (5,)}
        machines = [o for o in gc.get_objects() if type(o) is Machine]
        minimal = {id(m) for m in machines  # interned, or a quotient
                   if m.root is not None or m._memo.get("minimize", (None,))[0] is m}
        seen = dict.fromkeys(others, 0)
        for m in machines:
            slots = [k for k in m._memo if isinstance(k, tuple) and k[0] in others]
            assert not slots or id(m) in minimal
            for slot in slots:
                seen[slot[0]] += 1
                assert 0 <= slot[1] < m.size
                for i in others[slot[0]]:
                    assert id(slot[i]) in minimal and 0 <= slot[i + 1] < slot[i].size
                if slot[0] in ("compose", "inverse"):
                    explored, result = m._memo[slot]
                    assert explored >= result.machine.size
                    assert result.machine.root[result.state]
        assert all(count >= 10 for count in seen.values()), seen


def breadth_first_renumbering(outputs, transitions, start):
    """The tables renumbered breadth-first from start, smallest letter
    first, keeping the states reachable from start."""
    number = {start: 0}
    order = [start]
    for q in order:
        for t in transitions[q]:
            if t not in number:
                number[t] = len(order)
                order.append(t)
    return (tuple(outputs[q] for q in order),
            tuple(tuple(number[t] for t in transitions[q]) for q in order))


class TestRenumberingLemma:
    def test_quotient_of_explored_machine_numbers_itself(self):
        """The quotient _quotient returns for an explored machine is
        numbered as _quotient numbers the quotient alone, whatever the
        order of the explored states, and its start class reaches every
        class: compose / inverse intern it without renumbering, with the
        start's class in the root."""
        rng = random.Random(1729)
        merged = 0
        for _ in range(1500):
            d = rng.choice((2, 3))
            letters = tuple(range(d))
            n = rng.randint(1, 12)
            outputs = [letters if rng.random() < 0.5 else tuple(rng.sample(letters, d))
                       for _ in range(n)]
            transitions = [tuple(rng.randrange(n) for _ in letters) for _ in range(n)]
            outs, trans = mealy._explore(
                d, [rng.randrange(n)], outputs.__getitem__, lambda q, x: transitions[q][x],
                n, AssertionError("a machine of n states explored past n"))
            q_outs, q_trans, block = mealy._quotient(outs, trans)
            assert mealy._quotient(q_outs, q_trans) == (q_outs, q_trans, list(range(len(q_outs))))
            order = list(range(len(outs)))
            rng.shuffle(order)
            place = {old: new for new, old in enumerate(order)}
            shuffled = mealy._quotient([outs[old] for old in order],
                                       [[place[t] for t in trans[old]] for old in order])
            assert shuffled[:2] == (q_outs, q_trans)
            assert [shuffled[2][place[q]] for q in range(len(outs))] == block
            assert len(breadth_first_renumbering(q_outs, q_trans, block[0])[0]) == len(q_outs)
            merged += len(q_outs) < len(outs)
        assert merged >= 300, merged


class TestExploreStarts:
    def test_distinct_starts_are_numbered_first(self):
        """The distinct starts take numbers 0, 1, .. in the order given and
        the rest follow breadth-first; more distinct starts than the cap
        raise at once."""
        transitions = [(1, 2), (3, 3), (0, 4), (3, 1), (4, 4)]
        outs, trans = mealy._explore(2, [2, 4, 2, 1], lambda q: (q,),
                                     lambda q, x: transitions[q][x], 5, AssertionError())
        assert outs == [(2,), (4,), (1,), (0,), (3,)]
        assert trans == [(3, 1), (1, 1), (4, 4), (2, 0), (4, 2)]
        error = ValueError("cap")
        for cap in (1, 2):
            with pytest.raises(ValueError):
                mealy._explore(2, [0, 1, 0, 2], lambda q: (q,),
                               lambda q, x: transitions[q][x], cap, error)
        with pytest.raises(ValueError):  # the starts fit, their successors do not
            mealy._explore(2, [0, 1, 2], lambda q: (q,),
                           lambda q, x: transitions[q][x], 3, error)


class TestInternedTables:
    def test_interned_machines_match_checked_construction(self):
        """_intern builds machines without Machine()'s checks; the tables,
        identity state, root and content hashes it gives are those
        Machine() gives the same tables, with the identity and root found
        independently."""
        rng = random.Random(8128)
        interned = set()
        for _ in range(120):
            m = oracle_machine(rng, rng.random() < 0.5, size=12)
            a, b = rng.randrange(m.size), rng.randrange(m.size)
            for g in (m.state(a).canonical(), m.state(a) * m.state(b),
                      m.state(b).inverse()):
                M = g.machine
                interned.add(M)
                checked = Machine(M.alphabet_size, M.outputs, M.transitions,
                                  identity=M.identity)
                assert (M.outputs, M.transitions, state_hashes(M)) == (
                    checked.outputs, checked.transitions, state_hashes(checked))
                assert all(type(t) is tuple and all(type(row) is tuple for row in t)
                           for t in (M.outputs, M.transitions))
                letters = tuple(range(M.alphabet_size))
                trivial = [q for q in range(M.size) if M.outputs[q] == letters
                           and set(M.transitions[q]) == {q}]
                assert M.identity == (trivial[0] if trivial else None)
                reach = reference_reachability(range(M.size), M.transitions.__getitem__)
                assert M.root == tuple(len(reach[q]) == M.size for q in range(M.size))
                assert M.root[g.state] and M.names is None and checked.root is None
        assert len(interned) >= 150, len(interned)

    def test_parsed_and_minimised_machines_match_checked_construction(self, bundled,
                                                                       ternary):
        """parse_machine and minimize fill the slots without Machine()'s
        checks; the tables, identity, names and content hashes they give
        are those Machine() gives the same tables."""
        rng = random.Random(8129)
        machines = list(bundled.values()) + [ternary]
        machines += [oracle_machine(rng, rng.random() < 0.5, size=9) for _ in range(40)]
        for m in machines:
            parsed = parse_machine(format_machine(m))
            assert type(parsed.names) is tuple and parsed.names[parsed.identity] == "e"
            for built in (parsed, minimize(m)[0], minimize(parsed)[0]):
                checked = Machine(built.alphabet_size, built.outputs, built.transitions,
                                  identity=built.identity, names=built.names)
                for slot in ("alphabet_size", "outputs", "transitions", "identity",
                             "names", "root"):
                    assert getattr(built, slot) == getattr(checked, slot)
                assert state_hashes(built) == state_hashes(checked)
                assert all(type(t) is tuple and all(type(row) is tuple for row in t)
                           for t in (built.outputs, built.transitions))

    @pytest.mark.parametrize("args, message", [
        ((1, [(0,)], [(0,)]), "at least two letters"),
        ((2, [], []), "matching, nonempty"),
        ((2, [(0, 1)], []), "matching, nonempty"),
        ((2, [(0, 1), (1, 0)], [(0, 0)]), "matching, nonempty"),
        ((2, [(0, 0)], [(0, 0)]), "output row of state 0 is not a permutation"),
        ((2, [(0, 1), (0, 1, 2)], [(0, 0), (1, 1)]), "row of state 1 is not a permutation"),
        ((3, [(0, 1, 3)], [(0, 0, 0)]), "not a permutation"),
        ((2, [(0, 1)], [(0,)]), "transition row of state 0 is malformed"),
        ((2, [(0, 1)], [(0, 0, 0)]), "transition row of state 0 is malformed"),
        ((2, [(0, 1)], [(0, 1)]), "transition row of state 0 is malformed"),
        ((2, [(0, 1)], [(0, -1)]), "transition row of state 0 is malformed"),
        ((2, [(1, 0)], [(0, 0)], 0), "does not act trivially"),
        ((2, [(0, 1), (0, 1)], [(1, 1), (1, 1)], 0), "does not act trivially"),
        ((2, [(0, 1), (0, 1)], [(0, 0), (1, 1)], None, ["a", "a"]), "names must be unique"),
        ((2, [(0, 1)], [(0, 0)], None, ["a", "b"]), "names must be unique"),
        ((2, [(0, 1), (1, 0)], [(0, 0), (0, 0)], 5), "identity state 5 out of range"),
        ((2, [(0, 1), (1, 0)], [(0, 0), (0, 0)], -1), "identity state -1 out of range"),
        ((2, [(0, 1)], [(0, 0)], "e"), "identity state must be an integer, not 'e'"),
        ((2, [(0, 1)], [(0, 0)], 0.0), "identity state must be an integer"),
        ((2.9, [(0, 1)], [(0, 0)]), "alphabet size must be an integer, not 2.9"),
        (("3", [(0, 1, 2)], [(0, 0, 0)]), "alphabet size must be an integer, not '3'"),
        ((2, [(0, 1), (1, 0)], [(0, 0), (1.0, 0.0)], 0), "transition row of state 1 is malformed"),
        ((2, [(0, 1)], [(0, "0")]), "transition row of state 0 is malformed"),
        ((2, [(0, 1), (1.0, 0.0)], [(0, 0), (0, 0)]), "row of state 1 is not a permutation"),
        ((2, [("0", 1)], [(0, 0)]), "output row of state 0 is not a permutation"),
    ])
    def test_machine_rejects_malformed_tables(self, args, message):
        with pytest.raises(ValueError, match=message):
            Machine(*args)


def reference_infinite_path_nodes(nodes, succ):
    """The round-robin peeling sweep that infinite_path_nodes replaced."""
    alive = set(nodes)
    changed = True
    while changed:
        changed = False
        for q in list(alive):
            if not any(t in alive for t in succ(q)):
                alive.discard(q)
                changed = True
    return alive


def reference_backward_distances(nodes, succ, targets):
    """The relaxation sweep that backward_distances replaced: lower each
    node to one more than its nearest successor until nothing changes."""
    nodes = set(nodes)
    dist = dict.fromkeys(targets, 0)
    changed = True
    while changed:
        changed = False
        for q in nodes:
            near = [dist[t] + 1 for t in succ(q) if t in nodes and t in dist]
            if near and min(near) < dist.get(q, len(nodes) + 1):
                dist[q] = min(near)
                changed = True
    return dist


def reference_reachability(nodes, succ):
    """q -> every node reachable from q inside nodes (q included), by a
    separate search from each node."""
    inside = set(nodes)
    reach = {}
    for q in nodes:
        seen, todo = {q}, [q]
        while todo:
            for t in succ(todo.pop()):
                if t in inside and t not in seen:
                    seen.add(t)
                    todo.append(t)
        reach[q] = seen
    return reach


def random_graph(rng):
    """Labels drawn from a sparse range, some edges leaving the node set,
    self-loops, repeated edges, sinks and isolated nodes."""
    labels = rng.sample(range(1000), rng.randint(0, 12))
    nodes = [q for q in labels if rng.random() < 0.8]
    succ = {}
    for q in labels:
        out = [rng.choice(labels) for _ in range(rng.choice((0, 1, 1, 2, 3)))]
        if rng.random() < 0.2:
            out.append(q)
        if out and rng.random() < 0.2:
            out.append(out[0])
        succ[q] = out
    targets = rng.sample(nodes, min(len(nodes), rng.randint(0, 3)))
    if rng.random() < 0.2:
        targets = []
    return nodes, succ.__getitem__, targets


class TestGraphHelpers:
    def test_match_reference_sweeps(self):
        rng = random.Random(4242)
        seen = {"no_targets": 0, "far": 0, "unreached": 0, "all_alive": 0,
                "some_dead": 0, "none_alive": 0}
        for _ in range(600):
            nodes, succ, targets = random_graph(rng)
            dist = backward_distances(nodes, succ, targets)
            assert dist == reference_backward_distances(nodes, succ, targets)
            alive = infinite_path_nodes(iter(nodes), succ)
            assert alive == reference_infinite_path_nodes(nodes, succ)
            seen["no_targets"] += not targets
            seen["far"] += any(v >= 2 for v in dist.values())
            seen["unreached"] += len(dist) < len(nodes)
            seen["all_alive"] += bool(nodes) and len(alive) == len(nodes)
            seen["some_dead"] += 0 < len(alive) < len(nodes)
            seen["none_alive"] += bool(nodes) and not alive
        assert min(seen.values()) >= 20, seen

    def test_small_cases(self):
        succ = {1: [2, 2], 2: [3], 3: [3], 4: [9], 5: []}.__getitem__
        assert backward_distances([1, 2, 3, 4, 5], succ, [3]) == {3: 0, 2: 1, 1: 2}
        assert backward_distances([1, 2, 3], succ, []) == {}
        assert infinite_path_nodes([1, 2, 3, 4, 5], succ) == {1, 2, 3}
        assert infinite_path_nodes([1, 2], succ) == set()

    def test_strong_components_match_mutual_reachability(self):
        rng = random.Random(4343)
        seen = {"cyclic": 0, "all_singletons": 0, "several": 0, "empty": 0}
        for _ in range(600):
            nodes, edges, _ = random_graph(rng)
            inside = set(nodes)

            def succ(q):
                return [t for t in edges(q) if t in inside]

            components = list(strong_components(iter(nodes), succ))
            where = {q: i for i, c in enumerate(components) for q in c}
            assert sorted(where) == sorted(nodes)
            assert sum(map(len, components)) == len(nodes)
            reach = reference_reachability(nodes, succ)
            for q in nodes:
                for t in nodes:
                    mutual = t in reach[q] and q in reach[t]
                    assert (where[q] == where[t]) == mutual
                for t in succ(q):
                    if t in where:  # sinks first: edges never point later
                        assert where[t] <= where[q]
            seen["cyclic"] += any(len(c) > 1 for c in components)
            seen["all_singletons"] += bool(nodes) and len(components) == len(nodes)
            seen["several"] += len(components) >= 3
            seen["empty"] += not nodes
        assert min(seen.values()) >= 20, seen

    def test_strong_components_small_and_deep(self):
        succ = {1: [2, 2], 2: [3, 1], 3: [3], 4: [9], 5: [], 9: []}.__getitem__
        components = [sorted(c) for c in strong_components([1, 2, 3, 4, 5], succ)]
        assert sorted(components) == [[1, 2], [3], [4], [5], [9]]
        assert components.index([3]) < components.index([1, 2])
        assert components.index([9]) < components.index([4])
        assert list(strong_components([], succ)) == []
        # far deeper than the recursion limit: a path into one long cycle
        n = 5000
        chain = {q: [q + 1] for q in range(2 * n)}
        chain[2 * n - 1] = [n]
        components = list(strong_components(range(2 * n), chain.__getitem__))
        assert sorted(components[0]) == list(range(n, 2 * n))
        assert components[1:] == [[q] for q in reversed(range(n))]

    def test_strong_components_are_yielded_lazily(self):
        """The sink cycle 1 -> 3 -> 1 comes out before succ is asked about
        node 2, the other branch from 0, or the sink 4 beyond it."""
        edges = {0: [1, 2], 1: [3], 3: [1], 2: [4], 4: []}

        class AskedTooFar(Exception):
            pass

        def succ(q):
            if q in (2, 4):
                raise AskedTooFar(q)
            return edges[q]

        components = strong_components([0], succ)
        assert sorted(next(components)) == [1, 3]
        with pytest.raises(AskedTooFar):
            next(components)


def reference_parse_machine(text):
    """parse_machine before it kept checked rows by their text, kept
    verbatim up to building the machine through Machine()."""
    d = None
    rows = []  # (lineno, name, perm, successor names)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("alphabet"):
            if d is not None:
                raise MachineParseError(f"line {lineno}: duplicate alphabet directive")
            parts = line.split()
            if len(parts) != 2 or not mealy._is_numeral(parts[1]):
                raise MachineParseError(f"line {lineno}: expected 'alphabet <d>'")
            try:
                d = int(parts[1])
            except ValueError:  # more digits than int() converts
                raise MachineParseError(
                    f"line {lineno}: alphabet size {excerpt(parts[1])} too long") from None
            if not 2 <= d <= 10:
                raise MachineParseError(
                    f"line {lineno}: alphabet must have 2 to 10 letters, "
                    f"got {excerpt(parts[1])}")
            continue
        m = mealy._STATE_RE.match(line)
        if not m:
            raise MachineParseError(
                f"line {lineno}: unrecognised directive {excerpt(line)}")
        if d is None:
            raise MachineParseError(f"line {lineno}: state before alphabet directive")
        name, perm_text, to_text = m.group(1), m.group(2), m.group(3)
        if not mealy._NAME_RE.match(name):
            raise MachineParseError(f"line {lineno}: bad state name {excerpt(name)}")
        perm_parts = perm_text.split()
        to_parts = to_text.split()
        if len(perm_parts) != d or len(to_parts) != d:
            raise MachineParseError(
                f"line {lineno}: state {name} needs {d} images and {d} successors")
        if not all(map(mealy._is_numeral, perm_parts)):
            raise MachineParseError(f"line {lineno}: non-integer image")
        try:
            perm = tuple(map(int, perm_parts))
        except ValueError:  # more digits than int() converts
            raise MachineParseError(f"line {lineno}: image numeral too long") from None
        if tuple(sorted(perm)) != tuple(range(d)):
            raise MachineParseError(
                f"line {lineno}: output row of {name} is not a permutation")
        rows.append((lineno, name, perm, to_parts))
    if d is None:
        raise MachineParseError("missing alphabet directive")
    if not rows:
        raise MachineParseError("machine has no states")
    names = [r[1] for r in rows]
    if len(set(names)) != len(names):
        raise MachineParseError("duplicate state name")
    if "e" not in names:
        rows.append((0, "e", tuple(range(d)), ["e"] * d))
        names.append("e")
    index = {n: i for i, n in enumerate(names)}
    outputs = []
    transitions = []
    for lineno, name, perm, to_parts in rows:
        outputs.append(perm)
        row = []
        for t in to_parts:
            if t not in index:
                raise MachineParseError(
                    f"line {lineno}: unknown successor state {excerpt(t)}")
            row.append(index[t])
        transitions.append(tuple(row))
    e = index["e"]
    if outputs[e] != tuple(range(d)) or any(t != e for t in transitions[e]):
        raise MachineParseError("state 'e' is reserved for the identity")
    return Machine(d, outputs, transitions, identity=e, names=names)


def machine_text_lines(rng, d):
    """The lines of a valid machine text over d letters.  Its output rows
    come from a pool of three permutations and the identity, so row texts
    repeat, some with other spacing; comments, blank lines and an
    explicit identity e appear on some texts."""
    names = rng.sample([f"{c}{i}" for c in "abs_" for i in range(40)], rng.randint(1, 24))
    pool = [tuple(rng.sample(range(d), d)) for _ in range(3)] + [tuple(range(d))]
    targets = names + ["e"]
    lines = [f"# random machine over {d} letters", f"alphabet {d}"]
    for name in names:
        perm = rng.choice(pool)
        gaps = " \t" if rng.random() < 0.2 else " "
        perm_text = "".join(f"{x}{rng.choice(gaps)}" for x in perm)
        line = (f"state {name} perm {perm_text.rstrip()} to "
                + " ".join(rng.choice(targets) for _ in range(d)))
        if rng.random() < 0.15:
            line += "  # note"
        if rng.random() < 0.1:
            lines.append("" if rng.random() < 0.5 else "   # between states")
        lines.append(line)
    if rng.random() < 0.4:
        identity = f"state e perm {' '.join(map(str, range(d)))} to {' '.join(['e'] * d)}"
        lines.insert(rng.randint(2, len(lines)), identity)
    return lines


def mutated_text(rng, lines):
    """lines with one or two random edits, each of which may or may not
    break the text: tokens dropped, added or replaced, lines moved,
    repeated or deleted, a comment cutting a line short."""
    lines = list(lines)
    for _ in range(rng.randint(1, 2)):
        states = [i for i, line in enumerate(lines) if line.startswith("state")]
        if not states:
            break
        i = rng.choice(states)
        head, _, tail = lines[i].partition(" to ")
        words = lines[i].split()
        kind = rng.randrange(16)
        if kind == 0:  # an unknown or an extra successor, or one dropped
            lines[i] = f"{head} to {tail} " + rng.choice(("zz9", "e", ""))
        elif kind == 1:
            lines[i] = lines[i].rsplit(" ", 1)[0]
        elif kind == 2:  # an image repeated, dropped or added
            k = words.index("perm") + 1
            words[k + rng.randrange(2)] = words[k + 2 - rng.randrange(2)]
            lines[i] = " ".join(words)
        elif kind == 3:
            lines[i] = head.rsplit(" ", 1)[0] + " to " + tail
        elif kind == 4:
            lines[i] = head + " 0 to " + tail
        elif kind == 5:  # images no longer plain ASCII numerals, or out of range
            k = words.index("perm") + 1 + rng.randrange(2)
            words[k] = rng.choice(("+" + words[k], "\u0663", "9" * 5000, "10", "007", "1.0"))
            lines[i] = " ".join(words)
        elif kind == 6:  # a state named twice, or with a bad name
            lines.insert(rng.randint(2, len(lines)), lines[i])
        elif kind == 7:
            words[1] = rng.choice(("1x", "a-b", "\u00e9t", "e"))
            lines[i] = " ".join(words)
        elif kind == 8:  # the alphabet directive dropped, moved, repeated or changed
            del lines[1]
        elif kind == 9:
            lines.insert(rng.randint(1, len(lines)), lines.pop(1))
        elif kind == 10:
            lines.insert(rng.randint(2, len(lines)), lines[1])
        elif kind == 11:
            lines[1] = rng.choice(("alphabet 3", "alphabet 2", "alphabet 11", "alphabet",
                                   "alphabet 2 3", "alphabet " + "9" * 5000))
        elif kind == 12:  # keywords misspelt
            lines[i] = lines[i].replace(rng.choice(("perm", " to ", "state")),
                                        rng.choice(("prem", " 2 ", "stat")), 1)
        elif kind == 13:  # a comment cuts the line short
            lines[i] = lines[i][:rng.randrange(len(lines[i]))] + " # cut"
        elif kind == 14:  # a state line deleted, its name maybe still a successor
            del lines[i]
        else:  # the identity made nontrivial
            d = len(head.split()) - 3
            lines.append(f"state e perm {' '.join(map(str, reversed(range(d))))} to "
                         + " ".join(["e"] * d))
    return "\n".join(lines) + "\n"


def parse_outcome(parse, text):
    try:
        m = parse(text)
    except MachineParseError as exc:
        return type(exc), str(exc)
    return (m.alphabet_size, m.outputs, m.transitions, m.identity, m.names, state_hashes(m))


class TestParseReference:
    def test_valid_texts_match_reference(self):
        rng = random.Random(3232)
        shared = 0
        for k in range(300):
            text = "\n".join(machine_text_lines(rng, 2 + k % 9)) + "\n"
            m = parse_machine(text)
            assert parse_outcome(parse_machine, text) == parse_outcome(
                reference_parse_machine, text)
            assert [m.index_of(name) for name in m.names] == list(range(m.size))
            # states whose row texts are equal share one tuple
            rows = {}
            for line in text.splitlines():
                if line.startswith("state"):
                    perm_text = line.partition(" perm ")[2].partition(" to ")[0]
                    rows.setdefault(perm_text, []).append(m.outputs[m.index_of(line.split()[1])])
            for same in rows.values():
                assert all(row is same[0] for row in same)
                shared += len(same) - 1
        assert shared >= 1000, shared

    def test_mutated_texts_match_reference(self):
        rng = random.Random(3233)
        messages = set()
        accepted = 0
        for k in range(1500):
            text = mutated_text(rng, machine_text_lines(rng, 2 + k % 9))
            got = parse_outcome(parse_machine, text)
            assert got == parse_outcome(reference_parse_machine, text), text[:300]
            if got[0] is MachineParseError:
                messages.add(re.sub(r"line \d+|'.*'|\b[a-z_]\d+\b|\d+", "#", got[1]))
            else:
                accepted += 1
        assert len(messages) >= 16 and accepted >= 50, (sorted(messages), accepted)


class TestQuotientReference:
    def test_raw_machines_match_tuple_signatures(self):
        """_quotient ranks integer signatures; the tuple signatures it
        replaced give the same tables and classes on machines over 2 to 10
        letters, some large enough that the integers pass 64 bits."""
        rng = random.Random(3234)
        merged = wide = 0
        for k in range(360):
            d = 2 + k % 9
            m = oracle_machine(rng, k % 3 != 0, d=d, size=rng.choice((6, 30, 160, 400)))
            got = mealy._quotient(m.outputs, m.transitions)
            assert got == reference_quotient(m.outputs, m.transitions)
            merged += len(got[0]) < m.size
            wide += len(got[0]) ** (d + 1) >= 2 ** 64
        assert merged >= 150 and wide >= 20, (merged, wide)


def eager_interned_closure(m, q, found):
    """_interned_closure as it stood before canonical forms were built on
    demand, reading no table: q's closure is interned, identity found by
    a scan, and the canonical pairs of all its root states are stored in
    found, a dict over m's states, at once.  Returns q's pair."""
    transitions = m.transitions
    order = sorted(mealy.forward_closure([q], transitions.__getitem__))
    at = dict(zip(order, range(len(order)))).__getitem__
    outputs = tuple(map(m.outputs.__getitem__, order))
    table = tuple(tuple(map(at, transitions[s])) for s in order)
    closure = mealy._intern(m.alphabet_size, outputs, table, at(q),
                            mealy._identity_state(m.alphabet_size, outputs, table))
    for i, s in enumerate(order):
        if closure.root[i]:
            found[s] = (closure, i)
    return found[q]


def table_states(m):
    """The states with an entry in m's closure table."""
    closures = m._memo.get("closures")
    return set() if closures is None else {s for s, c in enumerate(closures[0]) if c}


def reference_pair(m, q):
    """The canonical pair of state q of any machine, from the eager
    reference: (m, q) in an interned machine's root, else the eager
    closure of q in m if m is interned, or of q's class in m's quotient."""
    if m.root is None:
        quotient, block = minimize(m)
        return eager_interned_closure(quotient, block[q], {})
    return (m, q) if m.root[q] else eager_interned_closure(m, q, {})


def canonical_session(rng):
    """Canonical forms, products, inverses, restrictions and shifts on
    fresh seeded machines, in a seeded order."""
    for _ in range(36):
        m = oracle_machine(rng, rng.random() < 0.5, size=12)
        states = list(range(m.size))
        rng.shuffle(states)
        for q in states[:rng.randint(1, m.size)]:
            g = m.state(q) * m.state(rng.randrange(m.size))
            g.restrict(random_word(rng, m.alphabet_size, rng.randint(0, 3))).canonical()
            g.inverse()
            PartialMap(g, (0,), (1,)).restrict_source(
                random_word(rng, m.alphabet_size, rng.randint(0, 2)))


class TestCanonicalFormsOnDemand:
    """A state's canonical pair is filled into its machine's closure
    table, a component at a time, only when it is asked for, and no Aut
    is kept; the eager reference above gives every answer."""

    def check_states(self, T, states):
        """Ask T's states for their canonical forms in this order: each has
        the eager reference's machine and state, canonical() returns
        self exactly for T's root states, and T's closure table holds
        entries for exactly the root states of the closures asked."""
        before = table_states(T)
        asked = set()
        for s in states:
            a = Aut(T, s)
            got = a.canonical()
            filled = {}
            ref = eager_interned_closure(T, s, filled)
            assert got.machine is ref[0] and got.state == ref[1]
            assert mealy._canonical_pair(T, s) == ref
            in_root = T.root is not None and T.root[s]
            assert (got is a) == in_root
            if not in_root:
                asked |= filled.keys()
            assert table_states(T) == before | asked
        return len(asked - before)

    def test_quotient_states_in_shuffled_orders(self):
        rng = random.Random(3601)
        built = 0
        for k in range(80):
            m = random_machine(rng) if k % 2 else oracle_machine(rng, True, size=20)
            T = minimize(m)[0]
            states = list(range(T.size)) * 2
            rng.shuffle(states)
            built += self.check_states(T, states)
        assert built >= 400, built

    def test_restrictions_of_interned_machines(self):
        rng = random.Random(3602)
        built = 0
        for _ in range(60):
            m = oracle_machine(rng, rng.random() < 0.5, size=16)
            g = m.state(rng.randrange(m.size)) * m.state(rng.randrange(m.size))
            T = g.machine
            states = [g.restrict(random_word(rng, m.alphabet_size, rng.randint(0, 6))).state
                      for _ in range(3 * T.size)]
            built += self.check_states(T, states)
        assert built >= 100, built

    def test_session_interns_what_the_eager_reference_interns(self, monkeypatch):
        """A seeded session leaves the intern table with the same keys,
        and the same root, identity and content hashes for each, as it leaves with
        the eager closure in place of _interned_closure."""
        def table(reference):
            monkeypatch.setattr(mealy, "_interned", {})
            if reference:
                monkeypatch.setattr(mealy, "_interned_closure",
                                    lambda m, q: eager_interned_closure(m, q, {}))
            canonical_session(random.Random(3603))
            return {key: (m.root, m.identity, state_hashes(m))
                    for key, m in mealy._interned.items()}

        got = table(False)
        expected = table(True)
        assert got == expected
        assert len(got) >= 150, len(got)

    def test_threads_fill_one_table(self, monkeypatch):
        """Threads canonicalise every state of the same fresh machines,
        raw ones and interned products, one machine at a time, each
        thread in its own shuffled order and switching as often as the
        interpreter allows: each thread's pairs are the eager
        reference's, and the intern table gains the keys that one thread
        alone adds.  Readers test closure_of[s] before where[s], which
        _interned_closure writes in the other order."""
        def run(threads):
            monkeypatch.setattr(mealy, "_interned", {})
            rng = random.Random(3604)
            machines = []
            for _ in range(16):
                machines.append(oracle_machine(rng, rng.random() < 0.5, size=24))
                p = oracle_machine(rng, rng.random() < 0.5, size=24)
                machines.append((p.state(rng.randrange(p.size))
                                 * p.state(rng.randrange(p.size))).machine)
            states = [(k, q) for k, m in enumerate(machines) for q in range(m.size)]
            before = set(mealy._interned)
            results = [None] * threads
            start = threading.Barrier(threads, timeout=60)

            def work(i):
                shuffle = random.Random(i).shuffle
                found = {}
                for k, m in enumerate(machines):
                    order = list(range(m.size))
                    shuffle(order)
                    start.wait()  # all threads on one machine's table at once
                    for q in order:
                        c = Aut(m, q).canonical()
                        found[k, q] = (c.machine, c.state)
                results[i] = found

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                workers = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(timeout=120)
                    assert not w.is_alive()
            finally:
                sys.setswitchinterval(interval)
            gained = set(mealy._interned) - before
            expected = {(k, q): reference_pair(machines[k], q) for k, q in states}
            for found in results:
                assert found.keys() == expected.keys()
                assert all(found[s][0] is ref[0] and found[s][1] == ref[1]
                           for s, ref in expected.items())
            assert set(mealy._interned) - before == gained
            return gained, len(states)

        alone, asked = run(1)
        for threads in (4, 8, 8, 8):  # repeated: a lost race shows in some runs only
            assert run(threads)[0] == alone
        assert asked >= 1000 and len(alone) >= 40, (asked, len(alone))
