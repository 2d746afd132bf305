"""Finite Mealy automata acting on the rooted tree of words by automorphisms.

A machine over the alphabet {0, .., d-1} is a finite set of states, each
carrying an output permutation of the letters and one successor state per
letter.  A state rewrites the first letter of a word through its output
permutation and hands the tail to the successor for that letter; since
outputs are bijections, every state acts as an automorphism of the tree
of finite words and of its boundary.

Every machine has one quotient by automorphism equality, computed once
and memoised (`minimize`).  The refinement behind it names each class by
the rank of its signature, so a minimal machine gets an order on its
states that does not depend on how they were numbered; a minimal machine
has no symmetry, so that order numbers it canonically.  It is the one
numbering of minimal machines: the quotient, which has no state names,
and every interned machine use it.  A state's canonical form is a pair
(interned machine, state): the machine holds the states reachable from
the state's strongly connected component (SCC), numbered in that order,
with the component marked as its root.  All states of a component share
one interned machine, and a state in the root of an interned machine is
its own canonical form.  The canonical forms of the other states of an
interned machine or a quotient are kept in one table on it
(_interned_closure), read on the quotient for other machines
(_canonical_pair), and built only where they are read.  Interned
machines and quotients are minimal, and two states of a minimal machine
are equal iff they are one state, so every state is read in its minimal
machine (_minimal_pair, _minimal): that machine keeps every value derived
from the state.  Products and inverses are explored from the operands'
minimal states, a state expression from the freely reduced word over the
machine's classes that it parses to, and their quotients are numbered
and interned as above.  They are memoised on the left operand's minimal
machine, and the germs and algebra layers keep their germ keys and the
pieces of term products on the same memos.  Canonical forms are built
only to compare states of two different minimal machines (Aut.__eq__),
and for the tables the fixedpoints layer keeps per closure: two
automorphisms are equal iff their canonical forms have the identical
machine and the same state, so within one machine nothing is interned.
Hashes read content, not the intern table: a state's hash is a hash of
its action on the first _HASH_DEPTH levels of the tree, computed once
per minimal machine (_state_hashes), so equal automorphisms hash alike
in any machine and in any process.  Every memoised result built from
explorations (a product, an inverse, a state expression, a shift parsed
against the machine, a term product, the germ key of a term after a
basis germ) is stored through _memoised in one format, (explored,
value), where explored is the most states any one exploration behind the
value reached; a shift memo also holds None for a text seen only once
(convalg.parse_shift), which reads as a miss.  A hit whose explored is
over the current cap is built afresh, so it is refused exactly as a
cold build is, by _derive.  A state expression is memoised on the
quotient of the machine it is parsed against, by the reduced word it
parses to.  The intern table (_interned) and one context variable
(_scope), holding the current state cap and build scope, are the only
module-level state; every memo sits on a machine.
"""

from __future__ import annotations

import operator
import re
import reprlib
from array import array
from collections.abc import Sequence
from contextlib import contextmanager
from contextvars import ContextVar

from .errors import DomainError, MachineParseError, ParseError, StateCapError, excerpt

Word = tuple[int, ...]

STATE_CAP = 100_000
# entries per machine in each memo of parsed text (see _parse_memo)
_SHIFT_MEMO_LIMIT = 4096
# (state cap, [running maximum] of the memoised build in progress or
# None): the cap is set by state_cap, the maximum by _memoised
_scope: ContextVar[tuple[int, list | None]] = ContextVar("scope", default=(STATE_CAP, None))


def _state_cap() -> int:
    """The state cap in force in this context."""
    return _scope.get()[0]


@contextmanager
def state_cap(n: int):
    """Bound the states materialised per derived machine inside the block.

    For a product or an inverse the cap counts the states of the machine
    explored from the operands' minimal states, as many as from their
    canonical forms (for a non-minimal operand that is never more than
    its raw machine would give).  For a state expression it counts the
    freely reduced words reached from the word the expression parses to
    (see parse_state_expr), so one that cancels freely reaches the empty
    word only and is never refused; one name with restrictions explores
    nothing.  For is_zero / is_singular
    it counts the states of each bucket's pattern graph: the pairs of
    restrictions reached from all of the bucket's term pairs, plus its
    two sinks; the pattern cap counts the joint states the walk over it
    enters (False can stop early, True walks it whole).  Products,
    inverses, state expressions and the pieces of term products are
    memoised per machine; a memoised result that explored more states
    than the cap is built afresh (see _memoised), so the outcome, a
    refusal's text included, does not depend on what earlier calls
    cached.  The bound holds for the current thread or task only; code
    running in another context, such as a new thread, keeps its own (by
    default STATE_CAP).  Entered inside a memoised build, the block keeps
    that build's running maximum.  n must be an integer (anything
    operator.index accepts) of at least 1, else ValueError.
    """
    n = _index(n, "state cap")
    if n < 1:
        raise ValueError("state cap must be positive")
    token = _scope.set((n, _scope.get()[1]))
    try:
        yield
    finally:
        _scope.reset(token)


def _has_text(w: Word) -> bool:
    """True iff word_text writes w: no letter is past 9."""
    return all(x <= 9 for x in w)


def word_text(w: Word) -> str:
    if not _has_text(w):
        raise ValueError("textual words support alphabets of at most 10 letters")
    return "".join(str(x) for x in w)


def _shown(w: Word) -> str:
    """w for a repr: its word text, else its tuple of letters."""
    return word_text(w) if _has_text(w) else repr(w)


def check_word(w, alphabet_size: int) -> Word:
    """The letters of w, ints below alphabet_size, as a word tuple."""
    w = tuple(w)
    for x in w:
        if not (isinstance(x, int) and 0 <= x < alphabet_size):
            raise ValueError(f"letter {x!r} outside alphabet of size {alphabet_size}")
    return w


def _is_numeral(text: str) -> bool:
    """True iff text is one or more ASCII decimal digits, the only digits accepted."""
    return text.isascii() and text.isdigit()


def parse_word(text: str, alphabet_size: int) -> Word:
    """The word written as one ASCII decimal digit per letter, each below
    alphabet_size; surrounding whitespace is ignored.  A word with a
    letter out of range goes to check_word for its message."""
    text = text.strip()
    if text and not _is_numeral(text):
        raise ValueError(f"bad word {excerpt(text)}")
    w = tuple(map(int, text))
    if w and max(w) >= alphabet_size:
        check_word(w, alphabet_size)
    return w


class Machine:
    """An immutable Mealy automaton; states index into parallel tables.

    root is None unless the machine is interned; then root[q] tells
    whether state q lies in its root component, the states that reach
    every state.
    """

    __slots__ = ("alphabet_size", "outputs", "transitions", "identity", "names",
                 "root", "_memo")

    def __init__(self, alphabet_size, outputs, transitions, identity=None, names=None):
        d = _index(alphabet_size, "alphabet size")
        if d < 2:
            raise ValueError("alphabet must have at least two letters")
        outputs = tuple(tuple(row) for row in outputs)
        transitions = tuple(tuple(row) for row in transitions)
        n = len(outputs)
        if n == 0 or len(transitions) != n:
            raise ValueError("machine needs matching, nonempty state tables")
        letters = tuple(range(d))
        is_int = int.__instancecheck__
        for q, (out, trans) in enumerate(zip(outputs, transitions)):
            if not all(map(is_int, out)) or tuple(sorted(out)) != letters:
                raise ValueError(f"output row of state {q} is not a permutation")
            if (len(trans) != d or not all(map(is_int, trans))
                    or min(trans) < 0 or max(trans) >= n):
                raise ValueError(f"transition row of state {q} is malformed")
        if identity is not None:
            identity = _index(identity, "identity state")
            if not 0 <= identity < n:
                raise ValueError(f"identity state {identity} out of range")
            if outputs[identity] != letters or any(t != identity for t in transitions[identity]):
                raise ValueError("designated identity state does not act trivially")
        if names is not None:
            names = tuple(names)
            if len(names) != n or len(set(names)) != n:
                raise ValueError("state names must be unique and cover all states")
        self._fill(d, outputs, transitions, identity, names, None)

    def _fill(self, d, outputs, transitions, identity, names, root):
        """Set every slot from tuple tables that need no further checks:
        __init__ calls it once its input passed them, parse_machine once
        its own checks passed, minimize and _intern with tables they built
        themselves."""
        self.alphabet_size = d
        self.outputs = outputs
        self.transitions = transitions
        self.identity = identity
        self.names = names
        self.root = root
        self._memo = {}
        return self

    @property
    def size(self) -> int:
        return len(self.outputs)

    def name_of(self, q: int) -> str:
        if self.names is not None:
            return self.names[q]
        return f"q{q}"

    def index_of(self, name: str) -> int:
        """The index of the state named name, through a name -> index dict
        kept in the memo (parse_machine stores its own; else it is built
        on first use)."""
        index = self._memo.get("index")
        if index is None and self.names is not None:
            index = self._memo["index"] = {n: q for q, n in enumerate(self.names)}
        try:
            q = None if index is None else index.get(name)
        except TypeError:  # unhashable, so no state's name
            q = None
        if q is None:  # names may be any hashables; only str ones are user text
            shown = excerpt(name) if isinstance(name, str) else reprlib.repr(name)
            raise DomainError(f"unknown state name {shown}")
        return q

    def state(self, ref) -> "Aut":
        """State handle by name or index."""
        ref = self.index_of(ref) if isinstance(ref, str) else _index(ref, "state index")
        if not 0 <= ref < self.size:
            raise DomainError(f"state index {ref} out of range")
        return Aut(self, ref)

    def states(self) -> list["Aut"]:
        return [Aut(self, q) for q in range(self.size)]

    def __repr__(self):
        return f"<Machine {self.size} states / {self.alphabet_size} letters>"


def _index(value, what) -> int:
    """value as an int through operator.index, so floats and strings are refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, not {value!r}") from None


_interned: dict[tuple, Machine] = {}


def _identity_state(d, outputs, transitions):
    """Least state with the identity output row and a loop on every
    letter, or None."""
    letters = tuple(range(d))
    for q in range(len(outputs)):
        if outputs[q] == letters and all(t == q for t in transitions[q]):
            return q
    return None


def _intern(d, outputs, transitions, start, identity) -> Machine:
    """The interned machine with these tables.  They must be minimal,
    numbered as _quotient numbers them and reachable from state start;
    the states that reach start form the root, and identity is their
    identity state (see _identity_state) or None.  Such tables are well
    formed by construction, so Machine()'s checks are skipped.  A miss
    stores through the atomic dict.setdefault: racing threads share one."""
    key = (d, outputs, transitions)
    m = _interned.get(key)
    if m is None:
        m = _interned.setdefault(key, object.__new__(Machine)._fill(
            d, outputs, transitions, identity, None, _reaching(transitions, start)))
    return m


def _reaching(transitions, start) -> tuple[bool, ...]:
    """For each state, whether it reaches start: one search from start
    over reversed edges."""
    preds = [[] for _ in transitions]
    for q, row in enumerate(transitions):
        for t in row:
            preds[t].append(q)
    reach = [False] * len(transitions)
    reach[start] = True
    stack = [start]
    while stack:
        for q in preds[stack.pop()]:
            if not reach[q]:
                reach[q] = True
                stack.append(q)
    return tuple(reach)


def _cap_error(cap, what) -> StateCapError:
    return StateCapError(f"more than {cap} states while building {what}")


def _explore(d, starts, out_fn, trans_fn, cap, error):
    """Breadth-first closure of an implicitly given machine: the capped
    search behind products, inverses and pattern graphs.

    States are hashable labels with outputs out_fn(q) (tuples) and
    successors trans_fn(q, x).  Returns dense output/transition lists:
    the distinct starts come first, in the order given, and the rest are
    numbered breadth-first from them, smallest letter first.  Raises
    error, an exception or an exception class, when more than cap states
    are reached.
    """
    order = list(dict.fromkeys(starts))
    if len(order) > cap:
        raise error
    index = {q: i for i, q in enumerate(order)}
    outputs = []
    transitions = []
    for q in order:
        outputs.append(out_fn(q))
        row = []
        for x in range(d):
            t = trans_fn(q, x)
            j = index.get(t)
            if j is None:
                if len(order) >= cap:
                    raise error
                j = index[t] = len(order)
                order.append(t)
            row.append(j)
        transitions.append(tuple(row))
    return outputs, transitions


def _quotient(outputs, transitions):
    """Quotient of a machine by automorphism equality.

    Moore-style partition refinement: states start split by output row
    and are split by their successors' classes until nothing changes.
    Each round names a class by the rank of its signature among the
    distinct ones, sorted: the output row at first, then the class's own
    name and its successors' names (colour refinement).  Those names are
    written as one integer, the class name followed by the successors'
    names as base-count digits (count classes so far); every digit is
    below count, so the integers sort as the tuples (name, successor
    names) would.  A round whose signatures are as many as the classes
    splits nothing and ends the refinement without sorting.  The names
    never depend on how the states are numbered, so isomorphic machines
    get identical quotient tables, and the order of a machine's classes
    is the order the quotient gives its own states.  Each round compares
    only signatures of states and their successors, so a forward-closed
    set of states is ordered as it would be alone.  Returns (outputs,
    transitions, block) of the quotient, where block[q] is the class of
    state q, numbered by that rank.  The machine must have a state.
    """
    signatures, count = outputs, 0
    distinct = set(outputs)
    columns = list(zip(*transitions))  # the successors of all states, letter by letter
    while len(distinct) != count:
        rank = {s: r for r, s in enumerate(sorted(distinct))}
        block, count = list(map(rank.__getitem__, signatures)), len(rank)
        at = block.__getitem__
        signatures = block
        for column in columns:
            signatures = [s * count + c for s, c in zip(signatures, map(at, column))]
        distinct = set(signatures)
    member = dict(zip(block, range(len(block))))  # class -> one of its states
    member = [member[c] for c in range(count)]
    return (tuple(outputs[q] for q in member),
            tuple(tuple(map(at, transitions[q])) for q in member),
            block)


def _memoised(memo, slot, build, *args):
    """memo[slot]'s value, built on a miss by build(*args).

    Every memo entry of a product, inverse, state expression, parsed
    shift, term product or composite germ key is (explored, value): the
    most states that one exploration behind the value reached, its own
    (_derive) or one of the memoised entries its build used.  A miss
    runs build with a running maximum of 0 in scope, which _derive and
    nested _memoised calls raise; a build that raises stores nothing.
    An entry that explored more states than
    the current cap counts as a miss, so it is built again under the cap
    and refused, if at all, by the same exploration and text as a cold
    build.  Either way the entry's explored raises the running maximum
    of the build in progress, if any."""
    cap, outer = _scope.get()
    entry = memo.get(slot)
    if entry is None or entry[0] > cap:
        top = [0]
        token = _scope.set((cap, top))
        try:
            value = build(*args)
        finally:
            _scope.reset(token)
        entry = memo[slot] = (top[0], value)
    if outer is not None and entry[0] > outer[0]:
        outer[0] = entry[0]
    return entry[1]


def _parse_memo(machine: Machine, kind: str, key) -> dict:
    """machine's memo of parsed kind ("shift" texts or expression "word"s)
    to store key in through _memoised.  It keeps at most _SHIFT_MEMO_LIMIT
    keys, a shift's None placeholder included; past that a new key gets a
    throwaway dict, so it is built as before but not stored, and the
    stored entries still hit."""
    memo = machine._memo.setdefault(kind, {})
    if len(memo) >= _SHIFT_MEMO_LIMIT and key not in memo:
        return {}
    return memo


def _product(a: "Aut", b: "Aut") -> "Aut":
    """a * b of states of minimal machines over one alphabet, built afresh."""
    A, B = a.machine, b.machine
    d = A.alphabet_size
    out1, tr1, out2, tr2 = A.outputs, A.transitions, B.outputs, B.transitions

    def out_fn(pair):
        p, q = pair
        return tuple(out1[p][out2[q][x]] for x in range(d))

    def trans_fn(pair, x):
        p, q = pair
        return (tr1[p][out2[q][x]], tr2[q][x])

    return _derive(d, (a.state, b.state), out_fn, trans_fn,
                   lambda: f"the product of a {_closure_size(a)}-state and a "
                           f"{_closure_size(b)}-state automorphism")


def _inverse(c: "Aut") -> "Aut":
    """c.inverse() of a state of a minimal machine, built afresh."""
    m = c.machine
    d = m.alphabet_size
    tr = m.transitions
    inv = [tuple(row.index(x) for x in range(d)) for row in m.outputs]

    def trans_fn(q, x):
        return tr[q][inv[q][x]]

    return _derive(d, c.state, inv.__getitem__, trans_fn,
                   lambda: f"the inverse of a {_closure_size(c)}-state automorphism")


def _derive(d, start, out_fn, trans_fn, what) -> "Aut":
    """The interned result of a product, inverse or state expression
    machine explored from start under the current cap.  Every explored
    state is reachable from start, so the quotient is the closure of the
    start's class, numbered by _quotient as it would number itself, and
    is interned as it stands.  A refusal names what(), called only then;
    an accepted exploration raises the running maximum of the memoised
    build in progress, if there is one (see _memoised), to the states it
    reached.
    """
    cap, top = _scope.get()
    try:
        outs, trans = _explore(d, [start], out_fn, trans_fn, cap, StateCapError)
    except StateCapError:
        raise _cap_error(cap, what()) from None
    if top is not None and len(outs) > top[0]:
        top[0] = len(outs)
    q_outs, q_trans, block = _quotient(outs, trans)
    return Aut(_intern(d, q_outs, q_trans, block[0], _identity_state(d, q_outs, q_trans)),
               block[0])


def _interned_closure(m: Machine, q) -> tuple[Machine, int]:
    """Canonical pair of state q of an interned machine or a quotient,
    minimal machines numbered as _quotient numbers them.

    Every state of q's strongly connected component reaches the same
    states, its closure.  The closure is interned once per component,
    numbered in m's order, with the component as its root, and m's memo
    records, in two arrays over its states, the closure each root state
    lies in and its index there, so the component's other states find
    theirs without a search: the one table of canonical forms.
    """
    closures = m._memo.get("closures")
    if closures is None:
        closures = m._memo["closures"] = ([None] * m.size, array("i", [0]) * m.size)
    closure_of, where = closures
    closure = closure_of[q]
    if closure is None:
        transitions = m.transitions
        order = sorted(forward_closure([q], transitions.__getitem__))
        index = dict(zip(order, range(len(order))))
        at = index.__getitem__
        closure = _intern(m.alphabet_size, tuple(map(m.outputs.__getitem__, order)),
                          tuple(tuple(map(at, transitions[s])) for s in order), at(q),
                          index.get(m.identity))
        for i, s in enumerate(order):
            if closure.root[i]:
                where[s] = i  # before closure_of[s], which readers test first
                closure_of[s] = closure
    return closure, where[q]


class Aut:
    """A tree automorphism presented as a state of a machine."""

    __slots__ = ("machine", "state")

    def __init__(self, machine: Machine, state: int):
        self.machine = machine
        self.state = state

    def canonical(self) -> "Aut":
        """The equal state in the root of an interned machine: the
        closure of this state's component in the machine's quotient (see
        minimize), numbered canonically (see the module docstring).

        A state in the root of an interned machine is returned as it is;
        any other state gets a fresh Aut of _canonical_pair's answer.
        """
        m, q = self.machine, self.state
        root = m.root
        if root is not None and root[q]:
            return self
        return Aut(*_canonical_pair(m, q))

    def apply_word(self, w) -> Word:
        return _walk(self, check_word(w, self.machine.alphabet_size))[0]

    def restrict(self, w) -> "Aut":
        """The automorphism acting below the input word w."""
        return _walk(self, check_word(w, self.machine.alphabet_size))[1]

    def compose(self, other: "Aut") -> "Aut":
        """Automorphism w -> self(other(w)), minimised and interned.

        The product is explored from the operands' states (A, i) and
        (B, j) in their minimal machines (_minimal), from the state pair
        (i, j), and memoised through _memoised on A under the key
        ("compose", i, B, j), so a hit that explored more states than the
        cap is built afresh; see state_cap for what the cap counts.  No
        canonical form is built: the pairs reached from (i, j) form the
        machine the canonical forms give, numbered otherwise, so the count
        explored and the interned result are the same.
        """
        a, b = _minimal(self), _minimal(other)
        A, B = a.machine, b.machine
        if A.alphabet_size != B.alphabet_size:
            raise DomainError("cannot compose states over different alphabets")
        return _memoised(A._memo, ("compose", a.state, B, b.state), _product, a, b)

    def inverse(self) -> "Aut":
        """The inverse automorphism, minimised and interned.

        Explored from the state (M, i) in its minimal machine and memoised
        on M under the key ("inverse", i), like compose.
        """
        c = _minimal(self)
        return _memoised(c.machine._memo, ("inverse", c.state), _inverse, c)

    def is_identity(self) -> bool:
        """Read in the minimal machine, whose one trivial state is its identity."""
        m, q = _minimal_pair(self.machine, self.state)
        return q == m.identity

    def __mul__(self, other):
        if not isinstance(other, Aut):
            return NotImplemented
        return self.compose(other)

    def __pow__(self, n: int) -> "Aut":
        if n == 0:
            return identity_aut(self.machine.alphabet_size)
        base = self if n > 0 else self.inverse()
        n = abs(n)
        acc = None
        while n:
            if n & 1:
                acc = base if acc is None else acc.compose(base)
            n >>= 1
            if n:
                base = base.compose(base)
        return acc

    def __eq__(self, other):
        if not isinstance(other, Aut):
            return NotImplemented
        m, q = _minimal_pair(self.machine, self.state)
        n, r = _minimal_pair(other.machine, other.state)
        if m is n:
            return q == r
        return _canonical_pair(m, q) == _canonical_pair(n, r)

    def __hash__(self):
        m, q = _minimal_pair(self.machine, self.state)
        return _state_hashes(m)[q]

    def __repr__(self):
        return f"<Aut {self.machine.name_of(self.state)} of {self.machine!r}>"


def _minimal_pair(m: Machine, q: int) -> tuple[Machine, int]:
    """(machine, state) of state q of m in a minimal machine: (m, q) if m
    is interned or a quotient, else m's quotient at q's class.  Two states
    of one minimal machine are equal automorphisms iff they are one
    state, so within a machine this pair decides equality with nothing
    interned."""
    if m.root is None:
        m, block = _minimized(m)  # a quotient is its own, block[q] == q
        q = block[q]
    return m, q


def _minimal(g: Aut) -> Aut:
    """g as a state of its minimal machine (_minimal_pair): g itself if
    its machine is minimal already."""
    m, q = _minimal_pair(g.machine, g.state)
    return g if m is g.machine else Aut(m, q)


def _closure_size(g: Aut) -> int:
    """The number of states g reaches in its machine: the size of its
    canonical machine when g's machine is minimal."""
    return len(forward_closure([g.state], g.machine.transitions.__getitem__))


def _canonical_pair(m: Machine, q: int) -> tuple[Machine, int]:
    """(machine, state) of the canonical form of state q of m: (m, q) in
    the root of an interned machine, else the closure table's entry
    (_interned_closure) on q's minimal machine (_minimal_pair).  The
    table's one reader."""
    m, q = _minimal_pair(m, q)
    if m.root is not None and m.root[q]:
        return m, q
    return _interned_closure(m, q)


def _walk(g: Aut, w: Word) -> tuple[Word, Aut]:
    """(g(w), g below w) for a state g of any machine and a checked word
    w; the restriction is a state of the same machine."""
    if not w:
        return (), g
    out, trans = g.machine.outputs, g.machine.transitions
    q = g.state
    image = []
    for x in w:
        image.append(out[q][x])
        q = trans[q][x]
    return tuple(image), Aut(g.machine, q)


# tree levels whose action a state's content hash reads
_HASH_DEPTH = 8


def _state_hashes(m: Machine) -> array:
    """The content hash of each state of a minimal machine, memoised on it
    under "hash": a hash of the state's action on the words of length at
    most _HASH_DEPTH.  The hash of level k + 1 hashes a state's output row
    with the level-k hashes of its restrictions, so equal automorphisms
    hash alike in any machine; only ints and tuples of ints are hashed,
    so the values do not depend on the hash seed or the intern table."""
    hashes = m._memo.get("hash")
    if hashes is None:
        rows = list(map(hash, m.outputs))
        columns = list(zip(*m.transitions))  # the successors of all states, letter by letter
        level = rows
        for _ in range(_HASH_DEPTH - 1):
            at = level.__getitem__
            level = list(map(hash, zip(rows, *(map(at, column) for column in columns))))
        hashes = m._memo["hash"] = array("q", level)
    return hashes


def identity_aut(alphabet_size: int) -> Aut:
    d = _index(alphabet_size, "alphabet size")
    if d < 2:
        raise ValueError("alphabet must have at least two letters")
    return Aut(_intern(d, (tuple(range(d)),), ((0,) * d,), 0, 0), 0)


def minimize(machine: Machine) -> tuple[Machine, list[int]]:
    """Quotient by automorphism equality, memoised on the machine.

    Returns the quotient machine plus the old-state -> new-state mapping
    (a fresh list on every call).  The quotient's states are the classes
    in the order _quotient ranks them, the one numbering of a minimal
    machine; the quotient has no state names, and is its own quotient.
    Every canonical form of a state of a machine that is not interned is
    read off this quotient (interned machines are minimal already).
    """
    quotient, block = _minimized(machine)
    return quotient, list(block)


def _minimized(machine: Machine) -> tuple[Machine, Sequence[int]]:
    """minimize's memo entry, (quotient, class of each state), filled on
    first use; a quotient's own entry is (itself, range(n))."""
    cached = machine._memo.get("minimize")
    if cached is None:
        d = machine.alphabet_size
        outputs, transitions, block = _quotient(machine.outputs, machine.transitions)
        quotient = object.__new__(Machine)._fill(
            d, outputs, transitions, _identity_state(d, outputs, transitions), None, None)
        quotient._memo["minimize"] = (quotient, range(len(outputs)))
        cached = machine._memo["minimize"] = (quotient, tuple(block))
    return cached


def _least_states(machine: Machine) -> dict[int, int]:
    """Class of machine's quotient -> the least state of machine in it,
    the classes in order of that state, memoised on machine under
    "least_state": the names of a machine's classes in reports."""
    least = machine._memo.get("least_state")
    if least is None:
        least = {}
        for q, c in enumerate(_minimized(machine)[1]):
            least.setdefault(c, q)
        machine._memo["least_state"] = least
    return least


def forward_closure(starts, succ) -> list:
    """Nodes reachable from starts, the distinct starts first in the order
    given and the rest breadth-first; succ(q) lists the successors of q
    (repeats allowed).  Linear in the size of the closure."""
    order = list(dict.fromkeys(starts))
    seen = set(order)
    for q in order:
        for t in succ(q):
            if t not in seen:
                seen.add(t)
                order.append(t)
    return order


def backward_distances(nodes, succ, targets) -> dict:
    """Least number of steps from each node to a target, inside nodes.

    succ(q) lists the successors of q (repeats and nodes outside the set
    are allowed and ignored); targets lie in nodes.  Returns a dict from
    every node that can reach a target to its distance, targets mapping
    to 0.  Breadth-first search over reversed edges, linear in the size
    of the graph.
    """
    preds = {q: [] for q in nodes}
    for q in preds:
        for t in succ(q):
            if t in preds:
                preds[t].append(q)
    dist = dict.fromkeys(targets, 0)
    frontier = list(dist)
    while frontier:
        nxt = []
        for t in frontier:
            for q in preds[t]:
                if q not in dist:
                    dist[q] = dist[t] + 1
                    nxt.append(q)
        frontier = nxt
    return dist


def infinite_path_nodes(nodes, succ) -> set:
    """Nodes from which an infinite path stays inside nodes.

    succ is as for backward_distances.  Nodes whose out-degree inside the
    set drops to zero are peeled off one by one; what is left is the
    answer.  Linear in the size of the graph.
    """
    preds = {q: [] for q in nodes}
    degree = dict.fromkeys(preds, 0)
    for q in preds:
        for t in succ(q):
            if t in preds:
                preds[t].append(q)
                degree[q] += 1
    dead = [q for q, k in degree.items() if k == 0]
    alive = set(preds)
    while dead:
        t = dead.pop()
        alive.discard(t)
        for q in preds[t]:
            degree[q] -= 1
            if degree[q] == 0:
                dead.append(q)
    return alive


def strong_components(starts, succ):
    """Yield the strongly connected components reachable from starts, sinks
    first (no edge leads to a later one), each a list of nodes.  succ(q)
    lists the successors of q (repeats allowed).  Tarjan's algorithm with
    an explicit stack, linear in the graph's size and lazy: a caller that
    stops early explores no further."""
    index: dict = {}
    low: dict = {}
    stack: list = []
    on_stack: set = set()
    work: list = []  # (node, its unexplored edges) along the search path

    def enter(q):
        index[q] = low[q] = len(index)
        stack.append(q)
        on_stack.add(q)
        work.append((q, iter(succ(q))))

    for root in starts:
        if root in index:
            continue
        enter(root)
        while work:
            q, edges = work[-1]
            for t in edges:
                if t not in index:
                    enter(t)
                    break
                if t in on_stack and index[t] < low[q]:
                    low[q] = index[t]
            else:
                work.pop()
                if work and low[q] < low[work[-1][0]]:
                    low[work[-1][0]] = low[q]
                if low[q] == index[q]:
                    component = []
                    while True:
                        t = stack.pop()
                        on_stack.discard(t)
                        component.append(t)
                        if t == q:
                            break
                    yield component


def distinguishing_depth(machine: Machine) -> int:
    """Least p with: every state that acts nontrivially moves some word
    of length at most p.

    The shortest word a state moves is one longer than its distance to a
    state whose output row is not the identity; states that reach no
    such state act trivially.  A machine whose states are all trivial
    yields 1.
    """
    letters = tuple(range(machine.alphabet_size))
    moving = [q for q in range(machine.size) if machine.outputs[q] != letters]
    dist = backward_distances(range(machine.size), machine.transitions.__getitem__,
                              moving)
    return 1 + max(dist.values(), default=0)


# ---------------------------------------------------------------------------
# machine text format

_STATE_RE = re.compile(r"^state\s+(\S+)\s+perm\s+(.*?)\s+to\s+(.*)$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def parse_machine(text: str) -> Machine:
    """Parse the plain-text machine format.

    One `alphabet <d>` directive, 2 <= d <= 10 because words are written
    one decimal digit per letter, then one `state <name> perm <d images>
    to <d successor names>` line per state.  `#` starts a comment.  The
    name `e` is reserved for the identity; if absent, an identity state
    is synthesised.

    A machine has at most d! distinct output rows, so each permutation
    text is checked once per call and its row kept by its text: states
    with one row text share one tuple, and a repeated text only has its
    successor count checked.  The checks, their order and their messages
    are those of a first sighting either way.  The name -> index dict
    built here is kept in the machine's memo for index_of.
    """
    d = None
    rows = []  # (lineno, name, perm, successor names)
    perms = {}  # permutation text -> its checked row
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
        if not line:
            continue
        if line.startswith("alphabet"):
            if d is not None:
                raise MachineParseError(f"line {lineno}: duplicate alphabet directive")
            parts = line.split()
            if len(parts) != 2 or not _is_numeral(parts[1]):
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
        m = _STATE_RE.match(line)
        if not m:
            raise MachineParseError(
                f"line {lineno}: unrecognised directive {excerpt(line)}")
        if d is None:
            raise MachineParseError(f"line {lineno}: state before alphabet directive")
        name, perm_text, to_text = m.groups()
        if not _NAME_RE.match(name):
            raise MachineParseError(f"line {lineno}: bad state name {excerpt(name)}")
        to_parts = to_text.split()
        perm = perms.get(perm_text)
        if perm is None or len(to_parts) != d:
            perm_parts = perm_text.split()
            if len(perm_parts) != d or len(to_parts) != d:
                raise MachineParseError(
                    f"line {lineno}: state {name} needs {d} images and {d} successors")
            if not all(map(_is_numeral, perm_parts)):
                raise MachineParseError(f"line {lineno}: non-integer image")
            try:
                perm = tuple(map(int, perm_parts))
            except ValueError:  # more digits than int() converts
                raise MachineParseError(f"line {lineno}: image numeral too long") from None
            if tuple(sorted(perm)) != tuple(range(d)):
                raise MachineParseError(
                    f"line {lineno}: output row of {name} is not a permutation")
            perms[perm_text] = perm
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
    get = index.get
    outputs = []
    transitions = []
    for lineno, name, perm, to_parts in rows:
        outputs.append(perm)
        row = tuple(map(get, to_parts))
        if None in row:
            raise MachineParseError(
                f"line {lineno}: unknown successor state {excerpt(to_parts[row.index(None)])}")
        transitions.append(row)
    e = index["e"]
    if outputs[e] != tuple(range(d)) or any(t != e for t in transitions[e]):
        raise MachineParseError("state 'e' is reserved for the identity")
    # the tables passed every check Machine() makes
    machine = object.__new__(Machine)._fill(d, tuple(outputs), tuple(transitions), e,
                                            tuple(names), None)
    machine._memo["index"] = index
    return machine


def format_machine(machine: Machine) -> str:
    """The text parse_machine reads back; ValueError past 10 letters."""
    if machine.alphabet_size > 10:
        raise ValueError("machine text supports alphabets of at most 10 letters")
    lines = [f"alphabet {machine.alphabet_size}"]
    for q in range(machine.size):
        perm = " ".join(str(x) for x in machine.outputs[q])
        to = " ".join(machine.name_of(t) for t in machine.transitions[q])
        lines.append(f"state {machine.name_of(q)} perm {perm} to {to}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# state expressions: products of named states with inverses and restrictions
#
#   expr   := factor ('*' factor)*
#   factor := atom suffix*
#   atom   := NAME | '(' expr ')'
#   suffix := '^-1' | '|' WORD
#
# Suffixes apply left to right, so a^-1|01 restricts the inverse of a to
# the subtree below the input word 01.
#
# An expression is kept as a freely reduced word over the classes of
# minimize(machine), its rightmost entry acting first: entry 2c stands for
# class c and 2c + 1 for its inverse, and the identity class is dropped.
# A product concatenates two words, cancelling x x^-1 at the seam; ^-1
# reverses a word and inverts each entry; |w takes the word's section
# below w, letter by letter, reduced again.  A section of a reduced word
# is one again, so an expression's machine is one exploration over the
# reduced words its sections reach, with no intermediate product: the
# standard recursion of automaton groups (Nekrashevych, Self-Similar
# Groups, AMS 2005).  Equal states are one class, so x x^-1 cancels
# whichever of two equal states x names.

# One token after optional whitespace, as (NAME, ''), or ('', symbol) for
# '^-1', '*', '(', ')', '|' with the digits after it (none is an error) or
# any other character (an error).
_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|(\^-1|[*()]|\|[0-9]*|\S))")


def parse_state_expr(machine: Machine, text: str) -> Aut:
    """The automorphism that the state expression text names over the
    states of machine.

    An expression that is one state name with '|w' suffixes only gives
    that state's handle on machine, walked on its tables; a lone name is
    looked up without tokenizing.  Any other is parsed whole into a
    freely reduced word (see above) before anything is explored, then
    explored once from that word under the state cap, which counts the
    reduced words reached, and returned minimised and interned.  So name
    and syntax errors come before cap refusals, and an expression that
    cancels freely, the empty word, is the identity, explores nothing and
    is never refused.  The exploration is memoised on minimize(machine)'s
    quotient under its reduced word, through _memoised and _parse_memo,
    so two texts with one reduced word share it; a hit that explored more
    words than the cap is explored again and refused with this text.
    Error columns count characters of text as given.
    """
    name = text.strip()
    if _NAME_RE.match(name):
        return Aut(machine, machine.index_of(name))
    parser = _ExpressionParser(machine, text)
    try:
        value = parser.expr()
    except RecursionError:
        parser.fail("parentheses nested too deeply")
    if parser.i < len(parser.tokens) - 1:
        parser.fail(f"trailing input at column {parser.column()}")
    if not isinstance(value, tuple):
        return Aut(machine, value)
    if not value:
        return identity_aut(machine.alphabet_size)
    # a reduced word came from word_of, which filled parser.classes
    return _memoised(_parse_memo(parser.classes[0], "word", value), value, _derive,
                     machine.alphabet_size, value, parser.outputs, parser.section,
                     lambda: f"the state expression {excerpt(text)}")


class _ExpressionParser:
    """One parse of a state expression over a machine.  A value is a state
    of the machine, while the expression is one name with restrictions,
    or a reduced word (see above).

    A class, not nested functions: mutually recursive closures form a
    reference cycle that only the cyclic garbage collector frees, and one
    cycle per parse made it collect about eight times as often over a
    session of short expressions.
    """

    __slots__ = ("machine", "text", "tokens", "i", "classes", "moves")

    def __init__(self, machine: Machine, text: str):
        self.machine = machine
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)
        self.tokens.append(("", ""))  # the end
        self.i = 0  # the next token
        self.classes = None  # minimize(machine)'s (quotient, class of each state), on first use
        self.moves = {}  # entry -> (its output row, its entry below each letter or None)

    def fail(self, msg):
        raise ParseError(f"state expression {excerpt(self.text)}: {msg}")

    def column(self) -> int:
        """The column of the next token, counted from 1."""
        for k, m in enumerate(_TOKEN_RE.finditer(self.text)):
            if k == self.i:
                return m.start(m.lastindex) + 1

    def word_of(self, value) -> tuple:
        """value as a reduced word."""
        if isinstance(value, tuple):
            return value
        if self.classes is None:
            self.classes = _minimized(self.machine)
        quotient, block = self.classes
        c = block[value]
        return () if c == quotient.identity else (2 * c,)

    def move(self, e):
        """moves[e], filled on first use."""
        quotient = self.classes[0]
        c, inverted = e >> 1, e & 1
        out, below = quotient.outputs[c], quotient.transitions[c]
        if inverted:  # c^-1 sends out[x] to x, and (c|x)^-1 acts below
            out = tuple(map(out.index, range(quotient.alphabet_size)))
            below = [below[x] for x in out]
        row = self.moves[e] = (out, tuple(None if t == quotient.identity else 2 * t + inverted
                                          for t in below))
        return row

    def section(self, word, x) -> tuple:
        """The reduced section of word below the input letter x."""
        moves = self.moves
        stack = []  # the section's entries, rightmost first
        for e in reversed(word):
            out, below = moves.get(e) or self.move(e)
            t = below[x]
            x = out[x]
            if t is not None:
                if stack and stack[-1] == t ^ 1:
                    stack.pop()
                else:
                    stack.append(t)
        stack.reverse()
        return tuple(stack)

    def outputs(self, word) -> tuple:
        """The output row of word."""
        row = tuple(range(self.machine.alphabet_size))
        for e in reversed(word):
            row = tuple(map((self.moves.get(e) or self.move(e))[0].__getitem__, row))
        return row

    def factor(self):
        name, symbol = self.tokens[self.i]
        if name:
            value = self.machine.index_of(name)
        elif symbol == "(":
            self.i += 1
            value = self.expr()
            if self.tokens[self.i][1] != ")":
                self.fail("missing ')'")
        elif symbol:
            self.fail(f"expected state name at column {self.column()}")
        else:
            self.fail("unexpected end")
        self.i += 1
        while True:
            symbol = self.tokens[self.i][1]
            if symbol == "^-1":
                value = tuple(e ^ 1 for e in reversed(self.word_of(value)))
            elif symbol[:1] == "|":
                if symbol == "|":
                    self.fail("expected word after '|'")
                try:
                    w = parse_word(symbol[1:], self.machine.alphabet_size)
                except ValueError as exc:
                    self.fail(str(exc))
                for x in w:
                    if isinstance(value, tuple):
                        value = self.section(value, x)
                    else:
                        value = self.machine.transitions[value][x]
            else:
                return value
            self.i += 1

    def expr(self):
        value = self.factor()
        if self.tokens[self.i][1] != "*":
            return value
        stack = list(self.word_of(value))
        while self.tokens[self.i][1] == "*":
            self.i += 1
            for e in self.word_of(self.factor()):
                if stack and stack[-1] == e ^ 1:
                    stack.pop()
                else:
                    stack.append(e)
        return tuple(stack)


def _wrap(label: str) -> str:
    """label, in parentheses if it has a '*' outside them."""
    depth = 0
    for c in label:
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == "*" and depth == 0:
            return f"({label})"
    return label


def compose_labels(l1, l2):
    if l1 is None or l2 is None:
        return None
    return f"{l1}*{l2}"


def invert_label(label):
    if label is None:
        return None
    return f"{_wrap(label)}^-1"


def restrict_label(label, w: Word):
    """label below w; None for no label or a w with no word text."""
    if label is None or not _has_text(w):
        return None
    if not w:
        return label
    return f"{_wrap(label)}|{word_text(w)}"
