"""Regular-language specification expressions and their compilation to DFAs.

Grammar (star binds tighter than concatenation, which binds tighter than
union; spaces, tabs and line breaks are insignificant, ``#`` starts a line
comment)::

    expr   := term ('+' term)*
    term   := factor+
    factor := atom '*'?
    atom   := IDENT | '(' expr ')' | 'pc' '(' expr ')'

IDENT is an event id, by the rule of model files (``automata.EVENT_ID``).

``pc(x)`` denotes the prefix closure of ``x``.  Compilation builds
Glushkov's position automaton (one state per event leaf, no epsilon moves),
determinizes it over sets of positions and minimizes the result; no
expression denotes the empty language, so the subset automaton is already
trim.  The output automaton is trim, minimal, keeps a partial transition map,
and its marked language is the expression's denotation.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from itertools import compress
from typing import Optional

from .automata import (EVENT_ID, Alphabet, Automaton, InputError, empty_automaton, explore,
                       from_lists, from_nodes, pairs, prober, reachable, spelled)

# Groups nest at most this deep.  The parser and the passes over the AST
# recurse a few frames per level, so much deeper input overflows the stack.
MAX_NESTING = 100


class SpecSyntaxError(InputError):
    """A syntax error at character ``offset`` of the spec text.

    ``line`` and ``col`` count from 1; ``col`` counts characters, comments
    included.
    """

    def __init__(self, message: str, text: str, offset: int):
        self.line = text.count("\n", 0, offset) + 1
        self.col = offset - text.rfind("\n", 0, offset)
        super().__init__(f"{self.line}:{self.col}: {message}")


class UnknownEventError(InputError):
    def __init__(self, event: str):
        self.event = event
        super().__init__(f"unknown event id {event!r}")


# -- AST ------------------------------------------------------------------

class Expr:
    pass


@dataclass(frozen=True)
class Epsilon(Expr):
    pass


@dataclass(frozen=True)
class Sym(Expr):
    event: str


@dataclass(frozen=True)
class Concat(Expr):
    parts: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("Concat needs at least two children")


@dataclass(frozen=True)
class Union(Expr):
    parts: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("Union needs at least two children")


@dataclass(frozen=True)
class Star(Expr):
    child: Expr


@dataclass(frozen=True)
class PrefClose(Expr):
    child: Expr


def leaves(ast: Expr) -> list[str]:
    """Event occurrences of the expression, left to right."""
    if isinstance(ast, Sym):
        return [ast.event]
    if isinstance(ast, (Concat, Union)):
        return [e for p in ast.parts for e in leaves(p)]
    if isinstance(ast, (Star, PrefClose)):
        return leaves(ast.child)
    return []


# -- parser ---------------------------------------------------------------

# One token: blanks and comments are skipped, then the token is an operator
# (group 1), an event id (group 2), any other character (group 3, a syntax
# error) or the end of the text (no group).  The blanks are space, tab, CR and
# LF only; other Unicode spaces, such as U+00A0, are unexpected characters.
_TOKEN = re.compile(rf"(?:[ \t\r\n]|#[^\n]*)*(?:([+*()])|({EVENT_ID})|(.)|\Z)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, value, offset)`` per token, ending with ``("EOF", "", len(text))``.

    ``kind`` is ``IDENT`` for an event id (``pc`` included) and the character
    itself for an operator.  The first unexpected character raises.
    """
    tokens = []
    # Every position starts a match, so the matches cover the text.
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        if group is None:
            tokens.append(("EOF", "", len(text)))
            return tokens
        value, offset = m.group(group), m.start(group)
        if group == 3:
            raise SpecSyntaxError(f"unexpected character {value!r}", text, offset)
        tokens.append((value if group == 1 else "IDENT", value, offset))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def kind(self) -> str:
        return self.tokens[self.pos][0]

    def expected(self, what: str) -> SpecSyntaxError:
        """The error that ``what`` was expected at the current token."""
        kind, value, offset = self.tokens[self.pos]
        found = "end of input" if kind == "EOF" else repr(value)
        return SpecSyntaxError(f"expected {what}, found {found}", self.text, offset)

    def take(self, kind: str) -> None:
        if self.kind() != kind:
            raise self.expected(kind)
        self.pos += 1

    def expr(self) -> Expr:
        terms = [self.term()]
        while self.kind() == "+":
            self.take("+")
            terms.append(self.term())
        return terms[0] if len(terms) == 1 else Union(tuple(terms))

    def term(self) -> Expr:
        factors = [self.factor()]
        while self.kind() in ("IDENT", "("):
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else Concat(tuple(factors))

    def factor(self) -> Expr:
        atom = self.atom()
        if self.kind() != "*":
            return atom
        while self.kind() == "*":  # x** denotes the same language as x*
            self.take("*")
        return Star(atom)

    def group(self, opening: int) -> Expr:
        """``'(' expr ')'``, where ``opening`` is the offset of the token that opens it."""
        if self.depth == MAX_NESTING:
            raise SpecSyntaxError(f"groups nested deeper than {MAX_NESTING} levels",
                                  self.text, opening)
        self.depth += 1
        self.take("(")
        inner = self.expr()
        self.take(")")
        self.depth -= 1
        return inner

    def atom(self) -> Expr:
        kind, value, offset = self.tokens[self.pos]
        if kind == "(":
            return self.group(offset)
        if kind != "IDENT":
            raise self.expected("an event id or '('")
        self.pos += 1
        return PrefClose(self.group(offset)) if value == "pc" else Sym(value)


def parse(text: str) -> Expr:
    """Parse one spec expression.

    Event ids follow the rule of model files (``automata.EVENT_ID``), and
    ``pc`` is reserved.  Errors raise SpecSyntaxError located at a line and
    a column of ``text``.
    """
    parser = _Parser(text)
    ast = parser.expr()
    parser.take("EOF")
    return ast


# -- position automaton ---------------------------------------------------

def _positions(ast: Expr, alphabet: Alphabet, events: list[int],
               follow: list[set[int]]) -> tuple[bool, list[int], list[int]]:
    """Glushkov's ``(nullable, first, last)`` of ``ast``; fills ``follow``.

    Event leaves become positions left to right, each appending its event's rank
    to ``events`` and the set of positions that may come next to ``follow``.
    The first leaf outside ``alphabet`` raises UnknownEventError.
    """
    if isinstance(ast, Epsilon):
        return True, [], []
    if isinstance(ast, Sym):
        if ast.event not in alphabet:
            raise UnknownEventError(ast.event)
        events.append(alphabet.rank[ast.event])
        follow.append(set())
        return False, [len(events) - 1], [len(events) - 1]
    if isinstance(ast, Concat):
        nullable, first, last = True, [], []
        for part in ast.parts:
            n, f, l = _positions(part, alphabet, events, follow)
            for p in last:
                follow[p].update(f)
            if nullable:
                first += f
            last = last + l if n else l
            nullable = nullable and n
        return nullable, first, last
    if isinstance(ast, Union):
        sets = [_positions(part, alphabet, events, follow) for part in ast.parts]
        return (any(n for n, _, _ in sets), [p for _, f, _ in sets for p in f],
                [p for _, _, l in sets for p in l])
    if isinstance(ast, Star):
        _, first, last = _positions(ast.child, alphabet, events, follow)
        for p in last:
            follow[p].update(first)
        return True, first, last
    if isinstance(ast, PrefClose):
        # The grammar has no empty language, so every position of the child
        # lies on a path from its first to its last positions: the prefix
        # closure may end at any of them, or before the first.
        start = len(events)
        _, first, _ = _positions(ast.child, alphabet, events, follow)
        return True, first, list(range(start, len(events)))
    raise TypeError(f"unknown AST node {ast!r}")


def _subset_construct(ast: Expr, alphabet: Alphabet) -> Automaton:
    # Position 0 is the start; it is last iff the expression is nullable.
    events, follow = [-1], [set()]
    nullable, first, last = _positions(ast, alphabet, events, follow)
    follow[0].update(first)
    last = frozenset(last + [0] if nullable else last)

    def step(subset):
        targets: dict[int, set[int]] = defaultdict(set)
        for p in subset:
            for q in follow[p]:
                targets[events[q]].add(q)
        return [(e, frozenset(targets[e])) for e in sorted(targets)]

    nodes, succ, _ = explore(frozenset({0}), step)
    return from_lists("spec", alphabet, (f"d{i}" for i in range(len(nodes))), succ, 0,
                      (i for i, s in enumerate(nodes) if not last.isdisjoint(s)))


def minimize(a: Automaton) -> Automaton:
    """Minimal DFA with the same generated and marked languages.

    Hopcroft's partition refinement (1971) for partial transition maps
    (Valmari & Lehtinen, 2008), O(T log N) on the N states and their T
    transitions.  "Undefined" is never a block, so the generated
    language is preserved exactly and no sink state is ever introduced.
    Merged states are named by joining their members with '+' in state order.
    """
    if a.start is None:
        return empty_automaton(a.name, a.alphabet)
    out, n = a.out, len(a.states)
    # Unreachable states are refined too: a state's block depends only on its
    # future, so they do not change the blocks of the reachable ones.
    reach = compress(range(n), reachable(lambda q: out[q][1::2], (a.start,), n))
    # preds[t] packs each transition (p, e) -> t as e * n + p.
    preds: list[list[int]] = [[] for _ in range(n)]
    for p, row in enumerate(out):
        for e, t in pairs(row):
            preds[t].append(e * n + p)
    block = [0 if q in a.marked_ids else 1 for q in range(n)]
    parts = [{i for i, b in enumerate(block) if b == k} for k in (0, 1)]
    # With a partial map no initial block may be skipped: "undefined" must be
    # told apart from "defined into the other block".
    work = [b for b in (0, 1) if parts[b]]
    while work:
        by_event: dict[int, list[int]] = defaultdict(list)
        for t in parts[work.pop()]:
            for x in preds[t]:
                by_event[x // n].append(x % n)
        for hit_states in by_event.values():
            touched: dict[int, list[int]] = defaultdict(list)
            for p in hit_states:
                touched[block[p]].append(p)
            for b, hit in touched.items():
                old = parts[b]
                if len(hit) == len(old):
                    continue
                # The smaller part moves to a new block, so each state moves
                # at most log N times; queueing the new block is Hopcroft's rule
                # (a queued block keeps its place under its old id).
                moved = set(hit) if 2 * len(hit) <= len(old) else old.difference(hit)
                old -= moved
                new = len(parts)
                parts.append(moved)
                for p in moved:
                    block[p] = new
                work.append(new)
    del preds, parts  # the bulk of the peak; freed before the result is built
    members: dict[int, list[int]] = {}
    for q in reach:  # state order fixes member and block order
        members.setdefault(block[q], []).append(q)
    # Each block is represented by its first member; names join all members.
    names = {b: "+".join(map(a.states.__getitem__, qs)) for b, qs in members.items()}
    return from_nodes(a.name, a.alphabet, names,
                      lambda b: [(e, block[t]) for e, t in pairs(out[members[b][0]])],
                      block[a.start], (b for b, qs in members.items() if qs[0] in a.marked_ids))


def compile(ast: Expr, alphabet: Alphabet, name: str = "spec") -> Automaton:
    """Compile an expression into a trim, minimal DFA over ``alphabet``.

    The marked language of the result is the expression's denotation; the
    generated language is its prefix closure.  States are named ``s1``,
    ``s2``, ... in breadth-first order of the minimal DFA, so the result does
    not depend on how the expression is written (e.g. on the order of union
    terms).
    """
    # Every position reaches a last position, so every subset does too: the
    # subset automaton is already trim.
    dfa = minimize(_subset_construct(ast, alphabet))
    return from_lists(name, alphabet, (f"s{i}" for i in range(1, len(dfa.states) + 1)),
                      dfa.out, dfa.start, map(dfa.index.__getitem__, dfa.marked))


def compile_text(text: str, alphabet: Alphabet, name: str = "spec") -> Automaton:
    return compile(parse(text), alphabet, name=name)


def equivalent(a: Automaton, b: Automaton) -> tuple[bool, Optional[tuple[str, ...]]]:
    """Do a and b have equal generated AND marked languages?

    On inequality, returns a shortest distinguishing string (in one of the
    four languages but not its counterpart), ties broken by a's alphabet
    order, then b's.  Pair states walk a's out-edges and check b by out-degree.
    """
    if a.start is None and b.start is None:
        return True, None
    if a.start is None or b.start is None:
        return False, ()
    events = [*a.alphabet.events, *(e for e in b.alphabet.events if e not in a.alphabet)]
    # The rank in b of each of ``events``, where a's events keep their own ranks.
    to_b, probe = list(map(b.alphabet.rank.get, events)), prober(b)

    def step(node):
        qa, qb = node
        if (qa in a.marked_ids) != (qb in b.marked_ids):
            return None
        edges = []
        for e, ta in pairs(a.out[qa]):
            if (tb := probe(qb, to_b[e])) is None:
                break
            edges.append((e, (ta, tb)))
        else:
            # As many edges as b has there: no event is defined on one side only.
            if 2 * len(edges) == len(b.out[qb]):
                return edges
        # Some event is defined on one side only; the search stops at the
        # first in ``events`` order, so this scan runs once per call.
        mine, theirs = set(a.out[qa][::2]), set(b.out[qb][::2])
        return [next((e, None) for e in range(len(events)) if (e in mine) != (to_b[e] in theirs))]

    _, _, witness = explore((a.start, b.start), step)
    return witness is None, witness and spelled(events, witness)
