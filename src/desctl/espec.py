"""Regular-language specification expressions and their compilation to DFAs.

Grammar (star binds tighter than concatenation, which binds tighter than
union; whitespace is insignificant, ``#`` starts a line comment)::

    expr   := term ('+' term)*
    term   := factor+
    factor := atom '*'?
    atom   := IDENT | '(' expr ')' | 'pc' '(' expr ')'

``pc(x)`` denotes the prefix closure of ``x``.  Compilation goes through a
small epsilon-NFA, subset construction and minimization; no expression
denotes the empty language, so the subset automaton is already trim.  The
output automaton is trim, minimal, keeps a partial transition map, and its
marked language is the expression's denotation.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

from .automata import (Alphabet, Automaton, InputError, backward_reachable,
                       empty_automaton, explore, from_nodes)

RESERVED = {"pc"}
# Groups nest at most this deep.  The parser and the passes over the AST
# recurse a few frames per level, so much deeper input overflows the stack.
MAX_NESTING = 100


class SpecSyntaxError(InputError):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


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

@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT | + | * | ( | ) | EOF
    value: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "+*()":
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
        elif ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] in "._"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
        else:
            raise SpecSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            what = "end of input" if tok.kind == "EOF" else repr(tok.value)
            raise SpecSyntaxError(f"expected {kind}, found {what}", tok.line, tok.col)
        self.pos += 1
        return tok

    def expr(self) -> Expr:
        terms = [self.term()]
        while self.peek().kind == "+":
            self.take("+")
            terms.append(self.term())
        return terms[0] if len(terms) == 1 else Union(tuple(terms))

    def term(self) -> Expr:
        factors = [self.factor()]
        while self.peek().kind in ("IDENT", "("):
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else Concat(tuple(factors))

    def factor(self) -> Expr:
        atom = self.atom()
        if self.peek().kind != "*":
            return atom
        while self.peek().kind == "*":  # x** denotes the same language as x*
            self.take("*")
        return Star(atom)

    def group(self, opening: _Token) -> Expr:
        """``'(' expr ')'``, where ``opening`` is the token that opens the group."""
        if self.depth == MAX_NESTING:
            raise SpecSyntaxError(f"groups nested deeper than {MAX_NESTING} levels",
                                  opening.line, opening.col)
        self.depth += 1
        self.take("(")
        inner = self.expr()
        self.take(")")
        self.depth -= 1
        return inner

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "(":
            return self.group(tok)
        if tok.kind == "IDENT":
            self.take("IDENT")
            if tok.value == "pc":
                return PrefClose(self.group(tok))
            return Sym(tok.value)
        what = "end of input" if tok.kind == "EOF" else repr(tok.value)
        raise SpecSyntaxError(f"expected an event id or '(', found {what}",
                              tok.line, tok.col)


def parse(text: str) -> Expr:
    """Parse one spec expression; raises SpecSyntaxError with line/column."""
    parser = _Parser(_tokenize(text))
    ast = parser.expr()
    parser.take("EOF")
    return ast


# -- NFA machinery --------------------------------------------------------

class _Nfa:
    """Epsilon-NFA fragment with a single start and a single accept state."""

    def __init__(self):
        self.n = 0
        self.eps: dict[int, set[int]] = defaultdict(set)
        self.trans: dict[tuple[int, str], set[int]] = defaultdict(set)

    def state(self) -> int:
        self.n += 1
        return self.n - 1

    def add_eps(self, a: int, b: int) -> None:
        self.eps[a].add(b)

    def add(self, a: int, e: str, b: int) -> None:
        self.trans[(a, e)].add(b)

    def closure(self, states: frozenset[int]) -> frozenset[int]:
        # The search walks any {node: [next, ...]} map; here, forward along epsilon moves.
        return frozenset(backward_reachable(self.eps, states))


def _build_fragment(nfa: _Nfa, ast: Expr, alphabet: Alphabet) -> tuple[int, int]:
    if isinstance(ast, Epsilon):
        s, a = nfa.state(), nfa.state()
        nfa.add_eps(s, a)
        return s, a
    if isinstance(ast, Sym):
        if ast.event not in alphabet:
            raise UnknownEventError(ast.event)
        s, a = nfa.state(), nfa.state()
        nfa.add(s, ast.event, a)
        return s, a
    if isinstance(ast, Concat):
        first_s, prev_a = _build_fragment(nfa, ast.parts[0], alphabet)
        for part in ast.parts[1:]:
            s, a = _build_fragment(nfa, part, alphabet)
            nfa.add_eps(prev_a, s)
            prev_a = a
        return first_s, prev_a
    if isinstance(ast, Union):
        s, a = nfa.state(), nfa.state()
        for part in ast.parts:
            ps, pa = _build_fragment(nfa, part, alphabet)
            nfa.add_eps(s, ps)
            nfa.add_eps(pa, a)
        return s, a
    if isinstance(ast, Star):
        s, a = nfa.state(), nfa.state()
        cs, ca = _build_fragment(nfa, ast.child, alphabet)
        nfa.add_eps(s, cs)
        nfa.add_eps(s, a)
        nfa.add_eps(ca, cs)
        nfa.add_eps(ca, a)
        return s, a
    if isinstance(ast, PrefClose):
        # The grammar has no empty language, so every state of a fragment
        # lies on a path from its start to its accept: the prefix closure
        # accepts wherever the child fragment can be.
        s, a = nfa.state(), nfa.state()
        first = nfa.n
        cs, _ = _build_fragment(nfa, ast.child, alphabet)
        nfa.add_eps(s, cs)
        for q in range(first, nfa.n):
            nfa.add_eps(q, a)
        return s, a
    raise TypeError(f"unknown AST node {ast!r}")


def _subset_construct(ast: Expr, alphabet: Alphabet) -> Automaton:
    nfa = _Nfa()
    start, accept = _build_fragment(nfa, ast, alphabet)
    edges: dict[tuple[frozenset[int], str], frozenset[int]] = {}

    def step(subset):
        out = []
        for e in alphabet.events:
            targets: set[int] = set()
            for q in subset:
                targets |= nfa.trans.get((q, e), set())
            if targets:
                tgt = nfa.closure(frozenset(targets))
                edges[(subset, e)] = tgt
                out.append((e, tgt))
        return out

    order, _, _ = explore(nfa.closure(frozenset({start})), step)
    return from_nodes("spec", alphabet, order, edges.items(), order[0],
                      (s for s in order if accept in s), lambda i, _s: f"d{i}")


def minimize(a: Automaton) -> Automaton:
    """Minimal DFA with the same generated and marked languages.

    Hopcroft's partition refinement (1971) for partial transition maps
    (Valmari & Lehtinen, 2008), O(T log N) on the N reachable states and
    their T transitions.  "Undefined" is never a block, so the generated
    language is preserved exactly and no sink state is ever introduced.
    Merged states are named by joining their members with '+' in state order.
    """
    if a.initial is None or not a.has_state(a.initial):
        return empty_automaton(a.name, a.alphabet)
    reach = set(explore(a.initial, a.edges)[0])
    states = [q for q in a.states if q in reach]
    n = len(states)
    ids = {q: i for i, q in enumerate(states)}
    event_ids = {e: k for k, e in enumerate(a.alphabet.events)}
    # preds[t] packs each transition (p, e) -> t as event_id * n + p.
    preds: list[list[int]] = [[] for _ in range(n)]
    for p, q in enumerate(states):
        for e, t in a.edges(q):
            preds[ids[t]].append(event_ids[e] * n + p)
    block = [0 if a.is_marked(q) else 1 for q in states]
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
    members: dict[int, list[str]] = {}
    for q, b in zip(states, block):  # state order fixes member and block order
        members.setdefault(b, []).append(q)
    # Each block is represented by its first member; names join all members.
    return from_nodes(
        a.name, a.alphabet, members,
        (((b, e), block[ids[t]]) for b, qs in members.items() for e, t in a.edges(qs[0])),
        block[ids[a.initial]], (b for b, qs in members.items() if a.is_marked(qs[0])),
        lambda _i, b: "+".join(members[b]))


def compile(ast: Expr, alphabet: Alphabet, name: str = "spec") -> Automaton:
    """Compile an expression into a trim, minimal DFA over ``alphabet``.

    The marked language of the result is the expression's denotation; the
    generated language is its prefix closure.  States are named ``s1``,
    ``s2``, ... in breadth-first order of the minimal DFA, so the result does
    not depend on how the expression is written (e.g. on the order of union
    terms).
    """
    # Every fragment state reaches the accept state, so every subset does
    # too: the subset automaton is already trim.
    dfa = minimize(_subset_construct(ast, alphabet))
    return from_nodes(name, alphabet, dfa.states, dfa.transitions.items(), dfa.initial,
                      dfa.marked, lambda i, _q: f"s{i + 1}")


def compile_text(text: str, alphabet: Alphabet, name: str = "spec") -> Automaton:
    return compile(parse(text), alphabet, name=name)


def equivalent(a: Automaton, b: Automaton) -> tuple[bool, Optional[tuple[str, ...]]]:
    """Do a and b have equal generated AND marked languages?

    On inequality, returns a shortest distinguishing string (in one of the
    four languages but not its counterpart).
    """
    if a.initial is None and b.initial is None:
        return True, None
    if a.initial is None or b.initial is None:
        return False, ()
    events = list(a.alphabet.events)
    events += [e for e in b.alphabet.events if e not in a.alphabet]

    def step(node):
        qa, qb = node
        if a.is_marked(qa) != b.is_marked(qb):
            return None
        edges = []
        for e in events:
            ta = a.transitions.get((qa, e)) if e in a.alphabet else None
            tb = b.transitions.get((qb, e)) if e in b.alphabet else None
            if (ta is None) != (tb is None):
                edges.append((e, None))
                break
            if ta is not None:
                edges.append((e, (ta, tb)))
        return edges

    _, _, witness = explore((a.initial, b.initial), step)
    return witness is None, witness
