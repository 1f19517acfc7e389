"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the library's own algorithms: languages
are enumerated from AST denotations, reachability is recomputed from raw
transition dicts, and controllability is checked by bounded string
enumeration against the definition.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import deque
from dataclasses import replace
from functools import lru_cache

from desctl import espec, sim
from desctl.automata import (Alphabet, Automaton, ModelFormatError, automaton_from_dict,
                             explore)
from desctl.compose import successors


# -- expression denotations ------------------------------------------------

# The denotation is enumerated per subexpression and string length: the set
# of strings of length k that the subexpression denotes, or of which it
# denotes an extension, by the usual recursive rules.  Each distinct
# subexpression, the tails that concatenation splits off included, is
# interned as one small integer, so a cache lookup hashes an int rather than
# a frozen-dataclass subtree, and a lookup by an AST already seen costs one
# probe by its identity.
_NODES: list = []  # id -> (kind, payload): a Sym's event, a child's id, or a tuple of ids
_IDS: dict = {}  # (kind, payload) -> id
_SEEN: dict = {}  # id(ast) -> (ast, id); holding the AST keeps its id() from being reused


def _node(key) -> int:
    if key not in _IDS:
        _IDS[key] = len(_NODES)
        _NODES.append(key)
    return _IDS[key]


def _intern(ast) -> int:
    hit = _SEEN.get(id(ast))
    if hit is None:
        if isinstance(ast, espec.Epsilon):
            key = ("Epsilon", None)
        elif isinstance(ast, espec.Sym):
            key = ("Sym", ast.event)
        elif isinstance(ast, (espec.Concat, espec.Union)):
            key = (type(ast).__name__, tuple(map(_intern, ast.parts)))
        elif isinstance(ast, (espec.Star, espec.PrefClose)):
            key = (type(ast).__name__, _intern(ast.child))
        else:
            raise TypeError(ast)
        _SEEN[id(ast)] = hit = (ast, _node(key))
    return hit[1]


def _split(parts: tuple) -> tuple[int, int]:
    """The head of a concatenation and the concatenation of the rest."""
    return parts[0], parts[1] if len(parts) == 2 else _node(("Concat", parts[1:]))


def ast_nonempty(ast) -> bool:
    """Does the expression denote at least one string?"""
    return _nonempty(_intern(ast))


def ast_matches(ast, word: tuple) -> bool:
    """Is the word in the expression's denotation?"""
    return word in _words(_intern(ast), len(word))


def ast_extendable(ast, word: tuple) -> bool:
    """Is the word a prefix of some string in the expression's denotation?"""
    return word in _prefixes(_intern(ast), len(word))


@lru_cache(maxsize=None)
def _nonempty(n: int) -> bool:
    kind, x = _NODES[n]
    if kind == "Concat":
        return all(map(_nonempty, x))
    if kind == "Union":
        return any(map(_nonempty, x))
    if kind == "PrefClose":
        return _nonempty(x)
    return True  # Epsilon, Sym, Star


_NONE: frozenset = frozenset()
_EMPTY_WORD = frozenset([()])


@lru_cache(maxsize=None)
def _words(n: int, k: int) -> frozenset:
    """The strings of length ``k`` in the denotation of node ``n``."""
    kind, x = _NODES[n]
    if kind == "Epsilon":
        return _EMPTY_WORD if k == 0 else _NONE
    if kind == "Sym":
        return frozenset([(x,)]) if k == 1 else _NONE
    if kind == "Union":
        return _NONE.union(*(_words(p, k) for p in x))
    if kind == "Concat":
        head, tail = _split(x)
        return frozenset(u + v for i in range(k + 1)
                         for u in _words(head, i) for v in _words(tail, k - i))
    if kind == "Star":
        if k == 0:
            return _EMPTY_WORD
        return frozenset(u + v for i in range(1, k + 1)
                         for u in _words(x, i) for v in _words(n, k - i))
    return _prefixes(x, k)  # PrefClose


@lru_cache(maxsize=None)
def _prefixes(n: int, k: int) -> frozenset:
    """The strings of length ``k`` that are prefixes of some string in the denotation of ``n``."""
    kind, x = _NODES[n]
    if kind == "Epsilon":
        return _EMPTY_WORD if k == 0 else _NONE
    if kind == "Sym":
        return _EMPTY_WORD if k == 0 else frozenset([(x,)]) if k == 1 else _NONE
    if kind == "Union":
        return _NONE.union(*(_prefixes(p, k) for p in x))
    if kind == "Concat":
        head, tail = _split(x)
        # Either the string ends inside the head (every later part must be
        # nonempty), or the head matches a prefix and the rest extends.
        inside = _prefixes(head, k) if _nonempty(tail) else _NONE
        return inside.union(u + v for i in range(k + 1)
                            for u in _words(head, i) for v in _prefixes(tail, k - i))
    if kind == "Star":
        if k == 0:
            return _EMPTY_WORD
        return _prefixes(x, k).union(u + v for i in range(1, k + 1)
                                     for u in _words(x, i) for v in _prefixes(n, k - i))
    return _prefixes(x, k)  # PrefClose


def all_strings(events, maxlen: int):
    for n in range(maxlen + 1):
        yield from itertools.product(events, repeat=n)


def walk_marked(a: Automaton, word) -> bool:
    """Direct state walk; True iff the word ends in a marked state."""
    q = a.initial
    if q is None:
        return False
    for e in word:
        q = a.transitions.get((q, e))
        if q is None:
            return False
    return a.is_marked(q)


def project(word, alphabet: Alphabet) -> tuple:
    """Natural projection: the events of ``word`` that ``alphabet`` declares."""
    return tuple(e for e in word if e in alphabet)


def walk_generated(a: Automaton, word) -> bool:
    q = a.initial
    if q is None:
        return False
    for e in word:
        q = a.transitions.get((q, e))
        if q is None:
            return False
    return True


# -- equivalence by alphabet scan ------------------------------------------

def equivalent_scan(a: Automaton, b: Automaton):
    """``espec.equivalent`` as it scanned the whole alphabet at every pair state.

    The same breadth-first search over pair states, so the same shortest
    witness and tie-break, but each pair state probes every event of both
    alphabets rather than walking out-edges.
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


# -- random runs that step every state afresh ------------------------------

def random_run(plant: Automaton, sups, seed: int, max_steps: int) -> sim.RunReport:
    """``sim.run(plant, sups, Random(seed), max_steps)`` with nothing remembered.

    The same loop and draws, but ``step`` runs on every step, one
    ``Configuration`` is built per step with its constructor from the state
    names, and the final ``deadlocked`` rule steps the last state again.
    """
    sup_list = list(sups)
    sim.initial_configuration(plant, sup_list)
    components = [plant, *sup_list]
    step = successors(components, plant.alphabet)
    cur = tuple(a.start for a in components)
    trace = []
    rng = random.Random(seed)
    for _ in range(max_steps):
        choices = step(cur)
        if not choices:
            break
        e, cur = choices[rng.randrange(len(choices))]
        names = [a.states[q] for a, q in zip(components, cur)]
        trace.append((plant.alphabet.events[e], sim.Configuration(names[0], tuple(names[1:]))))
    steps = len(trace)
    return sim.RunReport(
        trace=tuple(trace),
        steps_taken=steps,
        deadlocked=not step(cur) and steps < max_steps,
        blocked_event=None,
        completions={cat: sum(1 for e, _cfg in trace if e == ev)
                     for cat, ev in sorted(sim.COMPLETION_EVENTS.items())},
        final_marked=all(q in a.marked_ids for a, q in zip(components, cur)),
    )


# -- minimality by enumeration --------------------------------------------

def nerode_classes(a: Automaton) -> set[frozenset[str]]:
    """The reachable states of ``a``, grouped by their futures.

    Two states are equivalent iff every word up to length n, the state
    count, is generated from both or from neither and marked from both or
    from neither.  A shortest word telling two states apart is shorter.
    """
    if a.initial is None:
        return set()
    reach = {a.initial}
    todo = [a.initial]
    while todo:
        q = todo.pop()
        for (p, _e), t in a.transitions.items():
            if p == q and t not in reach:
                reach.add(t)
                todo.append(t)
    words = list(all_strings(a.alphabet.events, len(a.states)))
    classes: dict[tuple, set[str]] = {}
    for q in reach:
        from_q = replace(a, initial=q)
        future = tuple((walk_generated(from_q, w), walk_marked(from_q, w)) for w in words)
        classes.setdefault(future, set()).add(q)
    return {frozenset(c) for c in classes.values()}


# -- model files by their documented shape ---------------------------------

def automaton_to_dict(a: Automaton) -> dict:
    """The model file of ``a`` as a JSON document: ``json.dumps(doc, indent=2)`` and
    a newline is what ``save_automaton`` must write.  The rows are found by
    probing every event of the alphabet at every state, in that order."""
    return {
        "name": a.name,
        "events": [{"id": e, "controllable": c} for e, c in a.alphabet.entries],
        "states": list(a.states),
        "initial": a.initial,
        "marked": list(a.marked),
        "transitions": [{"from": q, "on": e, "to": a.transitions[q, e]}
                        for q in a.states for e in a.alphabet.events
                        if (q, e) in a.transitions],
    }


def validate(a: Automaton) -> list[str]:
    """Diagnostics for every violated structural invariant; empty list iff valid.

    The constructor rejects each of them, so on a built automaton this is the
    reference that nothing got through.
    """
    diags: list[str] = []
    states: set[str] = set()
    for q in a.states:
        if q in states:
            diags.append(f"duplicate state name {q!r}")
        states.add(q)
    if a.initial is None:
        if a.states:
            diags.append("no initial state in a nonempty automaton")
    elif a.initial not in states:
        diags.append(f"initial state {a.initial!r} not in states")
    for q in a.marked:
        if q not in states:
            diags.append(f"marked state {q!r} not in states")
    for (q, e), t in a.transitions.items():
        if q not in states:
            diags.append(f"transition ({q!r}, {e!r}): unknown source state")
        if t not in states:
            diags.append(f"transition ({q!r}, {e!r}) -> {t!r}: unknown target state")
        if e not in a.alphabet:
            diags.append(f"transition ({q!r}, {e!r}): event not in alphabet")
    return diags


# -- model files decoded as one document -----------------------------------

def load_whole(path) -> Automaton:
    """The model file at ``path`` decoded as one JSON document, then checked by
    ``automaton_from_dict``, with JSON errors reported as the loader reports them."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ModelFormatError(f"invalid JSON: {exc}", str(path)) from None
    return automaton_from_dict(doc, where=str(path))


def load_outcome(load, path):
    """``load(path)`` in a comparable form: the automaton and its transitions in
    insertion order, or the type, text and location of the error it raised."""
    try:
        a = load(path)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc), getattr(exc, "where", None)
    return a, list(a.transitions.items())


# -- random instances ------------------------------------------------------

def random_automaton(rng, events, max_states: int = 6, name: str = "rand",
                     uncontrollable=()) -> Automaton:
    n = rng.randint(1, max_states)
    states = tuple(f"{name}{i}" for i in range(n))
    alphabet = Alphabet(tuple((e, e not in set(uncontrollable)) for e in events))
    transitions = {}
    for q in states:
        for e in events:
            if rng.random() < 0.45:
                transitions[(q, e)] = states[rng.randrange(n)]
    marked = tuple(q for q in states if rng.random() < 0.5)
    if not marked:
        marked = (states[rng.randrange(n)],)
    return Automaton(name=name, alphabet=alphabet, states=states,
                     transitions=transitions, initial=states[0], marked=marked)


# Quotes, backslashes, control characters, non-ASCII text, U+2028/9, a
# character outside the Basic Multilingual Plane (a surrogate pair in JSON)
# and the "}," that ends a slice of model rows.
PIECES = ("q", '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9", "\u03a9",
          "\u6bb5", "\u2028", "\u2029", "\U0001f600", " ", "/", "[]", "},")


def weird_name(rng) -> str:
    return "".join(rng.choice(PIECES) for _ in range(rng.randint(1, 5)))


def weird_automaton(rng) -> Automaton:
    events = tuple(f"e{i}" for i in range(rng.randint(0, 4)))
    states = tuple(dict.fromkeys(weird_name(rng) for _ in range(rng.randint(1, 8))))
    transitions = {(q, e): rng.choice(states) for q in states for e in events
                   if rng.random() < 0.5}
    return Automaton(weird_name(rng), Alphabet(tuple((e, rng.random() < 0.5) for e in events)),
                     states, transitions, states[0],
                     tuple(q for q in states if rng.random() < 0.4))


def random_modular_system(rng) -> tuple[Automaton, list[Automaton]]:
    """A plant over up to five events, and one or two supervisors on sub-alphabets."""
    events = [f"e{i}" for i in range(rng.randint(1, 5))]
    uncontrollable = [e for e in events if rng.random() < 0.3]
    g = random_automaton(rng, events, 6, "g", uncontrollable)
    sups = [random_automaton(rng, rng.sample(events, rng.randint(1, len(events))), 4,
                             f"s{k}_", uncontrollable)
            for k in range(rng.randint(1, 2))]
    return g, sups


def random_ast(rng, events, depth: int = 3):
    if depth == 0 or rng.random() < 0.3:
        return espec.Sym(rng.choice(events))
    kind = rng.choice(["concat", "union", "star", "pc", "sym"])
    if kind == "sym":
        return espec.Sym(rng.choice(events))
    if kind == "concat":
        return espec.Concat(tuple(random_ast(rng, events, depth - 1)
                                  for _ in range(rng.randint(2, 3))))
    if kind == "union":
        return espec.Union(tuple(random_ast(rng, events, depth - 1)
                                 for _ in range(rng.randint(2, 3))))
    if kind == "star":
        return espec.Star(random_ast(rng, events, depth - 1))
    return espec.PrefClose(random_ast(rng, events, depth - 1))


# -- controllability by enumeration ---------------------------------------

def enumerate_violations(plant: Automaton, sup: Automaton, maxlen: int):
    """All controllability violations (s, e) with len(s) <= maxlen.

    Walks every string of the supervised product and applies the definition
    directly: s is executable by plant and supervisor together, e is an
    uncontrollable event the supervisor declares, the plant can extend s by
    e, the supervisor cannot.  Shortest-first, ties by plant event order.
    """
    if plant.initial is None or sup.initial is None:
        return []
    violations = []
    frontier = [((), plant.initial, sup.initial)]
    for _depth in range(maxlen + 1):
        nxt = []
        for s, qp, qs in frontier:
            for e in plant.alphabet.events:
                tp = plant.transitions.get((qp, e))
                if tp is None:
                    continue
                if e in sup.alphabet:
                    ts = sup.transitions.get((qs, e))
                    if ts is None:
                        if not plant.alphabet.is_controllable(e):
                            violations.append((s, e))
                        continue
                    nxt.append((s + (e,), tp, ts))
                else:
                    nxt.append((s + (e,), tp, qs))
        frontier = nxt
    return violations


# -- nonblocking by direct exploration ------------------------------------

def explore_closed_loop(plant: Automaton, sups, max_depth: int):
    """Configurations and edges of the modular closed loop, to a depth bound.

    Steps raw transition dicts; shares no code with the composition or
    simulation modules.
    """
    sups = list(sups)
    init = (plant.initial,) + tuple(s.initial for s in sups)
    depth = {init: 0}
    edges = {}
    paths = {init: ()}
    todo = deque([init])
    while todo:
        cfg = todo.popleft()
        if depth[cfg] >= max_depth:
            continue
        for e in plant.alphabet.events:
            tp = plant.transitions.get((cfg[0], e))
            if tp is None:
                continue
            tgt = [tp]
            ok = True
            for s, q in zip(sups, cfg[1:]):
                if e in s.alphabet:
                    t = s.transitions.get((q, e))
                    if t is None:
                        ok = False
                        break
                    tgt.append(t)
                else:
                    tgt.append(q)
            if not ok:
                continue
            tgt = tuple(tgt)
            edges.setdefault(cfg, []).append((e, tgt))
            if tgt not in depth:
                depth[tgt] = depth[cfg] + 1
                paths[tgt] = paths[cfg] + (e,)
                todo.append(tgt)
    return depth, edges, paths


def supcon_oracle(plant: Automaton, spec: Automaton) -> set[str]:
    """State names of supcon(plant, spec) by the textbook round, to a fixpoint.

    Each round keeps the configurations whose plant-enabled uncontrollable
    events all have a closed-loop edge into the kept set, then the
    coreachable ones, then the reachable ones.  Names join the component
    states with ``|``.
    """
    if plant.initial is None or spec.initial is None:
        return set()
    depth, edges, _ = explore_closed_loop(plant, [spec], 10 ** 9)
    init = (plant.initial, spec.initial)
    good = set(depth)
    while True:
        kept = set()
        for cfg in good:
            out = dict(edges.get(cfg, []))
            if all(out.get(e) in good for e in plant.alphabet.uncontrollable
                   if (cfg[0], e) in plant.transitions):
                kept.add(cfg)
        coreach = {c for c in kept if plant.is_marked(c[0]) and spec.is_marked(c[1])}
        grown = True
        while grown:
            grown = False
            for c in kept - coreach:
                if any(t in coreach for _e, t in edges.get(c, [])):
                    coreach.add(c)
                    grown = True
        reach = {init} if init in coreach else set()
        todo = list(reach)
        while todo:
            for _e, t in edges.get(todo.pop(), []):
                if t in coreach and t not in reach:
                    reach.add(t)
                    todo.append(t)
        if reach == good:
            return {"|".join(c) for c in good}
        good = reach


def nonblocking_oracle(plant: Automaton, sups, max_depth: int):
    """(verdict, shortest string to a blocking configuration or None).

    Ties between strings of equal length are broken by plant-alphabet order.
    """
    sups = list(sups)
    depth, edges, paths = explore_closed_loop(plant, sups, max_depth)

    def marked(cfg):
        return plant.is_marked(cfg[0]) and all(
            s.is_marked(q) for s, q in zip(sups, cfg[1:]))

    preds = {}
    for src, outs in edges.items():
        for _e, dst in outs:
            preds.setdefault(dst, set()).add(src)
    coreach = set(c for c in depth if marked(c))
    todo = deque(coreach)
    while todo:
        c = todo.popleft()
        for p in preds.get(c, ()):
            if p not in coreach:
                coreach.add(p)
                todo.append(p)
    blocking = [c for c in depth if c not in coreach]
    if not blocking:
        return True, None
    worst = min(blocking, key=lambda c: (depth[c],
                                         tuple(map(plant.alphabet.rank.__getitem__, paths[c]))))
    return False, paths[worst]


# -- run reports by direct re-execution ------------------------------------

def replay_oracle(plant: Automaton, sups, doc: dict, counted: dict) -> bool:
    """Does ``doc``, a run report in its dict form, describe a run of the closed loop?

    Re-fires the trace over raw transition dicts, with no code from the
    composition or simulation modules: an event fires when it is a plant
    event and the plant and every supervisor declaring it have a transition
    on it, and each recorded configuration must be the result.  The step
    count, the completions (``counted`` maps each category to its event),
    the final marking, ``deadlocked`` (no plant event enabled at the end) and
    ``blocked_event`` (None, or a plant event disabled at the end) are then
    checked against the final configuration.
    """
    components = [plant, *sups]
    if any(a.initial is None for a in components):
        return False

    def after(cfg, e):
        if e not in plant.alphabet.events:
            return None
        nxt = []
        for a, q in zip(components, cfg):
            if e in a.alphabet.events:
                q = a.transitions.get((q, e))
                if q is None:
                    return None
            nxt.append(q)
        return nxt

    cfg = [a.initial for a in components]
    for row in doc["trace"]:
        cfg = after(cfg, row["event"])
        recorded = row["configuration"]
        if cfg is None or [recorded["plant_state"], *recorded["sup_states"]] != cfg:
            return False
    fired = [row["event"] for row in doc["trace"]]
    disabled = [e for e in plant.alphabet.events if after(cfg, e) is None]
    return (doc["steps_taken"] == len(fired)
            and doc["completions"] == {c: fired.count(e) for c, e in counted.items()}
            and doc["final_marked"] == all(a.is_marked(q) for a, q in zip(components, cfg))
            and (not doc["deadlocked"] or len(disabled) == len(plant.alphabet.events))
            and (doc["blocked_event"] is None or doc["blocked_event"] in disabled))
