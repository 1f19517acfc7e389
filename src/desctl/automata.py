"""Deterministic finite automata with marked states.

An automaton is the usual 6-tuple: states, alphabet, a partial transition
map, the active-event sets (derived from the transition map, never stored),
an initial state and a set of marked states.  All values are immutable
after construction; operations return new automata.

The canonical empty automaton has no states and ``initial is None``.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, replace
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, Optional

from . import InputError

EVENT_ID_RE = re.compile(r"[A-Za-z][A-Za-z0-9._]*\Z")


class BadQueryError(InputError):
    """A query referenced a state or event the automaton does not know."""


class ModelFormatError(InputError):
    """A model file or in-memory description is malformed.

    ``where`` points at the offending element (e.g. ``transitions[3]``).
    """

    def __init__(self, message: str, where: str | None = None):
        self.where = where
        super().__init__(message if where is None else f"{where}: {message}")


def check_event_id(eid: str) -> str:
    if not isinstance(eid, str) or not EVENT_ID_RE.match(eid):
        raise ModelFormatError(
            f"bad event id {eid!r}: must start with a letter and use only "
            "letters, digits, '.' and '_'"
        )
    return eid


@dataclass(frozen=True)
class Alphabet:
    """Ordered event set with a controllable/uncontrollable partition.

    ``events``, ``controllable`` and ``uncontrollable`` are tuples of event
    ids in declaration order, computed once at construction.
    """

    entries: tuple[tuple[str, bool], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple((e, bool(c)) for e, c in self.entries))
        seen = set()
        for eid, _ in self.entries:
            check_event_id(eid)
            if eid in seen:
                raise ModelFormatError(f"duplicate event id {eid!r}")
            seen.add(eid)
        object.__setattr__(self, "_flags", dict(self.entries))
        object.__setattr__(self, "events", tuple(e for e, _ in self.entries))
        object.__setattr__(self, "controllable", tuple(e for e, c in self.entries if c))
        object.__setattr__(self, "uncontrollable",
                           tuple(e for e, c in self.entries if not c))

    def __contains__(self, eid: str) -> bool:
        return eid in self._flags

    def __len__(self) -> int:
        return len(self.entries)

    def is_controllable(self, eid: str) -> bool:
        try:
            return self._flags[eid]
        except KeyError:
            raise BadQueryError(f"unknown event {eid!r}") from None

    def reflagged(self, uncontrollable: Iterable[str]) -> "Alphabet":
        """Same events, controllability recomputed from an uncontrollable set."""
        uc = set(uncontrollable)
        return Alphabet(tuple((e, e not in uc) for e, _ in self.entries))


@dataclass(frozen=True)
class Automaton:
    """Deterministic finite automaton with a partial transition map.

    The constructor does not enforce the structural invariants beyond what
    the representation forces (determinism is structural: ``transitions``
    is a map).  Use :meth:`validate` to obtain diagnostics, and the JSON
    loader for strict rejection of malformed inputs.
    """

    name: str
    alphabet: Alphabet
    states: tuple[str, ...]
    transitions: dict[tuple[str, str], str]
    initial: Optional[str]
    marked: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "marked", tuple(self.marked))
        object.__setattr__(self, "transitions", dict(self.transitions))
        object.__setattr__(self, "_state_set", set(self.states))
        object.__setattr__(self, "_marked_set", set(self.marked))

    # -- basic queries ----------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.states

    def has_state(self, q: str) -> bool:
        return q in self._state_set

    def is_marked(self, q: str) -> bool:
        return q in self._marked_set

    def validate(self) -> list[str]:
        """Diagnostics for every violated invariant; empty list iff valid."""
        diags: list[str] = []
        seen: set[str] = set()
        for q in self.states:
            if q in seen:
                diags.append(f"duplicate state name {q!r}")
            seen.add(q)
        if self.initial is None:
            if self.states:
                diags.append("no initial state in a nonempty automaton")
        elif self.initial not in self._state_set:
            diags.append(f"initial state {self.initial!r} not in states")
        for q in self.marked:
            if q not in self._state_set:
                diags.append(f"marked state {q!r} not in states")
        for (q, e), t in self.transitions.items():
            if q not in self._state_set:
                diags.append(f"transition ({q!r}, {e!r}): unknown source state")
            if t not in self._state_set:
                diags.append(f"transition ({q!r}, {e!r}) -> {t!r}: unknown target state")
            if e not in self.alphabet:
                diags.append(f"transition ({q!r}, {e!r}): event not in alphabet")
        return diags

    def active(self, q: str) -> tuple[str, ...]:
        """Active-event set at ``q``, in alphabet order."""
        if q not in self._state_set:
            raise BadQueryError(f"unknown state {q!r}")
        return tuple(e for e in self.alphabet.events if (q, e) in self.transitions)

    # -- reachability -----------------------------------------------------

    def trim(self) -> "Automaton":
        """Accessible and coaccessible part; empty automaton if nothing survives.

        One pass over the transition map builds successor and predecessor lists;
        only events in the alphabet count, and only states in ``states`` are
        predecessors.
        """
        succ: dict = {}
        pred: dict = {}
        flags, declared = self.alphabet._flags, self._state_set
        for (q, e), t in self.transitions.items():
            if e in flags:
                succ.setdefault(q, []).append(t)
                if q in declared:
                    pred.setdefault(t, []).append(q)
        # Every successor of a reachable state is reachable, so coreachability
        # within the accessible part is plain coreachability.
        keep = (reachable(succ, [self.initial] if self.initial in declared else [])
                & reachable(pred, (q for q in self.marked if q in declared)))
        if self.initial not in keep:
            return empty_automaton(self.name, self.alphabet)
        # The kept transitions are the existing items, keys and all, on the
        # events that the reachability searches follow.
        return Automaton(self.name, self.alphabet, tuple(q for q in self.states if q in keep),
                         (kt for kt in self.transitions.items()
                          if kt[0][0] in keep and kt[1] in keep and kt[0][1] in flags),
                         self.initial, tuple(q for q in self.marked if q in keep))

    def renamed(self, name: str) -> "Automaton":
        return replace(self, name=name)


def empty_automaton(name: str, alphabet: Alphabet) -> Automaton:
    return Automaton(name=name, alphabet=alphabet, states=(),
                     transitions={}, initial=None, marked=())


def edges_of(a: Automaton) -> Callable[[str], list[tuple[str, str]]]:
    """``edges(q)``: the out-edges ``[(event, target), ...]`` of ``q`` in alphabet order.

    The transition map is indexed once per call, as the map's own ``(q, event)``
    keys grouped by source state; events outside the alphabet are skipped,
    sources outside ``states`` are not.  Nothing is cached on ``a``.
    """
    rank = {e: k for k, e in enumerate(a.alphabet.events)}
    rows: dict = {}
    unsorted = set()
    for key in a.transitions:
        if (k := rank.get(key[1])) is not None:
            row = rows.setdefault(key[0], [])
            if row and rank[row[-1][1]] > k:
                unsorted.add(key[0])
            row.append(key)
    for q in unsorted:  # only rows that the map lists out of alphabet order
        rows[q].sort(key=lambda key: rank[key[1]])
    transitions = a.transitions
    # Looking a target up by the existing key builds no key tuple per edge.
    return lambda q: [(key[1], transitions[key]) for key in rows.get(q, ())]


def from_nodes(name: str, alphabet: Alphabet, names: dict, edges: Callable,
               initial, marked: Iterable) -> Automaton:
    """The automaton over explored nodes, with states named at the boundary.

    ``names`` maps each node to its state name, in state order; ``edges(node)``
    lists the node's ``(event, node)`` out-edges, and an edge into a node that
    ``names`` lacks is dropped.  ``marked`` yields the marked nodes.
    """
    # The constructor's dict() consumes the generator, so the named map is
    # built once rather than built and then copied.
    return Automaton(name=name, alphabet=alphabet, states=tuple(names.values()),
                     transitions=(((s, e), names[t]) for q, s in names.items()
                                  for e, t in edges(q) if t in names),
                     initial=names[initial],
                     marked=tuple(names[q] for q in marked))


# -- breadth-first search ------------------------------------------------

def explore(start, step: Callable) -> tuple[list, dict, Optional[tuple[str, ...]]]:
    """Breadth-first search from ``start`` with one parent pointer per node.

    ``step(node)`` returns the out-edges of ``node`` as ``(event, target)``
    pairs in tie-break order.  It returns None when the node itself violates
    the property; a ``target`` of None marks a violation on that event.

    Returns ``(order, parent, witness)``: the expanded nodes in BFS order,
    ``parent[t] = (node, event)`` for every discovered node (None for
    ``start``), and the shortest violating string (None if no violation is reachable).
    The search stops at the first violation, so ``len(order)`` counts the
    nodes checked either way.
    """
    order = [start]  # the queue; nodes past index i are discovered, not expanded
    parent: dict = {start: None}
    for i, node in enumerate(order):
        edges = step(node)
        if edges is None:
            del order[i + 1:]
            return order, parent, path_to(parent, node)
        for e, t in edges:
            if t is None:
                del order[i + 1:]
                return order, parent, path_to(parent, node) + (e,)
            if t not in parent:
                parent[t] = (node, e)
                order.append(t)
    return order, parent, None


def path_to(parent, node) -> tuple[str, ...]:
    """The event string from the start to ``node`` in :func:`explore` or ``compose.product``.

    ``parent[node]`` is ``(previous node, event)``, None at the start; a dict or a list.
    """
    path = []
    while parent[node] is not None:
        node, e = parent[node]
        path.append(e)
    return tuple(reversed(path))


def predecessors(nodes: Iterable, edges: Callable) -> dict:
    """``{target: [source, ...]}`` over the out-edges ``edges(source)`` of ``nodes``."""
    preds: dict = {}
    for q in nodes:
        for _e, t in edges(q):
            preds.setdefault(t, []).append(q)
    return preds


def reachable(adjacency: dict, starts: Iterable) -> set:
    """Nodes reachable from ``starts`` along ``adjacency = {node: [node, ...]}``."""
    seen = set(starts)
    todo = list(seen)
    while todo:
        for p in adjacency.get(todo.pop(), ()):
            if p not in seen:
                seen.add(p)
                todo.append(p)
    return seen


def is_sublanguage(a: Automaton, b: Automaton) -> tuple[bool, Optional[tuple[str, ...]]]:
    """Is L(a) a subset of L(b)?  On failure, a shortest witness in L(a)\\L(b).

    Events of ``a`` absent from ``b``'s alphabet count as undefined in ``b``.
    """
    if a.initial is None:
        return True, None
    if b.initial is None:
        return False, ()

    out = edges_of(a)
    flags = b.alphabet._flags

    def step(node):
        qa, qb = node
        edges = []
        for e, ta in out(qa):
            tb = b.transitions.get((qb, e)) if e in flags else None
            if tb is None:
                edges.append((e, None))
                break
            edges.append((e, (ta, tb)))
        return edges

    _, _, witness = explore((a.initial, b.initial), step)
    return witness is None, witness


# -- JSON model files -----------------------------------------------------

def automaton_to_dict(a: Automaton) -> dict:
    edges = edges_of(a)
    return {
        "name": a.name,
        "events": [{"id": e, "controllable": c} for e, c in a.alphabet.entries],
        "states": list(a.states),
        "initial": a.initial,
        "marked": list(a.marked),
        "transitions": [{"from": q, "on": e, "to": t}
                        for q in a.states for e, t in edges(q)],
    }


_JSON_KINDS = {str: "a string", list: "a list", bool: "true or false", int: "an integer",
               dict: "an object", (str, type(None)): "a string or null"}


def _expect(value, kind: type, where: str):
    """``value`` if it is of the JSON type ``kind``; ModelFormatError otherwise."""
    if not isinstance(value, kind):
        raise ModelFormatError(
            f"expected {_JSON_KINDS[kind]}, found {type(value).__name__}", where)
    return value


def check_shape(value, shape, where: str) -> None:
    """ModelFormatError, located, at the first part of ``value`` not of the JSON ``shape``."""
    # A shape is a key of _JSON_KINDS, a dict of the shapes of required
    # fields, or a one-item list holding the shape of every item.
    _expect(value, shape if isinstance(shape, (type, tuple)) else type(shape), where)
    for key, field in shape.items() if isinstance(shape, dict) else ():
        if key not in value:
            raise ModelFormatError(f"missing field {key!r}", where)
        check_shape(value[key], field, f"{where}.{key}")
    for i, item in enumerate(value) if isinstance(shape, list) else ():
        check_shape(item, shape[0], f"{where}[{i}]")


def _expect_strings(values: list, where: str) -> None:
    # One pass at C speed, and locations formatted only on failure: models
    # can have many states.
    if not all(map(isinstance, values, repeat(str))):
        for i, v in enumerate(values):
            _expect(v, str, f"{where}[{i}]")


def _header(doc: dict, where: str) -> tuple[dict, dict, dict]:
    """The checked fields of ``doc`` other than its rows, as keyword arguments of
    :class:`Automaton`, and the maps that check and share the names in the rows."""
    if not isinstance(doc, dict):
        raise ModelFormatError("expected a JSON object", where)
    for key in ("name", "events", "states", "initial", "marked", "transitions"):
        if key not in doc:
            raise ModelFormatError(f"missing field {key!r}", where)
    name = _expect(doc["name"], str, f"{where}.name")
    for key in ("events", "states", "marked", "transitions"):
        _expect(doc[key], list, f"{where}.{key}")
    entries = []
    for i, ev in enumerate(doc["events"]):
        loc = f"{where}.events[{i}]"
        if not isinstance(ev, dict) or "id" not in ev or "controllable" not in ev:
            raise ModelFormatError("each event needs 'id' and 'controllable'", loc)
        entries.append((ev["id"], _expect(ev["controllable"], bool, f"{loc}.controllable")))
    try:
        alphabet = Alphabet(tuple(entries))
    except ModelFormatError as exc:
        raise ModelFormatError(str(exc), f"{where}.events") from None
    _expect_strings(doc["states"], f"{where}.states")
    states = tuple(doc["states"])
    # One probe into these maps both checks a name and swaps in the declared
    # string, so the loaded model holds one object per state and event name.
    state_of = dict(zip(states, states))
    event_of = dict(zip(alphabet.events, alphabet.events))
    if len(state_of) != len(states):
        raise ModelFormatError("duplicate state names", f"{where}.states")
    initial = doc["initial"] if states else None
    if states and _expect(initial, str, f"{where}.initial") not in state_of:
        raise ModelFormatError(f"initial state {initial!r} not in states", f"{where}.initial")
    _expect_strings(doc["marked"], f"{where}.marked")
    marked = []
    for i, q in enumerate(doc["marked"]):
        if q not in state_of:
            raise ModelFormatError(f"unknown state {q!r}", f"{where}.marked[{i}]")
        marked.append(state_of[q])
    return (dict(name=name, alphabet=alphabet, states=states, initial=state_of.get(initial),
                 marked=tuple(marked)), state_of, event_of)


def _add_rows(transitions: dict, rows: list, state_of: dict, event_of: dict) -> bool:
    """Add ``rows`` to ``transitions``; False if a row is bad or repeats a ``(from, on)``."""
    n = len(transitions) + len(rows)
    try:
        for r in rows:
            transitions[state_of[r["from"]], event_of[r["on"]]] = state_of[r["to"]]
    except (TypeError, KeyError):
        return False
    return len(transitions) == n


def automaton_from_dict(doc: dict, where: str = "model") -> Automaton:
    fields, state_of, event_of = _header(doc, where)
    rows, transitions = doc["transitions"], {}
    if not _add_rows(transitions, rows, state_of, event_of):
        raise _bad_row(rows, state_of, event_of, where)
    return Automaton(transitions=transitions, **fields)


def _bad_row(rows: list, state_of: dict, event_of: dict, where: str) -> ModelFormatError:
    """The error for the first of ``rows`` with a missing field, an unknown name or a repeat."""
    seen = set()
    for i, row in enumerate(rows):
        loc = f"{where}.transitions[{i}]"
        try:
            src, on, dst = row["from"], row["on"], row["to"]
        except (TypeError, KeyError):
            return ModelFormatError("each transition needs 'from', 'on', 'to'", loc)
        # States and event ids are strings, so a value of another JSON type
        # is unknown, or unhashable if it is a list or an object.
        try:
            if src not in state_of:
                return ModelFormatError(f"unknown state {src!r}", loc)
            if dst not in state_of:
                return ModelFormatError(f"unknown state {dst!r}", loc)
            if on not in event_of:
                return ModelFormatError(f"unknown event {on!r}", loc)
        except TypeError:
            return ModelFormatError("'from', 'on' and 'to' must be strings", loc)
        if (src, on) in seen:
            return ModelFormatError(f"duplicate transition on {on!r} from {src!r}", loc)
        seen.add((src, on))


# Characters of transition rows decoded at a time.  A slice ends at "},\n", which
# is always structural: a JSON string cannot hold a raw newline.
_SLICE_CHARS = 1 << 20
_scan = json.JSONDecoder().scan_once
_skip = json.decoder.WHITESPACE.match


def _past(s: str, idx: int, token: str) -> int:
    """The index past ``token``, which follows ``s[idx]`` and any whitespace."""
    idx = _skip(s, idx).end()
    if not s.startswith(token, idx):
        raise ValueError(f"expected {token!r}")
    return idx + len(token)


def _decode_rows(s: str, idx: int, transitions: dict, state_of: dict,
                 event_of: dict) -> tuple[str, int]:
    """Add the rows of the array at ``s[idx]`` to ``transitions`` a slice at a time;
    the text and the index past the array (the rest of ``s``, past one slice)."""
    while (cut := s.find("},\n", idx + _SLICE_CHARS)) >= 0:
        piece = f"[{s[idx + 1:cut + 1]}]"
        rows, end = _scan(piece, 0)
        if end != len(piece) or not _add_rows(transitions, rows, state_of, event_of):
            raise ValueError("not a slice of rows")
        idx = cut + 1  # at the "," before the next row
    if s.startswith(",", idx):
        s, idx = "[" + s[idx + 1:], 0
    rows, idx = _scan(s, idx)  # in place, if the array is shorter than one slice
    if not _add_rows(transitions, rows, state_of, event_of):
        raise ValueError("bad row")
    return s, idx


def _decode_streamed(s: str, where: str) -> Automaton:
    """The model in ``s``, a top-level field at a time and its rows a slice at a time.

    Takes one object, each key once, with every field that :func:`_header`
    checks before ``transitions``, that loads without error.
    """
    doc, transitions, idx, sep = {}, None, _past(s, 0, "{"), ""
    while not s.startswith("}", idx := _skip(s, idx).end()):
        key, idx = json.decoder.scanstring(s, _past(s, _past(s, idx, sep), '"'))
        idx, sep = _skip(s, _past(s, idx, ":")).end(), ","
        if key in doc:
            raise ValueError("repeated key")
        if key == "transitions" and s.startswith("[", idx):
            doc[key] = []  # a list, as the header check requires; the rows go below
            fields, state_of, event_of = _header(doc, where)
            transitions = {}
            s, idx = _decode_rows(s, idx, transitions, state_of, event_of)
        else:
            doc[key], idx = _scan(s, idx)
    if transitions is None or _skip(s, idx + 1).end() != len(s):
        raise ValueError("no rows, or data after the object")
    return Automaton(transitions=transitions, **fields)


def load_automaton(path) -> Automaton:
    """The model in the JSON file at ``path``; ModelFormatError if it is not one.

    A file longer than one slice and laid out header first has its rows decoded a
    slice at a time.  Any other file, and any file with an error, is decoded as
    one document, as it always was, so every diagnostic is that of
    :func:`automaton_from_dict`.
    """
    where = str(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                if os.fstat(fh.fileno()).st_size > _SLICE_CHARS:
                    return _decode_streamed(fh.read(), where)
            except (ValueError, StopIteration, RecursionError):  # not taken, whatever the reason
                fh.seek(0)
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # RFC 8259: JSON exchanged between systems must be UTF-8.  The decoder
        # recurses once per nesting level, so very deep nesting overflows.
        raise ModelFormatError(f"invalid JSON: {exc}", where) from None
    return automaton_from_dict(doc, where=where)


class JsonStrings(dict):
    """``quoted[s]`` is ``json.dumps(s)``, encoded once, on first use, in C."""

    def __missing__(self, s: str) -> str:
        self[s] = text = encode_basestring_ascii(s)
        return text


def json_list(values: Iterable[str], depth: int) -> Iterator[str]:
    """A JSON list of rendered values, laid out as ``json.dumps(indent=2)`` lays out a
    list that opens on a line at nesting ``depth``: ``[]`` when empty, otherwise
    one chunk per value and one for the closing bracket."""
    pad = "\n" + "  " * (depth + 1)
    sep = "[" + pad
    for value in values:
        yield sep + value
        sep = "," + pad
    yield "[]" if sep[0] == "[" else "\n" + "  " * depth + "]"


def save_automaton(a: Automaton, path) -> None:
    """Write ``json.dumps(automaton_to_dict(a), indent=2)`` and a newline, a row at a time."""
    q = JsonStrings()
    events = [{"id": e, "controllable": c} for e, c in a.alphabet.entries]
    edges = edges_of(a)
    with open(path, "w", encoding="utf-8") as fh:
        # The name and the few events, without the closing "\n}".
        fh.write(json.dumps({"name": a.name, "events": events}, indent=2)[:-2])
        fh.write(',\n  "states": ')
        fh.writelines(json_list(map(q.__getitem__, a.states), 1))
        fh.write(f',\n  "initial": {json.dumps(a.initial)},\n  "marked": ')
        fh.writelines(json_list(map(q.__getitem__, a.marked), 1))
        fh.write(',\n  "transitions": ')
        fh.writelines(json_list((f'{{\n      "from": {q[s]},\n      "on": {q[e]},\n'
                                 f'      "to": {q[t]}\n    }}'
                                 for s in a.states for e, t in edges(s)), 1))
        fh.write("\n}\n")
