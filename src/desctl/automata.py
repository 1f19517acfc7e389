"""Deterministic finite automata with marked states.

An automaton is the usual 6-tuple: states, alphabet, a partial transition
map, the active-event sets (derived from the transition map, never stored),
an initial state and a set of marked states.  All values are immutable
after construction; operations return new automata.

The edges are stored once, as ``out[i] = [e0, t0, e1, t1, ...]`` per state
``i``: event ranks in the alphabet and target state indices, in alphabet
order.  Every algorithm reads them there; names return only at the boundary.

The canonical empty automaton has no states and ``initial is None``.
"""

from __future__ import annotations

import json
import os
import re
from collections.abc import Mapping
from dataclasses import dataclass, replace
from itertools import compress, repeat
from json.encoder import encode_basestring_ascii
from operator import and_, itemgetter
from typing import Callable, Iterable, Iterator, Optional

from . import InputError

# The syntax of an event id, in model files and in spec expressions alike.
EVENT_ID = r"[A-Za-z][A-Za-z0-9._]*"
EVENT_ID_RE = re.compile(EVENT_ID + r"\Z")


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
    ids in declaration order, and ``rank`` maps each to its index in ``events``.
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
        events = tuple(e for e, _ in self.entries)
        self.__dict__.update(_flags=dict(self.entries), events=events,
                             rank=dict(zip(events, range(len(events)))),
                             controllable=tuple(e for e, c in self.entries if c),
                             uncontrollable=tuple(e for e, c in self.entries if not c))

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


class Transitions(Mapping):
    """The read-only map ``(state, event) -> state`` over ``out``, in state then alphabet order."""

    def __init__(self, states: tuple, alphabet: Alphabet, out: list):
        self.states, self.alphabet, self.out = states, alphabet, out
        self.index = dict(zip(states, range(len(states))))

    def __getitem__(self, key):
        q, e = key
        if (t := dict(pairs(self.out[self.index[q]])).get(self.alphabet.rank[e])) is None:
            raise KeyError(key)
        return self.states[t]

    def __iter__(self):
        events = self.alphabet.events
        return ((q, events[k]) for q, row in zip(self.states, self.out) for k in row[::2])

    def __len__(self) -> int:
        return sum(map(len, self.out)) // 2


@dataclass(frozen=True)
class Automaton:
    """Deterministic finite automaton with a partial transition map.

    The constructor maps ``transitions``, ``(state, event) -> state`` by name, to
    ``out`` once, and raises a located ModelFormatError on a repeated state, an
    unknown initial, marked, source or target state, or an event outside the
    alphabet.  ``transitions`` is then a :class:`Transitions` view of ``out``.
    """

    name: str
    alphabet: Alphabet
    states: tuple[str, ...]
    transitions: Mapping
    initial: Optional[str]
    marked: tuple[str, ...]

    def __post_init__(self):
        states, edges, alphabet, rows = tuple(self.states), self.transitions, self.alphabet, None
        # The view of an automaton with the same names, as ``replace`` passes it
        # on, is taken as it is.
        if not (isinstance(edges, Transitions)
                and (edges.states, edges.alphabet.events) == (states, alphabet.events)):
            rows = [{"from": q, "on": e, "to": t} for (q, e), t in edges.items()]
            edges = Transitions(states, alphabet, [[] for _ in states])
        start, marked = _ends(edges.index, states, self.initial, self.marked, "")
        if rows is not None and not _add_rows(edges, map(_row_names, rows)):
            raise _bad_row(rows, edges, "")
        # Frozen: the fields are set past the dataclass's __setattr__.  ``index``
        # maps each state name to its index, ``start`` is the initial state's
        # index (None if there is none) and ``marked_ids`` the marked states'.
        self.__dict__.update(states=states, transitions=edges, out=edges.out, index=edges.index,
                             start=start, marked_ids=frozenset(marked),
                             initial=None if start is None else states[start],
                             marked=tuple(states[i] for i in marked))

    # -- basic queries ----------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.states

    def is_marked(self, q: str) -> bool:
        return self.index.get(q) in self.marked_ids

    def active(self, q: str) -> tuple[str, ...]:
        """Active-event set at ``q``, in alphabet order."""
        if q not in self.index:
            raise BadQueryError(f"unknown state {q!r}")
        return spelled(self.alphabet.events, self.out[self.index[q]][::2])

    # -- reachability -----------------------------------------------------

    def trim(self) -> "Automaton":
        """Accessible and coaccessible part; empty automaton if nothing survives."""
        out, n = self.out, len(self.out)
        if self.start is None:
            return empty_automaton(self.name, self.alphabet)
        # Every successor of a reachable state is reachable, so coreachability
        # within the accessible part is plain coreachability.
        keep = bytes(map(and_, reachable(lambda q: out[q][1::2], (self.start,), n),
                         reachable(predecessors(out).__getitem__, self.marked_ids, n)))
        if not keep[self.start]:
            return empty_automaton(self.name, self.alphabet)
        return from_nodes(self.name, self.alphabet,
                          {q: self.states[q] for q in compress(range(n), keep)},
                          lambda q: pairs(out[q]), self.start,
                          (q for q in map(self.index.get, self.marked) if keep[q]))

    def renamed(self, name: str) -> "Automaton":
        return replace(self, name=name)


def empty_automaton(name: str, alphabet: Alphabet) -> Automaton:
    return Automaton(name, alphabet, (), {}, None, ())


def _ends(index: dict, states: tuple, initial, marked, at: str) -> tuple[Optional[int], list]:
    """The indices of ``initial`` and ``marked``; ModelFormatError, located after ``at``."""
    if len(index) != len(states):
        raise ModelFormatError("duplicate state names", f"{at}states")
    start = index.get(initial)
    if (start is None) if states else (initial is not None):
        raise ModelFormatError(f"initial state {initial!r} not in states", f"{at}initial")
    ids = [index.get(q) for q in marked]
    if None in ids:
        i = ids.index(None)
        raise ModelFormatError(f"unknown state {marked[i]!r}", f"{at}marked[{i}]")
    return start, ids


def pairs(flat):
    """The ``(event, target)`` pairs of a flat out-edge list ``[e0, t0, e1, t1, ...]``."""
    it = iter(flat)
    return zip(it, it)


def spelled(events, word) -> tuple[str, ...]:
    """The names of the events numbered ``word`` in ``events``."""
    return tuple(map(events.__getitem__, word))


def prober(a: Automaton) -> Callable[[int, Optional[int]], Optional[int]]:
    """``probe(q, e)``: the target of ``a``'s edge from ``q`` on event rank ``e``, or None.

    The edge list of ``q`` is scanned on ``q``'s first probe and read through a dict
    from its second on, so it is scanned at most once; ``probe`` alone keeps the dicts."""
    out, probed, dicts = a.out, bytearray(len(a.out)), {}

    def probe(q, e):
        if probed[q]:
            if (edges := dicts.get(q)) is None:
                edges = dicts[q] = dict(pairs(out[q]))
            return edges.get(e)
        probed[q] = 1
        row = out[q]
        events = row[::2]
        return row[2 * events.index(e) + 1] if e in events else None

    return probe


def from_lists(name: str, alphabet: Alphabet, states, out: list, start: int,
               marked: Iterable[int]) -> Automaton:
    """The automaton over ``states`` with ``out`` as it is; the other states by index."""
    states = tuple(states)
    return Automaton(name, alphabet, states, Transitions(states, alphabet, out), states[start],
                     [states[q] for q in marked])


def from_nodes(name: str, alphabet: Alphabet, names: dict, edges: Callable,
               initial, marked: Iterable) -> Automaton:
    """The automaton over ``names``, node -> state name in state order.  ``edges(node)``
    lists ``(event rank, node)`` pairs in alphabet order (an edge into a node that
    ``names`` lacks is dropped); ``marked`` yields nodes."""
    ids = dict(zip(names, range(len(names))))
    out = [[x for e, t in edges(node) if t in ids for x in (e, ids[t])] for node in names]
    return from_lists(name, alphabet, names.values(), out, ids[initial], map(ids.get, marked))


# -- breadth-first search ------------------------------------------------

def explore(start, step: Callable) -> tuple[list, list, Optional[tuple]]:
    """Breadth-first search from ``start``, numbering nodes 0, 1, ... as it finds them.

    ``step(node)`` returns the out-edges of ``node`` as ``(event, target)``
    pairs in tie-break order.  It returns None when the node itself violates
    the property; a ``target`` of None marks a violation on that event.

    Returns ``(nodes, succ, witness)``: the nodes by number, the out-edges of
    each expanded node ``i`` as one flat list ``succ[i] = [event, j, ...]``
    in step order, and the events of a shortest violating string (None if
    there is none), spelled from ``succ`` by :func:`path_to`.  The search
    stops at the first violation, so ``len(nodes)`` counts the nodes checked
    either way.
    """
    nodes, succ, ids = [start], [], {start: 0}
    for node in nodes:  # the queue; nodes past len(succ) are discovered, not expanded
        edges = step(node)
        if edges is None:
            del nodes[len(succ) + 1:]
            return nodes, succ, path_to(succ, len(succ))
        row = []
        for e, t in edges:
            if t is None:
                del nodes[len(succ) + 1:]
                return nodes, succ, path_to(succ, len(succ)) + (e,)
            if (j := ids.get(t)) is None:
                ids[t] = j = len(nodes)
                nodes.append(t)
            row += e, j
        succ.append(row)
    return nodes, succ, None


def path_to(succ: list, i: int) -> tuple:
    """The events by which :func:`explore` first reached node ``i``, from its rows ``succ``.

    The numbering is breadth-first, so the first edge into each node is the
    first in row order whose target is the next number not yet seen.
    """
    via, seen = [], 1  # via[j - 1]: the node and event of the first edge into j
    for p, row in enumerate(succ):
        if seen > i:
            break
        targets = row[1::2]
        while seen in targets:
            via.append((p, row[2 * targets.index(seen)]))
            seen += 1
    path = []
    while i:
        i, e = via[i - 1]
        path.append(e)
    return tuple(reversed(path))


def predecessors(out: list) -> list:
    """``preds[t]``: the sources of the edges into ``t``."""
    preds: list = [[] for _ in out]
    for q, row in enumerate(out):
        for t in row[1::2]:
            preds[t].append(q)
    return preds


def reachable(step: Callable, starts: Iterable[int], n: int) -> bytearray:
    """One flag per node 0..n-1, set for the nodes reachable from ``starts``, where
    ``step(node)`` lists the next nodes."""
    seen = bytearray(n)
    todo = list(starts)
    for q in todo:
        seen[q] = 1
    while todo:
        for p in step(todo.pop()):
            if not seen[p]:
                seen[p] = 1
                todo.append(p)
    return seen


def is_sublanguage(a: Automaton, b: Automaton) -> tuple[bool, Optional[tuple[str, ...]]]:
    """Is L(a) a subset of L(b)?  On failure, a shortest witness in L(a)\\L(b).

    Events of ``a`` absent from ``b``'s alphabet count as undefined in ``b``.
    """
    if a.start is None:
        return True, None
    if b.start is None:
        return False, ()
    to_b, probe = list(map(b.alphabet.rank.get, a.alphabet.events)), prober(b)

    def step(node):
        qa, qb = node
        edges = []
        for e, ta in pairs(a.out[qa]):
            if (tb := probe(qb, to_b[e])) is None:
                edges.append((e, None))
                break
            edges.append((e, (ta, tb)))
        return edges

    _, _, witness = explore((a.start, b.start), step)
    return witness is None, witness and spelled(a.alphabet.events, witness)


# -- JSON model files -----------------------------------------------------

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


def _header(doc: dict, where: str) -> dict:
    """The checked fields of ``doc`` for :class:`Automaton`; :func:`_add_rows` adds the rows."""
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
    initial = _expect(doc["initial"], str, f"{where}.initial") if states else None
    _expect_strings(doc["marked"], f"{where}.marked")
    edges = Transitions(states, alphabet, [[] for _ in states])
    _ends(edges.index, states, initial, doc["marked"], f"{where}.")
    return dict(name=name, alphabet=alphabet, states=states, initial=initial,
                marked=doc["marked"], transitions=edges)


_row_names = itemgetter("from", "on", "to")


def _add_rows(edges: Transitions, rows: Iterable) -> bool:
    """Add the ``(from, on, to)`` names ``rows`` to ``edges.out``; False on a bad or a repeat."""
    out, index, rank = edges.out, edges.index, edges.alphabet.rank
    try:
        for q, e, t in rows:
            row, k = out[index[q]], rank[e]
            j = len(row)
            while j and row[j - 2] > k:  # only rows out of event order move
                j -= 2
            if j and row[j - 2] == k:
                return False
            row[j:j] = k, index[t]
    except (TypeError, KeyError):
        return False
    return True


def automaton_from_dict(doc: dict, where: str = "model") -> Automaton:
    fields, rows = _header(doc, where), doc["transitions"]
    if not _add_rows(fields["transitions"], map(_row_names, rows)):
        raise _bad_row(rows, fields["transitions"], f"{where}.")
    return Automaton(**fields)


def _bad_row(rows: list, edges: Transitions, at: str) -> ModelFormatError:
    """The error, located after ``at``, for the first bad one of the JSON ``rows``."""
    seen = set()
    for i, row in enumerate(rows):
        loc = f"{at}transitions[{i}]"
        try:
            src, on, dst = row["from"], row["on"], row["to"]
        except (TypeError, KeyError):
            return ModelFormatError("each transition needs 'from', 'on', 'to'", loc)
        # States and event ids are strings, so a value of another JSON type
        # is unknown, or unhashable if it is a list or an object.
        try:
            if src not in edges.index:
                return ModelFormatError(f"unknown state {src!r}", loc)
            if dst not in edges.index:
                return ModelFormatError(f"unknown state {dst!r}", loc)
            if on not in edges.alphabet:
                return ModelFormatError(f"unknown event {on!r}", loc)
        except TypeError:
            return ModelFormatError("'from', 'on' and 'to' must be strings", loc)
        if (src, on) in seen:
            return ModelFormatError(f"duplicate transition on {on!r} from {src!r}", loc)
        seen.add((src, on))


# Characters of text read, and of transition rows decoded, at a time.  A slice of
# rows ends at "},\n", which is always structural: a JSON string cannot hold a raw
# newline.
_SLICE_CHARS = 1 << 18
_scan = json.JSONDecoder().scan_once
_skip = json.decoder.WHITESPACE.match
_ROWS = object()  # the value :func:`_field` gives for a transitions array
# Longer than any literal (-Infinity) or escaped pair (\ud83d\ude00) that a read can
# cut short: a decode error further from the end of the text held is not a cut.
_CUT_CHARS = 16


def _past(s: str, idx: int, token: str) -> int:
    """The index past ``token``, which follows ``s[idx]`` and any whitespace."""
    idx = _skip(s, idx).end()
    if not s.startswith(token, idx):
        raise json.JSONDecodeError(f"Expecting {token!r}", s, idx)
    return idx + len(token)


def _cut_short(exc: Exception, s: str) -> bool:
    """Can the end of ``s`` have caused ``exc``, an error of :func:`_field` on ``s``?

    Only an unterminated string, or an error within ``_CUT_CHARS`` of the end."""
    if isinstance(exc, StopIteration):  # the scanner found no value at ``exc.value``
        return exc.value >= len(s) - _CUT_CHARS
    return exc.msg.startswith("Unterminated string") or exc.pos >= len(s) - _CUT_CHARS


def _field(s: str, idx: int, sep: str) -> tuple:
    """The top-level field after ``sep`` ("{" or ",") at ``s[idx]``: ``(key, value,
    index past it and any whitespace)``.  The key is None past the closing brace; the
    value is ``_ROWS``, and the index at the "[", for a transitions array."""
    if sep == "," and s.startswith("}", idx := _skip(s, idx).end()):
        return None, None, idx + 1
    key, idx = json.decoder.scanstring(s, _past(s, _past(s, idx, sep), '"'))
    idx = _skip(s, _past(s, idx, ":")).end()
    if key == "transitions" and s.startswith("[", idx):
        return key, _ROWS, idx
    value, idx = _scan(s, idx)
    return key, value, _skip(s, idx).end()


def _add_slice(edges: Transitions, text: str) -> None:
    """Add the rows of the JSON array ``text`` to ``edges``; ValueError if it is not one.

    A function of its own, so that a slice's rows are freed before the next is read."""
    rows, end = _scan(text, 0)
    if end != len(text) or not _add_rows(edges, map(_row_names, rows)):
        raise ValueError("not a slice of rows")


def _more(fh, s: str, keep: int) -> str | None:
    """``s[keep:]`` and the next read of ``fh``: one slice or, if longer, as many
    characters as ``s[keep:]``, so a field or row cut short costs reads logarithmic in
    its length; None at the end of the file."""
    s = s[keep:]
    return s + more if (more := fh.read(max(_SLICE_CHARS, len(s)))) else None


def _decode_rows(fh, s: str, edges: Transitions) -> tuple[str, int]:
    """Add the rows of the array that ``s`` starts, and ``fh`` goes on, to ``edges``, a
    slice at a time; the rest of the file and the index past the array in it."""
    # ``s`` starts at the "[", then at the "," before the next row.  A cut does not
    # show where the array ends, so the file is read to its end.
    while True:
        if (cut := s.rfind("},\n")) > 0:
            _add_slice(edges, f"[{s[1:cut + 1]}]")
            s = s[cut + 1:]
        if (more := _more(fh, s, 0)) is None:
            break
        s = more
    if s.startswith(","):
        # The last cut may be a trailing comma, which JSON does not allow.
        if s.startswith("]", _skip(s, 1).end()):
            raise ValueError("a comma after the last row")
        s = "[" + s[1:]
    rows, idx = _scan(s, 0)  # the rest of the file, in place
    if not _add_rows(edges, map(_row_names, rows)):
        raise ValueError("bad row")
    return s, idx


def _decode_streamed(fh, where: str) -> Automaton:
    """The model in the text file ``fh``, read a slice at a time: a top-level field at a
    time, and its rows a slice at a time.

    Takes one object, each key once, with every field that :func:`_header`
    checks before ``transitions``, that loads without error.
    """
    doc, fields, s, idx, sep = {}, None, "", 0, "{"
    while True:
        # A field that ends at the end of the text held, or fails where a cut can
        # make it fail, may be cut short: it is tried again from its start with
        # more text, unless the file has ended.  Any other error is final.
        try:
            key, value, end = _field(s, idx, sep)
            complete = end < len(s)
        except (json.JSONDecodeError, StopIteration) as exc:
            if not _cut_short(exc, s):
                raise
            complete = False
        if not complete:
            if (more := _more(fh, s, idx)) is not None:
                s, idx = more, 0
                continue
            key, value, end = _field(s, idx, sep)
        if key is None:
            break
        if key in doc:
            raise ValueError("repeated key")
        if value is _ROWS:
            doc[key] = []  # a list, as the header check requires; the rows go below
            fields = _header(doc, where)
            s = s[end:]  # the header's text is not held while the rows are read
            s, end = _decode_rows(fh, s, fields["transitions"])
        else:
            doc[key] = value
        idx, sep = end, ","
    if fields is None:
        raise ValueError("no rows")
    if _skip(s, end).end() < len(s):  # the rows were read to the end of the file
        raise ValueError("data after the object")
    return Automaton(**fields)


def load_automaton(path) -> Automaton:
    """The model in the JSON file at ``path``; ModelFormatError if it is not one.

    A file longer than one slice and laid out header first is read, and its rows
    decoded, a slice at a time.  Any other file, and any file with an error, is
    decoded as one document, as it always was, so every diagnostic is that of
    :func:`automaton_from_dict`.
    """
    where = str(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                if os.fstat(fh.fileno()).st_size > _SLICE_CHARS:
                    return _decode_streamed(fh, where)
            except (ValueError, StopIteration, RecursionError):  # not taken, whatever the reason
                fh.seek(0)
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # RFC 8259: JSON exchanged between systems must be UTF-8.  The decoder
        # recurses once per nesting level, so very deep nesting overflows.
        raise ModelFormatError(f"invalid JSON: {exc}", where) from None
    return automaton_from_dict(doc, where=where)


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
    """Write ``a`` as ``json.dumps(doc, indent=2)`` and a newline would, a row at a time.

    ``doc`` has ``name``, ``events`` (``id``, ``controllable``), ``states``, ``initial``,
    ``marked`` and ``transitions``: ``from``, ``on``, ``to`` per edge, in ``out`` order.
    """
    states = list(map(encode_basestring_ascii, a.states))
    events = list(map(encode_basestring_ascii, a.alphabet.events))
    with open(path, "w", encoding="utf-8") as fh:
        # The name and the few events, without the closing "\n}".
        fh.write(json.dumps({"name": a.name, "events": [
            {"id": e, "controllable": c} for e, c in a.alphabet.entries]}, indent=2)[:-2])
        fh.write(',\n  "states": ')
        fh.writelines(json_list(states, 1))
        fh.write(f',\n  "initial": {json.dumps(a.initial)},\n  "marked": ')
        fh.writelines(json_list(map(encode_basestring_ascii, a.marked), 1))
        fh.write(',\n  "transitions": ')
        fh.writelines(json_list((f'{{\n      "from": {s},\n      "on": {events[e]},\n'
                                 f'      "to": {states[t]}\n    }}'
                                 for s, row in zip(states, a.out) for e, t in pairs(row)), 1))
        fh.write("\n}\n")
