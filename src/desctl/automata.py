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
from itertools import compress
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


def free_delimiter(base: str, names: Iterable[str]) -> str:
    """``base``, doubled until none of ``names`` contains it.

    Every composite state name joins its members with such a delimiter: ``|``
    over the state names of a product's components, ``+`` over the states of an
    automaton whose blocks are merged."""
    names = tuple(names)
    while any(base in q for q in names):
        base += base
    return base


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
# The JSON shape of a model file's header (see check_shape); _add_rows checks the rows.
_HEADER = {"name": str, "events": [{"id": str, "controllable": bool}], "states": [str],
           "initial": (str, type(None)), "marked": [str], "transitions": list}


def check_shape(value, shape, where: str) -> None:
    """ModelFormatError, located, at the first part of ``value`` not of the JSON ``shape``.

    A shape is a key of ``_JSON_KINDS``, a dict of the shapes of required fields, or
    a one-item list holding the shape of every item.  Kinds are exact JSON kinds, so
    ``true`` is not an integer.  The items of a list of one kind, such as a model's
    many state names, are checked in one pass at C speed and located only on failure.
    """
    kind = shape if isinstance(shape, (type, tuple)) else type(shape)
    if type(value) not in (kind if isinstance(kind, tuple) else (kind,)):
        raise ModelFormatError(f"expected {_JSON_KINDS[kind]}, found {type(value).__name__}",
                               where)
    for key, field in shape.items() if isinstance(shape, dict) else ():
        if key not in value:
            raise ModelFormatError(f"missing field {key!r}", where)
        check_shape(value[key], field, f"{where}.{key}")
    if isinstance(shape, list) and not (isinstance(shape[0], type)
                                        and set(map(type, value)) <= {shape[0]}):
        for i, item in enumerate(value):
            check_shape(item, shape[0], f"{where}[{i}]")


def _header(doc: dict, where: str) -> dict:
    """The checked fields of ``doc`` for :class:`Automaton`; :func:`_add_rows` adds the rows."""
    check_shape(doc, _HEADER, where)
    try:
        alphabet = Alphabet(tuple(map(itemgetter("id", "controllable"), doc["events"])))
    except ModelFormatError as exc:
        raise ModelFormatError(str(exc), f"{where}.events") from None
    states, initial, marked = tuple(doc["states"]), doc["initial"], doc["marked"]
    edges = Transitions(states, alphabet, [[] for _ in states])
    _ends(edges.index, states, initial, marked, f"{where}.")
    return dict(name=doc["name"], alphabet=alphabet, states=states, initial=initial,
                marked=marked, transitions=edges)


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
_skip = json.decoder.WHITESPACE.match
# The key of the rows and the "[" that opens them.  The key's quote must not follow
# a backslash: a quote after one is escaped or closes a string.  The check comes
# after the key's text, so that the search still looks for that text first.
_ROWS_KEY = re.compile(r'"transitions"(?<!\\"transitions")[ \t\n\r]*:[ \t\n\r]*\[')


def _add_slice(edges: Transitions, text: str) -> None:
    """Add the rows of the JSON array ``text`` to ``edges``; ValueError if it is not one.

    A function of its own, so that a slice's rows are freed before the next is read.
    A row is decoded a JSON level shallower than in the whole document, from a
    Python frame two deeper, so it can hit the recursion limit no later."""
    if not _add_rows(edges, map(_row_names, json.loads(text))):
        raise ValueError("not a slice of rows")


def _decode_rows(fh, s: str, edges: Transitions) -> None:
    """Add the rows of the array that ``s`` starts, and ``fh`` goes on, to ``edges``, a
    slice at a time; ValueError unless "}" and whitespace alone follow the array."""
    # ``s`` starts at the "[", then at the "," before the next row.  A cut does not
    # show where the array ends, so the file is read to its end.
    while True:
        if (cut := s.rfind("},\n")) > 0:
            _add_slice(edges, f"[{s[1:cut + 1]}]")
            s = s[cut + 1:]
        if not (more := fh.read(max(_SLICE_CHARS, len(s)))):
            break
        s += more
    if s.startswith(","):
        # The last cut may be a trailing comma, which JSON does not allow.
        if s.startswith("]", _skip(s, 1).end()):
            raise ValueError("a comma after the last row")
        s = "[" + s[1:]
    # The rest of the file: the last rows, then the "}" that closes the object.
    if not (s := s.rstrip(" \t\n\r")).endswith("}"):
        raise ValueError("data after the rows")
    s = s[:-1]  # rebound, so that the text is held once while its rows are decoded
    _add_slice(edges, s)


def _decode_streamed(fh, where: str) -> Automaton:
    """The model in the text file ``fh``: the text before the rows, read until it
    holds the rows key and decoded as one document, then the rows a slice at a time.

    Takes one object whose ``transitions`` array comes last; any other text, and
    any error, raises ValueError or RecursionError.
    """
    # Each read is as long as the text held, so searching it all again after
    # each read costs at most about twice the header.
    s = ""
    while not (m := _ROWS_KEY.search(s)):
        if not (more := fh.read(max(_SLICE_CHARS, len(s)))):
            raise ValueError("no rows")
        s += more
    # The header decodes only if it is the whole document with empty rows:
    # - A match outside the top-level object never reaches _header's output.
    #   The quote it starts at is not escaped, so it either closes a string,
    #   after which ``transitions"`` does not decode, or opens a key; a key
    #   nested in a value leaves that value unclosed.
    # - Repeated header keys agree: json.loads keeps the last value of a key,
    #   as json.load does, and _decode_rows lets nothing but "}" follow the rows.
    # - The header is decoded at the same JSON depth as in the whole document,
    #   by a json.loads called as deep as json.load calls it, so it cannot
    #   decode where the whole document overflows the recursion limit.
    fields = _header(json.loads(s[:m.start()] + '"transitions": []}'), where)
    s = s[m.end() - 1:]
    del m  # the match holds the header's text, which is not kept while the rows are read
    _decode_rows(fh, s, fields["transitions"])
    return Automaton(**fields)


def load_automaton(path) -> Automaton:
    """The model in the JSON file at ``path``; ModelFormatError if it is not one.

    A file longer than one slice whose rows come last is read a slice at a time:
    the text before the rows is decoded as one document, and the rows a slice at
    a time.  Any other file, and any file with an error, is decoded as one
    document, as it always was, so every diagnostic is that of
    :func:`automaton_from_dict`.
    """
    where = str(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                if os.fstat(fh.fileno()).st_size > _SLICE_CHARS:
                    return _decode_streamed(fh, where)
            except (ValueError, RecursionError):  # not taken, whatever the reason
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
