"""Reference corpus: a two-product flexible manufacturing cell.

Eight machines (three conveyors C1-C3, a robot R, a lathe L, a milling
machine M, a painting machine P, an assembly machine A) connected through
single-slot buffers B1-B8.  The buffers carry no automata of their own;
they appear only in event descriptions as pick/place targets.

Each machine is one transition table, ``_MACHINES[kind]``, of
``(from, event, to, description)`` rows.  The machine's automaton, its
alphabet and the corpus event table (``EVENT_TABLE``, written to
``events.tsv``) are derived from it: the flat symbol of the ``i``-th event of
machine ``kind`` is ``e{kind}_{i}``.  The two supervisors are tables of
``(from, event, to)`` rows over their own alphabets, built by the same code.

Two controllability partitions ship with the corpus and share event ids:

* ``sec28`` (default): the conveyor move commands and the assembly
  completion signals are uncontrollable.
* ``sec2`` (alternate): the conveyor load signals and the assembly
  completion signals are uncontrollable.

The two partitions are genuinely different inputs; the controllability
checker treats neither as the corrected form of the other.
"""

from __future__ import annotations

import os
from dataclasses import replace

from . import PARTITIONS
from .automata import Alphabet, Automaton, save_automaton
from .compose import parallel

_UNCONTROLLABLE = {
    "sec28": frozenset({"C1.move", "C2.move", "C3.move", "A.done1", "A.done2"}),
    "sec2": frozenset({"C1.load", "C2.load", "C3.load", "A.done1", "A.done2"}),
}

# Each machine's transition table: (from, event, to, description) rows over
# states numbered from 1, where state 1 is initial and the only marked state.
# Each event labels exactly one row; the machine's alphabet is its events in
# row order, and the machines in table order give the corpus event order.
_MACHINES = {
    "C1": ((1, "C1.load", 2, "product loaded onto conveyor 1"),
           (2, "C1.move", 1, "conveyor 1 moves the product to buffer B1")),
    "C2": ((1, "C2.load", 2, "product loaded onto conveyor 2"),
           (2, "C2.move", 1, "conveyor 2 moves the product to buffer B2")),
    "C3": ((1, "C3.load", 2, "product loaded onto conveyor 3"),
           (2, "C3.move", 1, "conveyor 3 moves the product to buffer B8")),
    "R": tuple((1, f"R.pick{k}", 2, f"robot picks a product from buffer B{k}")
               for k in range(1, 8))
         + tuple((2, f"R.place{k}", 1, f"robot places a product into buffer B{k}")
                 for k in range(1, 8)),
    "L": ((1, "L.start1", 2, "lathe loads a category-1 product and starts machining"),
          (1, "L.start2", 2, "lathe loads a category-2 product and starts machining"),
          (2, "L.done1", 1, "lathe finishes machining the category-1 product"),
          (2, "L.done2", 1, "lathe finishes machining the category-2 product")),
    "M": ((1, "M.start", 2, "milling machine loads a product and starts machining"),
          (2, "M.done", 1, "milling machine finishes machining the product")),
    "P": ((1, "P.start", 2, "painting machine loads a product and starts painting"),
          (2, "P.done", 1, "painting machine finishes painting the product")),
    "A": ((1, "A.on", 2, "assembly machine starts up"),
          (2, "A.fromB5", 3, "assembly machine assembles a product from buffer B5"),
          (2, "A.fromB6", 3, "assembly machine assembles a product from buffer B6"),
          (2, "A.fromB7", 3, "assembly machine assembles a product from buffer B7"),
          (3, "A.done1", 1, "category-1 assembly completed"),
          (3, "A.done2", 1, "category-2 assembly completed")),
}

MACHINE_KINDS = tuple(_MACHINES)

# (canonical id, flat symbol, description); order is the corpus event order.
EVENT_TABLE: tuple[tuple[str, str, str], ...] = tuple(
    (event, f"e{kind}_{i}", description) for kind, rows in _MACHINES.items()
    for i, (_, event, _, description) in enumerate(rows, 1))

EVENT_IDS = frozenset(row[0] for row in EVENT_TABLE)

_SPEC_TEXT = {
    1: ("pc((C1.load R.pick1 R.place3 M.start R.pick3 R.place4 L.start1 R.pick4 "
        "(R.place6 + R.place7 C3.load P.start C3.load) A.on)*)"),
    2: ("pc((C2.load R.pick2 R.place4 L.start2 R.pick4 "
        "(R.place5 + R.place7 C3.load P.start C3.load) A.on)*)"),
}

# Each supervisor as (name, alphabet, (from, event, to) rows over states
# numbered from 1); state 1 is initial and every state is marked.
_SUPERVISORS = {
    1: ("S1",
        ("C1.load", "C3.load", "R.pick1", "R.pick3", "R.pick4", "R.place4", "R.place3",
         "R.place6", "R.place7", "M.start", "L.start1", "P.start", "A.on"),
        ((1, "C1.load", 2), (2, "R.pick1", 3), (3, "R.place3", 4), (4, "M.start", 5),
         (5, "R.pick3", 6), (6, "R.place4", 7), (7, "L.start1", 8), (8, "R.pick4", 9),
         (9, "R.place6", 10), (9, "R.place7", 11), (10, "A.on", 1),
         (11, "C3.load", 12), (12, "P.start", 13), (13, "C3.load", 14), (14, "A.on", 1))),
    2: ("S2",
        ("C2.load", "C3.load", "R.pick2", "R.pick4", "R.place4", "R.place5", "R.place7",
         "L.start2", "P.start", "A.on"),
        ((1, "C2.load", 2), (2, "R.pick2", 3), (3, "R.place4", 4), (4, "L.start2", 5),
         (5, "R.pick4", 6), (6, "R.place5", 7), (6, "R.place7", 8), (7, "A.on", 1),
         (8, "C3.load", 9), (9, "P.start", 10), (10, "C3.load", 11), (11, "A.on", 1))),
}


def _uncontrollable(partition: str) -> frozenset:
    """The uncontrollable events of a named corpus partition."""
    try:
        return _UNCONTROLLABLE[partition]
    except (KeyError, TypeError):  # an unhashable partition is unknown too
        raise ValueError(f"unknown partition {partition!r}") from None


def make_alphabet(event_ids, partition: str = "sec28") -> Alphabet:
    uc = _uncontrollable(partition)
    return Alphabet(tuple((e, e not in uc) for e in event_ids))


def apply_partition(a: Automaton, partition: str) -> Automaton:
    """Re-flag an automaton's alphabet per a named corpus partition.

    Events outside the corpus keep their existing flag.
    """
    return replace(a, alphabet=a.alphabet.reflagged(
        _uncontrollable(partition) | (set(a.alphabet.uncontrollable) - EVENT_IDS)))


def _automaton(name: str, events, rows, partition: str, all_marked: bool) -> Automaton:
    """The automaton of ``(from, event, to, ...)`` rows, states named ``q{name}_{i}``."""
    states = tuple(f"q{name}_{i}" for i in range(1, max(max(r[0], r[2]) for r in rows) + 1))
    return Automaton(name=name, alphabet=make_alphabet(events, partition), states=states,
                     transitions={(states[q - 1], e): states[t - 1] for q, e, t, *_ in rows},
                     initial=states[0], marked=states if all_marked else states[:1])


def build(kind: str, partition: str = "sec28") -> Automaton:
    """One machine automaton, with canonical state and event names."""
    if kind not in _MACHINES:
        raise ValueError(f"unknown machine kind {kind!r}")
    rows = _MACHINES[kind]
    return _automaton(kind, [r[1] for r in rows], rows, partition, all_marked=False)


def build_total(partition: str = "sec28") -> Automaton:
    """Parallel composition of the 8 machines, in corpus order."""
    product = parallel([build(k, partition) for k in MACHINE_KINDS])
    return product.renamed("G")


def spec_text(category: int) -> str:
    """Desired-behavior expression for product category 1 or 2."""
    try:
        return _SPEC_TEXT[category]
    except KeyError:
        raise ValueError(f"unknown category {category!r}") from None


def build_supervisor(category: int, partition: str = "sec28") -> Automaton:
    """Supervisor automaton for one product category; all states marked."""
    try:
        name, events, rows = _SUPERVISORS[category]
    except (KeyError, TypeError):  # an unhashable category is unknown too
        raise ValueError(f"unknown category {category!r}") from None
    return _automaton(name, events, rows, partition, all_marked=True)


def emit(outdir: str) -> list[str]:
    """Write the corpus to a directory; returns the written file names."""
    os.makedirs(outdir, exist_ok=True)
    models = {f"{kind}.json": build(kind) for kind in MACHINE_KINDS}
    models.update({"G_total.json": build_total("sec28"),
                   "G_total_sec2.json": build_total("sec2").renamed("G_sec2"),
                   "S1.json": build_supervisor(1), "S2.json": build_supervisor(2)})
    for fname, a in models.items():
        save_automaton(a, os.path.join(outdir, fname))
    written = list(models)
    for cat in (1, 2):
        fname = f"KD{cat}.expr"
        with open(os.path.join(outdir, fname), "w", encoding="utf-8") as fh:
            fh.write(f"# desired behavior, product category {cat}\n")
            fh.write(spec_text(cat) + "\n")
        written.append(fname)
    with open(os.path.join(outdir, "events.tsv"), "w", encoding="utf-8") as fh:
        fh.write("\t".join(["id", "symbol", "description",
                             *(f"controllable_{p}" for p in PARTITIONS)]) + "\n")
        for row in EVENT_TABLE:
            flags = ("false" if row[0] in _UNCONTROLLABLE[p] else "true" for p in PARTITIONS)
            fh.write("\t".join([*row, *flags]) + "\n")
    written.append("events.tsv")
    return written
