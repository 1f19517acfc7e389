"""Reference corpus: a two-product flexible manufacturing cell.

Eight machines (three conveyors C1-C3, a robot R, a lathe L, a milling
machine M, a painting machine P, an assembly machine A) connected through
single-slot buffers B1-B8.  The buffers carry no automata of their own;
they appear only in event descriptions as pick/place targets.

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

MACHINE_KINDS = ("C1", "C2", "C3", "R", "L", "M", "P", "A")

_UNCONTROLLABLE = {
    "sec28": frozenset({"C1.move", "C2.move", "C3.move", "A.done1", "A.done2"}),
    "sec2": frozenset({"C1.load", "C2.load", "C3.load", "A.done1", "A.done2"}),
}

# (canonical id, flat symbol, description); order is the corpus event order.
EVENT_TABLE: tuple[tuple[str, str, str], ...] = tuple(
    [
        ("C1.load", "eC1_1", "product loaded onto conveyor 1"),
        ("C1.move", "eC1_2", "conveyor 1 moves the product to buffer B1"),
        ("C2.load", "eC2_1", "product loaded onto conveyor 2"),
        ("C2.move", "eC2_2", "conveyor 2 moves the product to buffer B2"),
        ("C3.load", "eC3_1", "product loaded onto conveyor 3"),
        ("C3.move", "eC3_2", "conveyor 3 moves the product to buffer B8"),
    ]
    + [(f"R.pick{k}", f"eR_{k}", f"robot picks a product from buffer B{k}")
       for k in range(1, 8)]
    + [(f"R.place{k}", f"eR_{k + 7}", f"robot places a product into buffer B{k}")
       for k in range(1, 8)]
    + [
        ("L.start1", "eL_1", "lathe loads a category-1 product and starts machining"),
        ("L.start2", "eL_2", "lathe loads a category-2 product and starts machining"),
        ("L.done1", "eL_3", "lathe finishes machining the category-1 product"),
        ("L.done2", "eL_4", "lathe finishes machining the category-2 product"),
        ("M.start", "eM_1", "milling machine loads a product and starts machining"),
        ("M.done", "eM_2", "milling machine finishes machining the product"),
        ("P.start", "eP_1", "painting machine loads a product and starts painting"),
        ("P.done", "eP_2", "painting machine finishes painting the product"),
        ("A.on", "eA_1", "assembly machine starts up"),
        ("A.fromB5", "eA_2", "assembly machine assembles a product from buffer B5"),
        ("A.fromB6", "eA_3", "assembly machine assembles a product from buffer B6"),
        ("A.fromB7", "eA_4", "assembly machine assembles a product from buffer B7"),
        ("A.done1", "eA_5", "category-1 assembly completed"),
        ("A.done2", "eA_6", "category-2 assembly completed"),
    ]
)

EVENT_IDS = frozenset(row[0] for row in EVENT_TABLE)

_MACHINE_EVENTS = {
    "C1": ("C1.load", "C1.move"),
    "C2": ("C2.load", "C2.move"),
    "C3": ("C3.load", "C3.move"),
    "R": tuple(f"R.pick{k}" for k in range(1, 8))
         + tuple(f"R.place{k}" for k in range(1, 8)),
    "L": ("L.start1", "L.start2", "L.done1", "L.done2"),
    "M": ("M.start", "M.done"),
    "P": ("P.start", "P.done"),
    "A": ("A.on", "A.fromB5", "A.fromB6", "A.fromB7", "A.done1", "A.done2"),
}

_SPEC_TEXT = {
    1: ("pc((C1.load R.pick1 R.place3 M.start R.pick3 R.place4 L.start1 R.pick4 "
        "(R.place6 + R.place7 C3.load P.start C3.load) A.on)*)"),
    2: ("pc((C2.load R.pick2 R.place4 L.start2 R.pick4 "
        "(R.place5 + R.place7 C3.load P.start C3.load) A.on)*)"),
}

_S1_ALPHABET = ("C1.load", "C3.load", "R.pick1", "R.pick3", "R.pick4",
                "R.place4", "R.place3", "R.place6", "R.place7",
                "M.start", "L.start1", "P.start", "A.on")

_S1_TRANSITIONS = (
    (1, "C1.load", 2), (2, "R.pick1", 3), (3, "R.place3", 4), (4, "M.start", 5),
    (5, "R.pick3", 6), (6, "R.place4", 7), (7, "L.start1", 8), (8, "R.pick4", 9),
    (9, "R.place6", 10), (9, "R.place7", 11), (10, "A.on", 1),
    (11, "C3.load", 12), (12, "P.start", 13), (13, "C3.load", 14), (14, "A.on", 1),
)

_S2_ALPHABET = ("C2.load", "C3.load", "R.pick2", "R.pick4",
                "R.place4", "R.place5", "R.place7",
                "L.start2", "P.start", "A.on")

_S2_TRANSITIONS = (
    (1, "C2.load", 2), (2, "R.pick2", 3), (3, "R.place4", 4), (4, "L.start2", 5),
    (5, "R.pick4", 6), (6, "R.place5", 7), (6, "R.place7", 8), (7, "A.on", 1),
    (8, "C3.load", 9), (9, "P.start", 10), (10, "C3.load", 11), (11, "A.on", 1),
)


def make_alphabet(event_ids, partition: str = "sec28") -> Alphabet:
    uc = _UNCONTROLLABLE[partition]
    return Alphabet(tuple((e, e not in uc) for e in event_ids))


def apply_partition(a: Automaton, partition: str) -> Automaton:
    """Re-flag an automaton's alphabet per a named corpus partition.

    Events outside the corpus keep their existing flag.
    """
    return replace(a, alphabet=a.alphabet.reflagged(
        _UNCONTROLLABLE[partition] | (set(a.alphabet.uncontrollable) - EVENT_IDS)))


def build(kind: str, partition: str = "sec28") -> Automaton:
    """One machine automaton, with canonical state and event names."""
    if kind not in _MACHINE_EVENTS:
        raise ValueError(f"unknown machine kind {kind!r}")
    alphabet = make_alphabet(_MACHINE_EVENTS[kind], partition)
    if kind in ("C1", "C2", "C3"):
        s1, s2 = f"q{kind}_1", f"q{kind}_2"
        trans = {(s1, f"{kind}.load"): s2, (s2, f"{kind}.move"): s1}
        states = (s1, s2)
    elif kind == "R":
        s1, s2 = "qR_1", "qR_2"
        trans = {(s1, f"R.pick{k}"): s2 for k in range(1, 8)}
        trans.update({(s2, f"R.place{k}"): s1 for k in range(1, 8)})
        states = (s1, s2)
    elif kind == "L":
        s1, s2 = "qL_1", "qL_2"
        trans = {(s1, "L.start1"): s2, (s1, "L.start2"): s2,
                 (s2, "L.done1"): s1, (s2, "L.done2"): s1}
        states = (s1, s2)
    elif kind == "M":
        s1, s2 = "qM_1", "qM_2"
        trans = {(s1, "M.start"): s2, (s2, "M.done"): s1}
        states = (s1, s2)
    elif kind == "P":
        s1, s2 = "qP_1", "qP_2"
        trans = {(s1, "P.start"): s2, (s2, "P.done"): s1}
        states = (s1, s2)
    else:  # A
        s1, s2, s3 = "qA_1", "qA_2", "qA_3"
        trans = {(s1, "A.on"): s2,
                 (s2, "A.fromB5"): s3, (s2, "A.fromB6"): s3, (s2, "A.fromB7"): s3,
                 (s3, "A.done1"): s1, (s3, "A.done2"): s1}
        states = (s1, s2, s3)
    return Automaton(name=kind, alphabet=alphabet, states=states,
                     transitions=trans, initial=states[0], marked=(states[0],))


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
    if category == 1:
        name, prefix, alph, rows, n = "S1", "qS1", _S1_ALPHABET, _S1_TRANSITIONS, 14
    elif category == 2:
        name, prefix, alph, rows, n = "S2", "qS2", _S2_ALPHABET, _S2_TRANSITIONS, 11
    else:
        raise ValueError(f"unknown category {category!r}")
    states = tuple(f"{prefix}_{i}" for i in range(1, n + 1))
    trans = {(f"{prefix}_{a}", e): f"{prefix}_{b}" for a, e, b in rows}
    return Automaton(name=name, alphabet=make_alphabet(alph, partition),
                     states=states, transitions=trans,
                     initial=states[0], marked=states)


def emit(outdir: str) -> list[str]:
    """Write the corpus to a directory; returns the written file names."""
    os.makedirs(outdir, exist_ok=True)
    written = []

    def _write_automaton(fname: str, a: Automaton):
        save_automaton(a, os.path.join(outdir, fname))
        written.append(fname)

    for kind in MACHINE_KINDS:
        _write_automaton(f"{kind}.json", build(kind))
    _write_automaton("G_total.json", build_total("sec28"))
    _write_automaton("G_total_sec2.json", build_total("sec2").renamed("G_sec2"))
    _write_automaton("S1.json", build_supervisor(1))
    _write_automaton("S2.json", build_supervisor(2))
    for cat in (1, 2):
        fname = f"KD{cat}.expr"
        with open(os.path.join(outdir, fname), "w", encoding="utf-8") as fh:
            fh.write(f"# desired behavior, product category {cat}\n")
            fh.write(spec_text(cat) + "\n")
        written.append(fname)
    with open(os.path.join(outdir, "events.tsv"), "w", encoding="utf-8") as fh:
        fh.write("id\tsymbol\tdescription\tcontrollable_sec28\tcontrollable_sec2\n")
        for eid, sym, desc in EVENT_TABLE:
            c28 = eid not in _UNCONTROLLABLE["sec28"]
            c2 = eid not in _UNCONTROLLABLE["sec2"]
            fh.write(f"{eid}\t{sym}\t{desc}\t{str(c28).lower()}\t{str(c2).lower()}\n")
    written.append("events.tsv")
    return written
