import copy
import io
import json
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desctl import automata, fms
from desctl.automata import (Alphabet, Automaton, BadQueryError,
                             ModelFormatError, automaton_from_dict,
                             empty_automaton, explore, from_lists, from_nodes,
                             is_sublanguage, load_automaton, pairs, prober,
                             save_automaton)
from desctl.control import check_nonconflicting
from oracles import (all_strings, automaton_to_dict, load_outcome, load_whole,
                     random_automaton, validate, walk_generated, walk_marked,
                     weird_automaton)


def chain(marked=("q1",)):
    """q1 --a--> q2, nothing out of q2."""
    return Automaton(
        name="chain",
        alphabet=Alphabet((("a", True),)),
        states=("q1", "q2"),
        transitions={("q1", "a"): "q2"},
        initial="q1",
        marked=marked,
    )


def assert_rejected(message: str, *fields) -> None:
    """The constructor raises ModelFormatError ``message``, located as it says."""
    with pytest.raises(ModelFormatError) as err:
        Automaton(*fields)
    assert str(err.value) == message
    assert err.value.where == message.split(": ", 1)[0]


class TestValidate:
    def test_conveyor_is_valid(self):
        assert validate(fms.build("C1")) == []

    def test_initial_not_in_states(self):
        assert_rejected("initial: initial state 'nope' not in states",
                        "bad", Alphabet((("a", True),)), ("q1",), {}, "nope", ())

    def test_marked_not_in_states(self):
        assert_rejected("marked[0]: unknown state 'zz'",
                        "bad", Alphabet((("a", True),)), ("q1",), {}, "q1", ("zz",))

    def test_transition_event_outside_alphabet(self):
        assert_rejected("transitions[0]: unknown event 'b'", "bad", Alphabet((("a", True),)),
                        ("q1",), {("q1", "b"): "q1"}, "q1", ())

    def test_empty_automaton_is_valid(self):
        assert validate(empty_automaton("e", Alphabet(()))) == []


class TestAlphabet:
    def test_duplicate_event_rejected(self):
        with pytest.raises(ModelFormatError):
            Alphabet((("a", True), ("a", False)))

    @pytest.mark.parametrize("bad", ["", "1a", "a b", "a-b", ".a"])
    def test_bad_event_ids(self, bad):
        with pytest.raises(ModelFormatError):
            Alphabet(((bad, True),))

    def test_flag_of_an_unknown_event_is_a_bad_query(self):
        with pytest.raises(BadQueryError):
            fms.build_total().alphabet.is_controllable("zz")

    def test_partition_is_exhaustive_and_disjoint(self):
        alph = fms.build_total().alphabet
        c, uc = set(alph.controllable), set(alph.uncontrollable)
        assert c | uc == set(alph.events)
        assert not (c & uc)


class TestActiveAndStep:
    def test_conveyor_active(self):
        assert fms.build("C1").active("qC1_1") == ("C1.load",)

    def test_robot_active_is_seven_picks(self):
        assert fms.build("R").active("qR_1") == tuple(
            f"R.pick{k}" for k in range(1, 8))

    def test_assembly_active(self):
        assert fms.build("A").active("qA_2") == ("A.fromB5", "A.fromB6", "A.fromB7")

    def test_active_unknown_state(self):
        with pytest.raises(BadQueryError):
            fms.build("C1").active("nope")

    def test_step_defined(self):
        assert fms.build("C1").transitions.get(("qC1_1", "C1.load")) == "qC1_2"
        assert fms.build("A").transitions.get(("qA_3", "A.done1")) == "qA_1"


class TestEdgesOf:
    def test_alphabet_order_whatever_the_map_order(self):
        events = ("b", "c", "a")
        a = Automaton("a", Alphabet(tuple((e, True) for e in events)), ("q", "r"),
                      {("q", "a"): "r", ("r", "b"): "q", ("q", "c"): "q", ("q", "b"): "r"},
                      "q", ("q",))
        assert a.out == [[0, 1, 1, 0, 2, 1], [0, 0]]
        assert list(a.transitions.items()) == [
            (("q", "b"), "r"), (("q", "c"), "q"), (("q", "a"), "r"), (("r", "b"), "q")]

    def test_from_nodes_drops_edges_into_unnamed_nodes(self):
        succ = [[(0, 1), (1, 2)], [(0, 0)], [(0, 0)]]
        a = from_nodes("a", Alphabet((("x", True), ("y", True))), {0: "n0", 1: "n1"},
                       succ.__getitem__, 0, [1])
        assert a.states == ("n0", "n1") and a.marked == ("n1",)
        assert a.transitions == {("n0", "x"): "n1", ("n1", "x"): "n0"}
        assert validate(a) == []


def test_probe_answers_as_a_dict_of_the_edge_list():
    # Seeded automata with states of 0 to 40 edges, and one state with a
    # self-loop on each of 2,000 events.  Each state's first, second and later
    # probes are interleaved over events with and without an edge there, and
    # over None, the rank of an event that the automaton does not declare.
    rng = random.Random(22)
    cases = [from_lists("loops", Alphabet(tuple((f"e{i}", True) for i in range(2000))),
                        ("q",), [[x for e in range(2000) for x in (e, 0)]], 0, [])]
    for _ in range(30):
        n, k = rng.randint(1, 12), rng.randint(1, 40)
        out = [[x for e in sorted(rng.sample(range(k), rng.randint(0, k)))
                for x in (e, rng.randrange(n))] for _ in range(n)]
        cases.append(from_lists("r", Alphabet(tuple((f"e{i}", True) for i in range(k))),
                                [f"q{i}" for i in range(n)], out, 0, []))
    probes, answers = Counter(), Counter()
    for a in cases:
        probe, times = prober(a), Counter()
        for _ in range(300):
            q = rng.randrange(len(a.states))
            e = rng.choice([None, *range(len(a.alphabet))])
            probes[min(times[q], 2)] += 1
            times[q] += 1
            answer = probe(q, e)
            assert answer == dict(pairs(a.out[q])).get(e)
            answers[answer is None, len(a.out[q]) > 32] += 1
    # First, second and later probes; hits and misses on states of at most
    # 16 edges and on states of more.
    assert min(probes[0], probes[1], probes[2]) >= 100
    assert min(answers.values()) >= 100 and len(answers) == 4


class TestReachability:
    @pytest.mark.parametrize("kind", fms.MACHINE_KINDS)
    def test_machines_already_trim(self, kind):
        a = fms.build(kind)
        assert a.trim().states == a.states

    def test_coaccessible_drops_dead_state(self):
        t = chain().trim()
        assert (t.states, t.transitions) == (("q1",), {})

    def test_trim_to_empty_is_flagged(self):
        a = chain(marked=())
        t = a.trim()
        assert t.is_empty and t.initial is None

    def test_trim_idempotent_on_random_instances(self):
        rng = random.Random(9)
        for _ in range(100):
            a = random_automaton(rng, ["a", "b", "c"])
            t = a.trim()
            assert t.trim().states == t.states
            if not t.is_empty:
                assert set(explore(t.start, lambda q: pairs(t.out[q]))[0]) == set(
                    range(len(t.states)))
                assert check_nonconflicting(t, ()).nonconflicting

    # Automata with undeclared states or an event outside the alphabet: the
    # constructor names the first defect, located as in a model file.
    @pytest.mark.parametrize("states, transitions, initial, message", [
        pytest.param(("s0", "s1"), {("s0", "a"): "s1", ("ghost", "b"): "s0"}, "s0",
                     "transitions[1]: unknown state 'ghost'", id="undeclared-source-unreached"),
        pytest.param(("s0", "s1"), {("s0", "a"): "ghost", ("ghost", "b"): "s1",
                                    ("s1", "a"): "s0"}, "s0",
                     "transitions[0]: unknown state 'ghost'", id="undeclared-source-reached"),
        pytest.param(("s0", "s1"), {("s0", "a"): "s1", ("s1", "b"): "ghost"}, "s0",
                     "transitions[1]: unknown state 'ghost'", id="undeclared-target"),
        pytest.param(("s0", "s1", "s2"), {("s0", "a"): "s1", ("s1", "x"): "s0",
                                          ("s0", "x"): "s2", ("s2", "b"): "s1"}, "s0",
                     "transitions[1]: unknown event 'x'", id="event-outside-alphabet"),
        pytest.param(("s0", "s1"), {("ghost", "a"): "s0", ("s0", "a"): "s1"}, "ghost",
                     "initial: initial state 'ghost' not in states",
                     id="initial-outside-states"),
    ])
    def test_invalid_in_memory_automata(self, states, transitions, initial, message):
        assert_rejected(message, "m", Alphabet((("a", True), ("b", True))), states,
                        transitions, initial, ("s1",))

    def test_trim_nonblocking_when_nonempty(self):
        rng = random.Random(11)
        for _ in range(50):
            t = random_automaton(rng, ["a", "b"]).trim()
            if not t.is_empty:
                assert check_nonconflicting(t, ()).nonconflicting


class TestNonblocking:
    @pytest.mark.parametrize("kind", fms.MACHINE_KINDS)
    def test_machines_nonblocking(self, kind):
        assert check_nonconflicting(fms.build(kind), ()).nonconflicting

    def test_dead_end_blocks(self):
        assert not check_nonconflicting(chain(), ()).nonconflicting

    def test_no_marked_states_blocks(self):
        assert not check_nonconflicting(chain(marked=()), ()).nonconflicting


class TestSublanguage:
    def test_reflexive(self):
        a = fms.build("C1")
        ok, witness = is_sublanguage(a, a)
        assert ok and witness is None

    def test_missing_transition_witness(self):
        a = fms.build("C1")
        b = Automaton(a.name, a.alphabet, a.states,
                      {("qC1_1", "C1.load"): "qC1_2"}, a.initial, a.marked)
        ok, witness = is_sublanguage(a, b)
        assert not ok
        assert witness == ("C1.load", "C1.move")

    def test_witness_is_shortest_and_in_difference(self):
        rng = random.Random(12)
        for _ in range(40):
            a = random_automaton(rng, ["a", "b"], name="x")
            b = random_automaton(rng, ["a", "b"], name="y")
            ok, witness = is_sublanguage(a, b)
            brute = [w for w in all_strings(["a", "b"], 6)
                     if walk_generated(a, w) and not walk_generated(b, w)]
            if ok:
                assert not brute
            else:
                assert walk_generated(a, witness)
                assert not walk_generated(b, witness)
                if brute:
                    assert len(witness) <= min(len(w) for w in brute)


class TestJsonFormat:
    def test_round_trip(self, tmp_path):
        a = fms.build("A")
        path = tmp_path / "a.json"
        save_automaton(a, path)
        assert load_automaton(path) == a

    def test_duplicate_transition_rejected(self):
        doc = automaton_to_dict(fms.build("C1"))
        doc["transitions"].append(doc["transitions"][0])
        with pytest.raises(ModelFormatError) as err:
            automaton_from_dict(doc)
        assert "transitions[" in str(err.value)

    def test_unknown_state_rejected_with_position(self):
        doc = automaton_to_dict(fms.build("C1"))
        doc["transitions"][1]["to"] = "nowhere"
        with pytest.raises(ModelFormatError) as err:
            automaton_from_dict(doc)
        assert "transitions[1]" in str(err.value)

    def test_missing_field_rejected(self):
        doc = automaton_to_dict(fms.build("C1"))
        del doc["marked"]
        with pytest.raises(ModelFormatError):
            automaton_from_dict(doc)

    def test_unknown_event_rejected(self):
        doc = automaton_to_dict(fms.build("C1"))
        doc["transitions"][0]["on"] = "M.start"
        with pytest.raises(ModelFormatError):
            automaton_from_dict(doc)


MODEL = {"name": "m",
         "events": [{"id": "a", "controllable": True}, {"id": "b", "controllable": False}],
         "states": ["x", "y"], "initial": "x", "marked": ["y"],
         "transitions": [{"from": "x", "on": "a", "to": "y"},
                         {"from": "y", "on": "b", "to": "x"}]}
DUPLICATE = {"from": "x", "on": "a", "to": "x"}


@pytest.mark.parametrize("patch, message", [
    ({"rows": [["y"]]},
     "m.json.transitions[2]: each transition needs 'from', 'on', 'to'"),
    ({"rows": ["y"]}, "m.json.transitions[2]: each transition needs 'from', 'on', 'to'"),
    ({"rows": [None]}, "m.json.transitions[2]: each transition needs 'from', 'on', 'to'"),
    ({"rows": [{"from": "y", "on": "a"}]},
     "m.json.transitions[2]: each transition needs 'from', 'on', 'to'"),
    ({"rows": [{"from": "z", "on": "a", "to": "y"}]},
     "m.json.transitions[2]: unknown state 'z'"),
    ({"rows": [{"from": "y", "on": "a", "to": "w"}]},
     "m.json.transitions[2]: unknown state 'w'"),
    ({"rows": [{"from": "y", "on": "c", "to": "y"}]},
     "m.json.transitions[2]: unknown event 'c'"),
    ({"rows": [{"from": ["y"], "on": "a", "to": "y"}]},
     "m.json.transitions[2]: 'from', 'on' and 'to' must be strings"),
    ({"rows": [{"from": "y", "on": "a", "to": {"q": 1}}]},
     "m.json.transitions[2]: 'from', 'on' and 'to' must be strings"),
    ({"rows": [{"from": "y", "on": 1, "to": "y"}]}, "m.json.transitions[2]: unknown event 1"),
    ({"rows": [DUPLICATE]}, "m.json.transitions[2]: duplicate transition on 'a' from 'x'"),
    ({"rows": [DUPLICATE, 7], "at": 1},
     "m.json.transitions[1]: duplicate transition on 'a' from 'x'"),
    ({"rows": [7, DUPLICATE], "at": 1},
     "m.json.transitions[1]: each transition needs 'from', 'on', 'to'"),
    ({"rows": [{"from": "y", "on": "c", "to": "y"}, {"from": ["x"], "on": "a", "to": "y"}],
      "at": 1}, "m.json.transitions[1]: unknown event 'c'"),
    ({"initial": "z"}, "m.json.initial: initial state 'z' not in states"),
    ({"initial": ["x"]}, "m.json.initial: expected a string, found list"),
    ({"marked": ["y", "z"]}, "m.json.marked[1]: unknown state 'z'"),
    ({"marked": [3]}, "m.json.marked[0]: expected a string, found int"),
], ids=["list row", "string row", "null row", "missing to", "unknown source",
        "unknown target", "unknown event", "list-valued from", "object-valued to",
        "integer on", "duplicate", "duplicate then non-object", "non-object then duplicate",
        "unknown event then list-valued from", "unknown initial", "list initial",
        "unknown marked", "integer marked"])
def test_loader_diagnostics(patch, message, tmp_path, monkeypatch):
    # Rows are inserted at index ``at`` (default: appended); the first bad one wins.
    doc = copy.deepcopy(MODEL)
    patch = dict(patch)
    at = patch.pop("at", len(doc["transitions"]))
    doc["transitions"][at:at] = patch.pop("rows", [])
    doc.update(patch)
    with pytest.raises(ModelFormatError) as err:
        automaton_from_dict(doc, where="m.json")
    assert str(err.value) == message
    assert err.value.where == message.split(": ", 1)[0]
    assert_loads_as_whole(layouts(doc, random.Random(at)), tmp_path, monkeypatch)


# -- the loader against the whole-document decode ---------------------------

# Characters per read and per slice of rows: one row a slice, a few rows, and the
# default, under which a file this small is decoded as one document.
SLICES = (1, 64, automata._SLICE_CHARS)


def layouts(doc: dict, rng) -> list[str]:
    """Texts of ``doc``: save_automaton's layout, with CRLF line ends, rows shuffled,
    compact, unescaped, keys shuffled, ``transitions`` first, header keys repeated
    before and after the rows, extra keys after them, whitespace and then data after
    the object."""
    keys = list(doc)
    rng.shuffle(keys)
    rows = rng.sample(doc["transitions"], len(doc["transitions"]))
    text = json.dumps(doc, indent=2)
    return [text + "\n", text.replace("\n", "\r\n"),
            json.dumps({**doc, "transitions": rows}, indent=2),
            json.dumps(doc), json.dumps(doc, indent=2, ensure_ascii=False),
            json.dumps({k: doc[k] for k in keys}, indent=2),
            json.dumps({k: doc[k] for k in sorted(doc, key=lambda k: k != "transitions")},
                       indent=2),
            '{"marked": 7, "transitions": 7,' + text[1:],
            text[:-2] + ',\n  "name": "again"\n}',
            text[:-2] + ',\n  "name": "again",\n  "transitions": []\n}',
            json.dumps({**doc, "notes": [{"a": 1}, {"b": [{}, {}]}], "z": None}, indent=2),
            text + "\n \t\r\n", text + "\n{}"]


def assert_loads_as_whole(texts, tmp_path, monkeypatch) -> None:
    """``load_automaton`` gives what the whole-document decode gives, at every slice size."""
    path = tmp_path / "m.json"
    for text in texts:
        path.write_text(text, encoding="utf-8")
        expected = load_outcome(load_whole, path)
        for chars in SLICES:
            monkeypatch.setattr(automata, "_SLICE_CHARS", chars)
            assert load_outcome(load_automaton, path) == expected, (chars, text)


def test_loader_decodes_as_the_whole_document(tmp_path, monkeypatch):
    fms.emit(str(tmp_path))
    docs = [json.loads(p.read_text()) for p in sorted(tmp_path.glob("*.json"))]
    rng = random.Random(19)
    docs += [automaton_to_dict(random_automaton(rng, [f"e{i}" for i in range(rng.randint(1, 4))],
                                                8)) for _ in range(200)]
    docs += [automaton_to_dict(weird_automaton(rng)) for _ in range(50)]
    # Rows after the rows, under another key, so that a slice can end past the array.
    docs += [{**d, "transitions": d["transitions"][:1], "more": d["transitions"][1:]}
             for d in docs[-250:-200]]
    # Rows holding "},\n" themselves, so that a slice can end inside a row.
    docs.append({**MODEL, "transitions": [{**r, "notes": [{"k": 1}, {"k": 2}]}
                                          for r in MODEL["transitions"]]})
    assert_loads_as_whole([t for doc in docs for t in layouts(doc, rng)], tmp_path, monkeypatch)


def test_saved_models_decode_a_slice_at_a_time(tmp_path, monkeypatch):
    # The streamed decode itself, not the whole-document decode it falls back on.
    for a in (fms.build_total(), weird_automaton(random.Random(5))):
        save_automaton(a, tmp_path / "m.json")
        text = (tmp_path / "m.json").read_text(encoding="utf-8")
        for chars in SLICES:
            monkeypatch.setattr(automata, "_SLICE_CHARS", chars)
            b = automata._decode_streamed(io.StringIO(text), "m.json")
            assert (b, list(b.transitions.items())) == (a, list(a.transitions.items()))


class CountedReads(io.StringIO):
    """A text file that records the size of every read."""

    def __init__(self, text: str):
        super().__init__(text)
        self.reads: list[int] = []

    def read(self, n=-1):
        self.reads.append(n)
        return super().read(n)


def test_reads_can_end_anywhere(tmp_path, monkeypatch):
    # Multi-byte names (so that the decoder's byte chunks end inside a character),
    # CRLF line ends (so that a read can end between "\r" and "\n") and a states
    # header many slices long: the streamed decode itself gives the whole-document
    # model, whichever way the text divides into reads.
    names = ["\u00e9t\u00e4t", "\u6bb5\u968e", "\U0001f600", "\u03a9" * 40]
    states = tuple(f"{names[i % 4]}{i}" for i in range(400))
    a = Automaton("m\u00e9", Alphabet((("a", True), ("b", False))), states,
                  {(q, e): states[(i + k) % 400] for i, q in enumerate(states)
                   for k, e in enumerate("ab") if (i + k) % 3},
                  states[0], states[::7])
    save_automaton(a, tmp_path / "m.json")
    saved = (tmp_path / "m.json").read_text(encoding="utf-8")
    doc = automaton_to_dict(a)
    texts = [saved, saved.replace("\n", "\r\n"), json.dumps(doc, indent=2, ensure_ascii=False),
             json.dumps(doc, indent=2, ensure_ascii=False).replace("\n", "\r\n")]
    assert len(json.dumps(doc["states"], ensure_ascii=False)) > 10 * 64
    path = tmp_path / "t.json"
    for text in texts:
        path.write_text(text, encoding="utf-8")
        expected = load_outcome(load_whole, path)
        assert expected[0] == a
        for chars in SLICES:
            monkeypatch.setattr(automata, "_SLICE_CHARS", chars)
            assert load_outcome(load_automaton, path) == expected, chars
            with open(path, encoding="utf-8") as fh:
                b = automata._decode_streamed(fh, str(path))
            assert (b, list(b.transitions.items())) == expected
    # A read is one slice, or as long as the text held: a field or a row cut short
    # is read again in a number of reads logarithmic in its length.
    monkeypatch.setattr(automata, "_SLICE_CHARS", 1)
    header = CountedReads(saved[:saved.index('"transitions"')] + '"transitions": []}')
    assert automata._decode_streamed(header, "m.json").states == states
    assert len(header.reads) < 100 < len(header.getvalue()) // 100


def test_a_bad_header_field_ends_the_streamed_decode_at_once(tmp_path, monkeypatch):
    # An error that no cut can cause, far from the end of the first read, is
    # final: the streamed decode raises after that read instead of reading the
    # file to its end, and the loader gives the whole-document diagnostic.
    save_automaton(fms.build_total(), tmp_path / "m.json")
    saved = (tmp_path / "m.json").read_text(encoding="utf-8")
    assert saved.startswith('{\n  "name": "G",') and len(saved) > 3 * automata._SLICE_CHARS
    for bad in ('"name": x"', '"name" "G"', '"name": "G",,', '"name": "G"]'):
        text = saved.replace('"name": "G",', bad, 1)
        fh = CountedReads(text)
        with pytest.raises((ValueError, StopIteration)):
            automata._decode_streamed(fh, "m.json")
        assert fh.reads == [automata._SLICE_CHARS], bad
        assert_loads_as_whole([text], tmp_path, monkeypatch)


def test_deep_header_value_in_a_long_file(tmp_path, monkeypatch):
    # A header value nested past the recursion limit, in a file longer than one
    # slice at every size: the streamed decode raises the RecursionError, after
    # reading as much as it needs and no more, and the loader gives the
    # whole-document diagnostic.
    text = json.dumps(MODEL, indent=2)
    rows = text.index('  "transitions"')
    depth = automata._SLICE_CHARS // 2 + 1
    for deep in ("[" * depth + "]" * depth, '[{"k": ' * depth + "1" + "}]" * depth):
        deep_text = text[:rows] + '  "notes": ' + deep + ",\n" + text[rows:]
        (tmp_path / "m.json").write_text(deep_text, encoding="utf-8")
        for chars in SLICES:
            monkeypatch.setattr(automata, "_SLICE_CHARS", chars)
            fh = io.StringIO(deep_text)
            with pytest.raises(RecursionError):
                automata._decode_streamed(fh, "m.json")
            assert fh.tell() < len(deep_text)
        assert_loads_as_whole([deep_text], tmp_path, monkeypatch)


def test_rows_in_any_order_load_in_the_canonical_order(tmp_path, monkeypatch):
    # A file may list its rows in any order; the loaded edges, their view and
    # the saved file follow state order and then alphabet order, whichever way
    # the file is decoded.
    rng = random.Random(23)
    models = [random_automaton(rng, ["c", "a", "b"], 8) for _ in range(20)]
    models += [weird_automaton(rng), fms.build_total()]
    for a in models:
        save_automaton(a, tmp_path / "canonical.json")
        canonical = (tmp_path / "canonical.json").read_text(encoding="utf-8")
        doc = json.loads(canonical)
        rows = [((r["from"], r["on"]), r["to"]) for r in doc["transitions"]]
        doc["transitions"] = rng.sample(doc["transitions"], len(rows))
        (tmp_path / "shuffled.json").write_text(json.dumps(doc, indent=2), encoding="utf-8")
        for chars in SLICES:
            monkeypatch.setattr(automata, "_SLICE_CHARS", chars)
            for load in (load_whole, load_automaton):
                b = load(tmp_path / "shuffled.json")
                assert list(b.transitions.items()) == rows and b.out == a.out
                save_automaton(b, tmp_path / "again.json")
                assert (tmp_path / "again.json").read_text(encoding="utf-8") == canonical
    with pytest.raises(TypeError):
        b.transitions[rows[0][0]] = rows[0][1]
    # Re-flagging the alphabet keeps the names, so the edges are kept as they are.
    flipped = replace(b, alphabet=b.alphabet.reflagged(b.alphabet.controllable))
    assert flipped.alphabet != b.alphabet
    assert flipped.out is b.out and list(flipped.transitions.items()) == rows


def test_loader_on_broken_texts(tmp_path, monkeypatch):
    rng = random.Random(7)
    text = json.dumps(automaton_to_dict(random_automaton(rng, ["a", "b", "c"], 8)), indent=2)
    deep = "[" * 100_000 + "]" * 100_000
    # Which container overflows the decoder's recursion sets the message.
    mixed = '[{"k": ' * 50_000 + "1" + "}]" * 50_000
    header = json.dumps(MODEL, indent=2)[:-2] + ","
    # A comma after the last row, where a slice of rows can end.
    assert text.endswith("    }\n  ]\n}")
    comma = text[:-6] + ",\n  ]\n}"
    assert_loads_as_whole(
        [text[:n] for n in range(0, len(text), 7)]
        + ["", " ", "{}", "[]", "null", "\ufeff" + text, text[:-2] + ",\n}",
           '{"name": ' + deep + "}", header + '\n  "events": ' + deep + "}",
           '{"name": ' + mixed + "}", '{"name": [' + mixed + "]}",
           text.replace('"to": ', '"to": ' + deep + ", ", 1),
           text.replace('"to": ', '"to": ' + mixed + ", ", 1),
           comma, comma.replace("\n", "\r\n"), comma.replace(",\n  ]", ",\n\n]")],
        tmp_path, monkeypatch)


def test_loaded_model_shares_names(tmp_path):
    # One string object per state and event name, however many rows name it.
    save_automaton(fms.build_total(), tmp_path / "g.json")
    a = load_automaton(tmp_path / "g.json")
    states = {id(q) for q in a.states}
    events = {id(e) for e in a.alphabet.events}
    assert all(id(q) in states and id(e) in events and id(t) in states
               for (q, e), t in a.transitions.items())
    assert id(a.initial) in states and all(id(q) in states for q in a.marked)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_active_is_domain_of_transition_map(data):
    n = data.draw(st.integers(1, 5))
    states = tuple(f"q{i}" for i in range(n))
    events = ("a", "b", "c")
    trans = {}
    for q in states:
        for e in events:
            if data.draw(st.booleans()):
                trans[(q, e)] = states[data.draw(st.integers(0, n - 1))]
    a = Automaton("h", Alphabet(tuple((e, True) for e in events)),
                  states, trans, states[0], (states[0],))
    for q in states:
        assert set(a.active(q)) == {e for e in events if (q, e) in a.transitions}
