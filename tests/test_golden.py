"""Byte-identity goldens: digests of outputs whose exact bytes are a contract.

Each digest was recorded before a refactor of the code that produces it: the
move of composition, analysis, spec and simulator modules onto one shared step
rule and one automaton builder, the move of model files, DOT export and
minimization onto one out-edge walk, the move of model files and run
reports from ``json.dump(indent=2)`` to streamed writers, and the move of
the product searches onto per-component out-edges and integer-numbered
product states.  A refactor that changes state naming, state or transition
order, a trace or the JSON layout changes the digest.
"""

import hashlib
import json
import random
import tracemalloc

import pytest

from desctl import automata, espec, fms, sim
from desctl.automata import Alphabet, Automaton, load_automaton, save_automaton
from desctl.compose import parallel
from desctl.control import check_controllability, check_nonconflicting, closed_loop, supcon
from desctl.dot import export_dot
from oracles import automaton_to_dict, load_outcome, load_whole, random_ast, random_automaton


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _model_digest(a) -> str:
    return _digest(json.dumps(automaton_to_dict(a), indent=2))


@pytest.fixture(scope="module")
def plant():
    return fms.build_total()


@pytest.fixture(scope="module")
def loop(plant):
    return closed_loop(plant, [fms.build_supervisor(1), fms.build_supervisor(2)])


def test_seeded_random_run_report(plant):
    sups = [fms.build_supervisor(1), fms.build_supervisor(2)]
    report = sim.run(plant, sups, sim.Random(5), 3000)
    assert _digest(sim.report_to_json(report)) == (
        "003eac35597f8e4be38824ecef4a58de0fc5455fccd6baf83e45db0a4f04d4a3")


def test_scripted_run_blocked_mid_script(plant):
    # S2 vetoes R.place4, the sixth of ten scripted events.
    sups = [fms.build_supervisor(1), fms.build_supervisor(2)]
    script = ("C1.load", "R.pick1", "R.place3", "M.start", "R.pick3",
              "R.place4", "L.start1", "R.pick4", "R.place6", "A.on")
    report = sim.run(plant, sups, sim.Scripted(script), 100)
    assert (report.steps_taken, report.blocked_event) == (5, "R.place4")
    assert _digest(sim.report_to_json(report)) == (
        "80b9dcec65ac4e96b2b6d75a9f46e742b1955ddf2c2247545e90b838d7485d77")
    assert sim.replay(plant, sups, report)


@pytest.mark.parametrize("category, digest", [
    (1, "1db9f4524396ad6e798ec0095337927d610bc74a86af8bfd518f3c2254dfc426"),
    (2, "5944be4716e9d5524c780c8ec0214fa5c4ec1055b18a8e6f9a8532cec593c4fd"),
])
def test_spec_compiled_over_the_plant_alphabet(plant, category, digest):
    compiled = espec.compile_text(fms.spec_text(category), plant.alphabet)
    assert _model_digest(compiled) == digest


def test_spec_compiled_from_random_expressions():
    # 300 seeded expressions of depth 1-5 over five events, every third one
    # wrapped in a prefix closure.  Recorded before spec compilation moved
    # from a Thompson epsilon-NFA to Glushkov's position automaton.
    five = Alphabet(tuple((e, True) for e in "abcde"))
    rng = random.Random(31)
    h = hashlib.sha256()
    for i in range(300):
        ast = random_ast(rng, list("abcde"), depth=1 + i % 5)
        if i % 3 == 0:
            ast = espec.PrefClose(ast)
        h.update(json.dumps(automaton_to_dict(espec.compile(ast, five)), indent=2)
                 .encode("utf-8"))
    assert h.hexdigest() == (
        "4d2b2ffa39aaa4d557724ecd062886e7591fed61130b92f038a4aca0d8ada379")


@pytest.fixture(scope="module")
def kd1_supervisor(plant):
    """``supcon`` of the plant and KD1 compiled over its own events."""
    text = fms.spec_text(1)
    used = set(espec.leaves(espec.parse(text)))
    spec = espec.compile_text(
        text, Alphabet(tuple(x for x in plant.alphabet.entries if x[0] in used)))
    return supcon(plant, spec)


def test_supcon_of_spec_over_its_own_events(kd1_supervisor):
    assert len(kd1_supervisor.states) == 4992
    assert _model_digest(kd1_supervisor) == (
        "cbcf7e9fd42fc6e3ec332ae4fe6ed9c49976b0809a02aa02707acbbf54f7be99")


def test_closed_loop_model(loop):
    assert _model_digest(loop) == (
        "6bc329b0484307fb1fbd622c2e9c8c420d6f6a8929d1258709c9cfe46f5b771a")


@pytest.mark.parametrize("which, digest", [
    ("loop", "c8617b5202b6c0867ad0ddf91aa3d5fd56f2279774d4c7de8a880db5392e0f78"),
    ("kd1_supervisor", "016703e206f316c410cdd47b68caca508f6ac523606bd1dc1e6ce064f2682c7e"),
])
def test_written_model_file(request, tmp_path, which, digest):
    # The bytes save_automaton writes, not the dict the digests above hash.
    path = tmp_path / "model.json"
    save_automaton(request.getfixturevalue(which), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_saving_the_closed_loop_streams(loop, tmp_path):
    # 11,520 states and 96,448 transitions: a writer that builds a dict per
    # transition row or the whole document text peaks at about 18 MB.
    tracemalloc.start()
    try:
        save_automaton(loop, tmp_path / "loop.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000


def test_loading_the_kd1_supervisor_shares_names(kd1_supervisor, tmp_path):
    # 4,992 states and 50,880 transitions: a loader that keeps its own copy of
    # each name in every row still holds about 19 MB once loading is done.
    path = tmp_path / "sup.json"
    save_automaton(kd1_supervisor, path)
    tracemalloc.start()
    try:
        loaded = load_automaton(path)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert loaded == kd1_supervisor
    assert held < 10_000_000


def test_loading_the_kd1_supervisor_decodes_rows_a_slice_at_a_time(kd1_supervisor, tmp_path):
    # The 8.4 MB file decoded as one document, a dict and three strings per row,
    # before any row is converted, peaks at about 31.6 MB.
    path = tmp_path / "sup.json"
    save_automaton(kd1_supervisor, path)
    tracemalloc.start()
    try:
        load_automaton(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24_000_000


def test_loading_the_kd1_supervisor_as_the_whole_document(kd1_supervisor, tmp_path,
                                                          monkeypatch):
    # Saved, compact and cut two thirds of the way in: many slices, then an error.
    path = tmp_path / "sup.json"
    save_automaton(kd1_supervisor, path)
    saved = path.read_text()
    for text in (saved, json.dumps(json.loads(saved)), saved[:len(saved) * 2 // 3]):
        path.write_text(text)
        expected = load_outcome(load_whole, path)
        for chars in (4096, 1 << 20):
            monkeypatch.setattr(automata, "_SLICE_CHARS", chars)
            assert load_outcome(load_automaton, path) == expected


def test_closed_loop_dot(loop):
    assert _digest(export_dot(loop)) == (
        "287e6001fc2210e04cbf4b4d6bc1b397cab37c23c22b350926429cadc03ffc97")


def test_minimized_closed_loop(loop):
    assert _model_digest(espec.minimize(loop)) == (
        "acc70e30b37527a14991a05582c6ae95ceac4cff6a4a1efa4bf87f4975a09f55")


def test_saved_rows_follow_state_then_alphabet_order(tmp_path):
    # Declaration order, not lexical order and not the order in which the
    # transition map was filled.
    states, events = ("z", "x", "y"), ("b", "c", "a")
    rows = [(q, e, states[(i + j) % 3]) for i, q in enumerate(states)
            for j, e in enumerate(events) if (i, j) != (1, 1)]
    shuffled = random.Random(7).sample(rows, len(rows))
    assert shuffled != rows
    a = Automaton("shuffled", Alphabet(tuple((e, e != "c") for e in events)), states,
                  {(q, e): t for q, e, t in shuffled}, "z", ("y",))
    save_automaton(a, tmp_path / "a.json")
    saved = json.loads((tmp_path / "a.json").read_text())["transitions"]
    assert [(r["from"], r["on"], r["to"]) for r in saved] == rows


def _random_triple(rng):
    """A plant over eight events in a shuffled order and two supervisors over
    overlapping subsets, the three sharing one uncontrollable set."""
    events = list("abcdefgh")
    rng.shuffle(events)
    unc = set(rng.sample(events, 3))
    pick1, pick2 = set(rng.sample(events, 4)), set(rng.sample(events, 4))
    pick2.add(min(pick1))  # the two supervisors share at least one event
    sub1 = [e for e in events if e in pick1]
    sub2 = [e for e in events if e in pick2]
    return (random_automaton(rng, events, 6, "g", unc),
            random_automaton(rng, sub1, 4, "s", unc),
            random_automaton(rng, sub2, 4, "t", unc))


def _exact(a) -> bytes:
    # The model JSON and the transition map in insertion order.
    return (json.dumps(automaton_to_dict(a), indent=2)
            + repr(list(a.transitions.items()))).encode("utf-8")


def test_product_searches_on_random_triples():
    # 200 seeded triples; the parallel compositions put the supervisors first
    # too, so each component owns a block of the merged alphabet.  Recorded
    # before the product searches moved to per-component out-edges and
    # integer-numbered product states.
    rng = random.Random(12)
    h = hashlib.sha256()
    for _ in range(200):
        g, s, t = _random_triple(rng)
        for a in (parallel([g, s, t]), parallel([s, t, g]), parallel([t, g]),
                  closed_loop(g, [s, t]), supcon(g, s), supcon(g, t)):
            h.update(_exact(a))
        for report in (check_controllability(g, s), check_controllability(g, t),
                       check_nonconflicting(g, [s, t]), check_nonconflicting(g, [s])):
            h.update(repr(report).encode("utf-8"))
    assert h.hexdigest() == (
        "c9de50df540a43719a54f4425e4ddf0a2041afc3d511b23b22839378a9c440c1")
