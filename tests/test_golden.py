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


# The files ``fms.emit`` writes, in its order, with the sha256 of each.
# Recorded before the corpus machines moved onto one transition table each.
CORPUS_FILES = {
    "C1.json": "df3507e56c7be9d53a27f0bf2f252c6e1b4b0b662f2354311ade47add688ca23",
    "C2.json": "f0dd069754e8685b98da7a0a288aec55e6fa9eeb63ff37b25ac5347b3334a204",
    "C3.json": "bf90519c2a7213b330a0b65b3f1c0b0c12ccbdf9cab41e82a0ba566b66020625",
    "R.json": "bdf5d1e515a3b5b74ebdc3208bfe81aef50d360085b5e97e51e7f97a5923e530",
    "L.json": "681328b4ba3609d306c2883c034a071641cc147000b89b810c9bbea6c2b8d39b",
    "M.json": "96fc8fe660fbbb404043056c905a4f64c5b97ab8916231c20f9f24d8f6600be9",
    "P.json": "79abb0801856f903ef393848815032d22932f1450c72334ed67ba2afa981f3f5",
    "A.json": "6dc5985aee256b8779fd38ab60d5285cc4b4f029f3242ac01d0e9f6f73b0a3d1",
    "G_total.json": "46a23cf44afa45ba90b91842e2679f224985d7edc14539208262e97a5c582654",
    "G_total_sec2.json": "dc79ea2db5ee8dce3c49425ed47d799e3b0bcce288c182a7c7f6260dbc1011d0",
    "S1.json": "cebe78ae92cd1693ec3bc36e87a70c284b4deaa8c3e1091ab3916d037b4f9073",
    "S2.json": "ad5496096a7d87095e602e6cff451b84339c34eb8225d9fc00dd16112d7c95ad",
    "KD1.expr": "13d6a3472e32de16a42daf6ceaa3dbfcd90a4de122e53f7b2418121bda6a92de",
    "KD2.expr": "916bfa216b6c6d9edb484f6057d9cb27d7f6b4adcd305998110ddb55409c3331",
    "events.tsv": "6ab464048298b1d5c0abd45167fab817263325f2c2edfdc5da43056e557dfac8",
}


def test_emitted_corpus_files(tmp_path):
    # TestEmit compares the files with the models fms builds for them; this
    # also sees a byte change that reaches both.
    written = fms.emit(str(tmp_path))
    assert written == list(CORPUS_FILES)
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in written} == CORPUS_FILES


# Machines and supervisors under both partitions.  The partitions differ only
# in the conveyors' flags, so the other machines' digests repeat.
@pytest.mark.parametrize("partition, which, digest", [
    ("sec28", "C1", "5249cee7cd41429b84c1818d80089c16ecdebf49511b910bf827bc459de25a41"),
    ("sec28", "C2", "e61f7677887b61570b5ed5893bfdf6a4796aa3c41a6b63794baae86c328deef2"),
    ("sec28", "C3", "0e5aaf07a44e7d74a9625eef8df32e5a44e7f91c9119fd813404720fb0e2ddbe"),
    ("sec28", "R", "8fab25837e0010b3be1d2a299e08e0b7c9c223d5f5cc9b882d9fa2334df99b65"),
    ("sec28", "L", "5d2e35922a3689a189e37c90d4e3605287d8384ee8aaed5a1dbe525a9200a552"),
    ("sec28", "M", "3609142e01b89b1454967fad97e3bcaa884b29497253f8c754646c19f7113a5d"),
    ("sec28", "P", "3bd0771f619b098cb7c08dd3c4b8e96f864d16aafab2064d19ec5cb4af119bc0"),
    ("sec28", "A", "57704e95d2fef88a67027b3eeb7447de90e88a89c53895dcec3e7cb1a19da963"),
    ("sec28", 1, "cad5ef2fac898242f5090836e2ae42f9c4b7f2946e928fd525397819af28f641"),
    ("sec28", 2, "32c39cc226d8153f3e1b7bacd2e4adae76233f7fb064a7d7563fe5f1c0d54362"),
    ("sec2", "C1", "836701d813752a77e5eeb89ababc704b8afb873c827d6539745610343a9e61c5"),
    ("sec2", "C2", "3700063b6c60467e517e7bc2ff0e9bb348c2148250a0b7472d8fd25f6968b985"),
    ("sec2", "C3", "e44aa75111559ae8d59e9520b4715d6a26d14ae486fd61662ed42c3654d7a80e"),
    ("sec2", "R", "8fab25837e0010b3be1d2a299e08e0b7c9c223d5f5cc9b882d9fa2334df99b65"),
    ("sec2", "L", "5d2e35922a3689a189e37c90d4e3605287d8384ee8aaed5a1dbe525a9200a552"),
    ("sec2", "M", "3609142e01b89b1454967fad97e3bcaa884b29497253f8c754646c19f7113a5d"),
    ("sec2", "P", "3bd0771f619b098cb7c08dd3c4b8e96f864d16aafab2064d19ec5cb4af119bc0"),
    ("sec2", "A", "57704e95d2fef88a67027b3eeb7447de90e88a89c53895dcec3e7cb1a19da963"),
    ("sec2", 1, "847364d0c8008cf3a8c399e685b3741f2bf58d265ebbad213f1e75517c1ea892"),
    ("sec2", 2, "bb6d29b8d8ee7315cb47d498f83933f48db3dfec7c6bc9d2697b06b761d1da88"),
])
def test_corpus_models(partition, which, digest):
    a = (fms.build(which, partition) if isinstance(which, str)
         else fms.build_supervisor(which, partition))
    assert _model_digest(a) == digest


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
    # The 8.4 MB file, read and decoded a 256 KiB slice at a time, peaks at about
    # 4.4 MB, of which the loaded model holds 2.0 MB; a loader that held the whole
    # file's text would exceed the bound on that alone.
    path = tmp_path / "sup.json"
    save_automaton(kd1_supervisor, path)
    tracemalloc.start()
    try:
        load_automaton(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000


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
