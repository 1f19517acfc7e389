"""The streamed writers against ``json.dumps(indent=2)`` of the documented shapes.

``save_automaton`` and ``report_to_json`` lay the JSON text out themselves;
``automaton_to_dict`` and ``report_to_dict`` are the shapes, and
``json.dumps(doc, indent=2)`` plus a newline is the text they must write.
"""

import json
import random
from collections import Counter
from functools import partial

import pytest

from desctl import espec, fms, sim
from desctl.automata import (Alphabet, Automaton, ModelFormatError, empty_automaton,
                             save_automaton)
from desctl.control import closed_loop, supcon
from oracles import automaton_to_dict, weird_automaton, weird_name


def assert_saved_as_dumps(a: Automaton, path) -> None:
    save_automaton(a, path)
    assert path.read_text(encoding="utf-8") == (
        json.dumps(automaton_to_dict(a), indent=2) + "\n")


# Builders of every corpus automaton, keyed by name.
CORPUS = {**{k: partial(fms.build, k) for k in fms.MACHINE_KINDS}, "G": fms.build_total,
          "G_sec2": lambda: fms.build_total("sec2").renamed("G_sec2"),
          "S1": partial(fms.build_supervisor, 1), "S2": partial(fms.build_supervisor, 2)}


@pytest.fixture(scope="module")
def plant():
    return fms.build_total()


@pytest.fixture(scope="module")
def sups():
    return [fms.build_supervisor(1), fms.build_supervisor(2)]


class TestSaveAutomaton:
    @pytest.mark.parametrize("key", sorted(CORPUS))
    def test_corpus_models(self, key, tmp_path):
        assert_saved_as_dumps(CORPUS[key](), tmp_path / "a.json")

    def test_closed_loop(self, plant, sups, tmp_path):
        assert_saved_as_dumps(closed_loop(plant, sups), tmp_path / "a.json")

    def test_supcon_of_spec_over_its_own_events(self, plant, tmp_path):
        text = fms.spec_text(1)
        used = set(espec.leaves(espec.parse(text)))
        spec = espec.compile_text(
            text, Alphabet(tuple(x for x in plant.alphabet.entries if x[0] in used)))
        assert_saved_as_dumps(supcon(plant, spec), tmp_path / "a.json")

    def test_empty_automaton(self, tmp_path):
        assert_saved_as_dumps(empty_automaton("e", Alphabet(())), tmp_path / "a.json")
        assert_saved_as_dumps(empty_automaton("e", Alphabet((("a", False),))),
                              tmp_path / "a.json")

    def test_escaped_names_on_random_instances(self, tmp_path):
        rng = random.Random(2028)
        for _ in range(200):
            assert_saved_as_dumps(weird_automaton(rng), tmp_path / "a.json")

    # In-memory automata with a structural defect: the constructor names it, located.
    @pytest.mark.parametrize("states, transitions, initial, marked, message", [
        (("a", "b", "a"), {("a", "x"): "b", ("b", "x"): "a"}, "a", ("a",),
         "states: duplicate state names"),
        (("a",), {("a", "x"): "nowhere"}, "a", (), "transitions[0]: unknown state 'nowhere'"),
        (("a",), {("ghost", "x"): "a", ("a", "x"): "a"}, "a", ("a",),
         "transitions[0]: unknown state 'ghost'"),
        (("a",), {}, "elsewhere", ("a", "elsewhere", "\u2028"),
         "initial: initial state 'elsewhere' not in states"),
        ((), {}, "a", ("a",), "initial: initial state 'a' not in states"),
    ], ids=["duplicate-state", "dangling-target", "unknown-source",
            "initial-and-marked-outside", "no-states"])
    def test_invalid_in_memory_automata(self, states, transitions, initial, marked, message):
        with pytest.raises(ModelFormatError) as err:
            Automaton("bad", Alphabet((("x", True),)), states, transitions, initial, marked)
        assert str(err.value) == message
        assert err.value.where == message.split(": ", 1)[0]


def assert_rendered_as_dumps(report: sim.RunReport) -> None:
    assert sim.report_to_json(report) == json.dumps(sim.report_to_dict(report), indent=2) + "\n"


class TestReportToJson:
    @pytest.mark.parametrize("n_sups", [0, 1, 2])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_random_runs(self, plant, sups, n_sups, seed):
        assert_rendered_as_dumps(sim.run(plant, sups[:n_sups], sim.Random(seed), 400))

    def test_zero_steps(self, plant, sups):
        report = sim.run(plant, sups, sim.Random(1), 0)
        assert report.trace == ()
        assert_rendered_as_dumps(report)

    def test_scripted_run_blocked(self, plant, sups):
        script = ("C1.load", "R.pick1", "R.place3", "M.start", "R.pick3", "R.place4", "A.on")
        report = sim.run(plant, sups, sim.Scripted(script), 10)
        assert report.blocked_event == "R.place4" and report.steps_taken == 5
        assert_rendered_as_dumps(report)

    def test_deadlocked_run_with_escaped_names(self):
        # "x" leads into a state without out-edges; the names need escaping.
        plant = Automaton('p"\\', Alphabet((("x", True), ("y", False))),
                          ("\u2028\n", '\u00e9"'), {("\u2028\n", "x"): '\u00e9"'},
                          "\u2028\n", ('\u00e9"',))
        sup = Automaton("s", Alphabet((("x", True),)), ("\x00",),
                        {("\x00", "x"): "\x00"}, "\x00", ())
        report = sim.run(plant, [sup], sim.Random(3), 10)
        assert report.deadlocked and report.steps_taken == 1
        assert_rendered_as_dumps(report)

    def test_revisiting_run_with_escaped_names(self):
        # A ring over weird state names, " " and a quote among them, under a
        # supervisor of weird names: the run comes back to configurations.
        rng = random.Random(16)
        names = list(dict.fromkeys([" ", '"', *(weird_name(rng) for _ in range(4))]))
        ring = {(q, "a"): names[(i + 1) % len(names)] for i, q in enumerate(names)}
        plant = Automaton('r"', Alphabet((("a", True), ("b", False))), tuple(names),
                          {**ring, **{(q, "b"): names[0] for q in names[1::2]}}, names[0], ())
        s0, s1 = weird_name(rng), '" \\'
        sup = Automaton(" ", Alphabet((("a", True),)), (s0, s1),
                        {(s0, "a"): s1, (s1, "a"): s0}, s0, (s1,))
        for seed in range(5):
            report = sim.run(plant, [sup], sim.Random(seed), 300)
            assert max(Counter(report.trace).values()) >= 3
            assert_rendered_as_dumps(report)

    def test_loaded_reports_with_mixed_and_repeated_rows(self):
        # Reports read back from JSON text, whose rows hold 0, 1 or 3
        # supervisor states and repeat.
        rng = random.Random(17)
        mixed = thrice = 0
        for _ in range(60):
            rows = [{"event": weird_name(rng),
                     "configuration": {"plant_state": weird_name(rng),
                                       "sup_states": [weird_name(rng)
                                                      for _ in range(rng.choice((0, 1, 3)))]}}
                    for _ in range(rng.randint(1, 4))]
            trace = [rng.choice(rows) for _ in range(rng.randint(0, 12))]
            doc = {"trace": trace, "steps_taken": len(trace), "deadlocked": rng.random() < 0.5,
                   "blocked_event": None, "completions": {"1": 0, "2": 0},
                   "final_marked": False}
            report = sim.report_from_dict(json.loads(json.dumps(doc)))
            assert_rendered_as_dumps(report)
            mixed += len({len(c.sup_states) for _e, c in report.trace}) >= 2
            thrice += max(Counter(report.trace).values(), default=0) >= 3
        assert mixed >= 10 and thrice >= 10

    def test_chain_that_never_revisits(self):
        states = tuple(f"c{i}" for i in range(301))
        plant = Automaton("chain", Alphabet((("go", True),)), states,
                          {(p, "go"): q for p, q in zip(states, states[1:])},
                          states[0], states[-1:])
        sup = Automaton("s", Alphabet((("go", True),)), ('"',), {('"', "go"): '"'}, '"', ())
        report = sim.run(plant, [sup], sim.Random(1), 400)
        assert report.deadlocked and len(set(report.trace)) == report.steps_taken == 300
        assert_rendered_as_dumps(report)

    def test_hand_built_report(self):
        # A report whose counts and names could confuse a text splice.
        cfg = sim.Configuration("[]", ("[]", '"'))
        report = sim.RunReport((("e", cfg), ("f", cfg)), 2, False, "[]",
                               {"[]": 1, "2": 0}, True)
        assert_rendered_as_dumps(report)
