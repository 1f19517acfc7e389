import random
import time

import pytest

from desctl import fms, sim
from desctl.automata import BadQueryError
from desctl.compose import successors
from desctl.control import SupervisorSet, closed_loop
from desctl.sim import (Configuration, Interactive, NotEnabledError, Random,
                        ScriptError, Scripted, initial_configuration, enabled,
                        fire, is_marked, replay, report_from_dict,
                        report_to_dict, report_to_json, run)

CAT1_PATH = ("C1.load", "R.pick1", "R.place3", "M.start", "R.pick3",
             "R.place4", "L.start1", "R.pick4", "R.place6", "A.on")


@pytest.fixture(scope="module")
def plant():
    return fms.build_total()


@pytest.fixture(scope="module")
def sups():
    return SupervisorSet((fms.build_supervisor(1), fms.build_supervisor(2)))


class TestConfiguration:
    def test_initial(self, plant, sups):
        cfg = initial_configuration(plant, sups)
        assert cfg.plant_state == plant.initial
        assert cfg.sup_states == ("qS1_1", "qS2_1")

    def test_empty_plant_rejected(self):
        from desctl.automata import Alphabet, empty_automaton
        e = empty_automaton("e", Alphabet((("a", True),)))
        with pytest.raises(BadQueryError):
            initial_configuration(e, [])

    def test_invalid_configuration_rejected(self, plant, sups):
        with pytest.raises(BadQueryError):
            enabled(plant, sups, Configuration("nowhere", ("qS1_1", "qS2_1")))
        with pytest.raises(BadQueryError):
            enabled(plant, sups, Configuration(plant.initial, ("qS1_1",)))


class TestEnabledAndFire:
    def test_unsupervised_initial_enabled(self, plant):
        cfg = initial_configuration(plant, [])
        assert enabled(plant, [], cfg) == (
            ("C1.load", "C2.load", "C3.load")
            + tuple(f"R.pick{k}" for k in range(1, 8))
            + ("L.start1", "L.start2", "M.start", "P.start", "A.on"))

    def test_supervised_initial_enabled(self, plant, sups):
        cfg = initial_configuration(plant, sups)
        assert enabled(plant, sups, cfg) == (
            "C1.load", "C2.load", "R.pick5", "R.pick6", "R.pick7")

    def test_fire_advances_declaring_supervisors_only(self, plant, sups):
        cfg = initial_configuration(plant, sups)
        nxt = fire(plant, sups, cfg, "C1.load")
        assert nxt.sup_states == ("qS1_2", "qS2_1")

    def test_fire_blocked_by_supervisor_names_it(self, plant, sups):
        cfg = initial_configuration(plant, sups)
        with pytest.raises(NotEnabledError) as err:
            fire(plant, sups, cfg, "R.pick1")
        assert err.value.blocker == "S1"
        assert err.value.event == "R.pick1"

    def test_fire_blocked_by_plant(self, plant, sups):
        cfg = initial_configuration(plant, sups)
        with pytest.raises(NotEnabledError) as err:
            fire(plant, sups, cfg, "C1.move")
        assert err.value.blocker == "plant"

    def test_fire_unknown_event(self, plant, sups):
        cfg = initial_configuration(plant, sups)
        with pytest.raises(BadQueryError):
            fire(plant, sups, cfg, "zz")

    def test_fire_agrees_with_the_step_rule(self, plant, sups):
        # Every plant event at configurations that random runs reach: fire
        # takes the step rule's successor, or names the first component in
        # plant, S1, S2 order that declares the event and disables it.
        components = [plant, *sups]
        names = ["plant", *(s.name for s in sups)]
        step = successors(components, plant.alphabet)
        rng = random.Random(11)
        configurations = {cfg for seed in range(20)
                          for _e, cfg in run(plant, sups, Random(seed), 200).trace}
        for cfg in rng.sample(sorted(configurations, key=repr), 150):
            cur = (cfg.plant_state, *cfg.sup_states)
            successor = dict(step(cur))
            for e in plant.alphabet.events:
                if e in successor:
                    assert fire(plant, sups, cfg, e) == Configuration(
                        successor[e][0], successor[e][1:])
                    continue
                blocker = next(n for n, a, q in zip(names, components, cur)
                               if e in a.alphabet and (q, e) not in a.transitions)
                with pytest.raises(NotEnabledError) as err:
                    fire(plant, sups, cfg, e)
                assert (err.value.event, err.value.blocker) == (e, blocker)

    def test_marked_only_when_every_component_agrees(self, plant, sups):
        cfg = initial_configuration(plant, sups)
        assert is_marked(plant, sups, cfg)
        assert not is_marked(plant, sups, fire(plant, sups, cfg, "C1.load"))


class TestScripted:
    def test_category_one_loop_with_its_own_supervisor(self, plant):
        report = run(plant, [fms.build_supervisor(1)], Scripted(CAT1_PATH), 100)
        assert report.steps_taken == 10
        assert report.blocked_event is None
        assert not report.deadlocked
        assert not report.final_marked  # machines still hold products

    def test_second_supervisor_blocks_the_shared_buffer(self, plant, sups):
        # R.place4 is declared by both supervisors; the category-2 one only
        # reaches it after C2.load, so at its initial state it vetoes.
        report = run(plant, sups, Scripted(CAT1_PATH), 100)
        assert report.steps_taken == 5
        assert report.blocked_event == "R.place4"
        assert report.trace[-1][0] == "R.pick3"

    def test_completions_counted_per_category(self, plant):
        script = CAT1_PATH + ("A.fromB6", "A.done1")
        report = run(plant, [fms.build_supervisor(1)], Scripted(script), 100)
        assert report.steps_taken == 12
        assert report.completions == {"1": 1, "2": 0}

    def test_max_steps_truncates_without_blocking(self, plant, sups):
        report = run(plant, sups, Scripted(CAT1_PATH), 3)
        assert report.steps_taken == 3
        assert report.blocked_event is None and not report.deadlocked

    def test_zero_steps(self, plant, sups):
        report = run(plant, sups, Scripted(CAT1_PATH), 0)
        assert report.steps_taken == 0
        assert not report.deadlocked
        assert report.final_marked

    def test_negative_steps_rejected(self, plant, sups):
        with pytest.raises(ValueError):
            run(plant, sups, Scripted(()), -1)

    def test_foreign_scripted_event_rejected(self, plant, sups):
        with pytest.raises(ScriptError):
            run(plant, sups, Scripted(("zz",)), 10)


class TestRandom:
    def test_seeded_runs_are_byte_identical(self, plant, sups):
        a = run(plant, sups, Random(7), 500)
        b = run(plant, sups, Random(7), 500)
        assert report_to_json(a) == report_to_json(b)

    def test_seeds_actually_vary_the_trace(self, plant, sups):
        traces = {run(plant, sups, Random(s), 50).trace for s in range(10)}
        assert len(traces) > 1

    def test_long_run_is_fast_and_replayable(self, plant, sups):
        start = time.monotonic()
        report = run(plant, sups, Random(1), 10_000)
        assert time.monotonic() - start < 5.0
        assert report.steps_taken == 10_000
        assert replay(plant, sups, report)

    def test_trace_stays_inside_the_closed_loop_language(self, plant, sups):
        report = run(plant, sups, Random(2), 200)
        loop = closed_loop(plant, sups)
        word = tuple(e for e, _cfg in report.trace)
        assert loop.membership(word).in_generated


class TestReplay:
    def test_tampered_configuration_detected(self, plant, sups):
        report = run(plant, sups, Random(3), 20)
        e, cfg = report.trace[5]
        bad_cfg = Configuration("qC1_2|qC2_1|qC3_1|qR_1|qL_1|qM_1|qP_1|qA_1",
                                cfg.sup_states)
        doctored = report_from_dict(report_to_dict(report))
        trace = list(doctored.trace)
        trace[5] = (e, bad_cfg)
        doctored = sim.RunReport(tuple(trace), report.steps_taken,
                                 report.deadlocked, report.blocked_event,
                                 report.completions, report.final_marked)
        assert replay(plant, sups, report)
        assert not replay(plant, sups, doctored)

    def test_tampered_completions_detected(self, plant, sups):
        report = run(plant, sups, Random(4), 20)
        doctored = sim.RunReport(report.trace, report.steps_taken,
                                 report.deadlocked, report.blocked_event,
                                 {"1": 99, "2": 0}, report.final_marked)
        assert not replay(plant, sups, doctored)

    def test_round_trip_through_dict(self, plant, sups):
        report = run(plant, sups, Random(5), 30)
        assert report_from_dict(report_to_dict(report)) == report


class TestInteractive:
    def _drive(self, plant, sups, lines, max_steps=10):
        lines = iter(lines)
        outputs = []
        policy = Interactive(read=lambda _prompt: next(lines),
                             write=outputs.append)
        report = run(plant, sups, policy, max_steps)
        return report, outputs

    def test_numbered_choice_and_quit(self, plant, sups):
        report, outputs = self._drive(plant, sups, ["1", "quit"])
        assert report.steps_taken == 1
        assert report.trace[0][0] == "C1.load"
        assert "  1. C1.load" in outputs

    def test_state_and_undo(self, plant, sups):
        report, outputs = self._drive(plant, sups, ["1", "state", "undo", "quit"])
        assert report.steps_taken == 0
        assert any(line.startswith("S1: qS1_2") for line in outputs)

    def test_undo_on_empty_history(self, plant, sups):
        _report, outputs = self._drive(plant, sups, ["undo", "quit"])
        assert "nothing to undo" in outputs

    def test_bad_input_reprompts(self, plant, sups):
        report, outputs = self._drive(plant, sups,
                                      ["99", "banana", "0", "-1", "quit"])
        assert report.steps_taken == 0
        assert sum("choose 1.." in line for line in outputs) == 4

    def test_eof_ends_the_run(self, plant, sups):
        def read(_prompt):
            raise EOFError
        report = run(plant, sups, Interactive(read=read, write=lambda _s: None), 10)
        assert report.steps_taken == 0
