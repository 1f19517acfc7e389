import copy
import json
import random
import time
from collections import Counter

import pytest

from desctl import fms, sim
from desctl.automata import Alphabet, Automaton, BadQueryError, ModelFormatError
from desctl.compose import successors
from desctl.control import closed_loop
from desctl.sim import (Configuration, Interactive, Random, ScriptError, Scripted,
                        initial_configuration, replay, report_from_dict,
                        report_to_dict, report_to_json, run)
from oracles import random_modular_system, random_run, replay_oracle, walk_generated

CAT1_PATH = ("C1.load", "R.pick1", "R.place3", "M.start", "R.pick3",
             "R.place4", "L.start1", "R.pick4", "R.place6", "A.on")


@pytest.fixture(scope="module")
def plant():
    return fms.build_total()


@pytest.fixture(scope="module")
def sups():
    return (fms.build_supervisor(1), fms.build_supervisor(2))


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

    def test_matches_the_run_that_steps_every_state(self, plant, sups):
        rng = random.Random(15)
        cases = [(plant, list(sups), seed, 2000) for seed in range(10)]
        cases += [(plant, list(sups), 3, n) for n in (0, 1)]
        cases += [(_deadlocking_plant(), [], seed, n) for seed in range(20) for n in (0, 1, 50)]
        cases += [(*random_modular_system(rng), rng.randrange(1000), rng.choice((0, 1, 5, 40, 200)))
                  for _ in range(300)]
        reports = []
        for g, s, seed, n in cases:
            reports.append(run(g, s, Random(seed), n))
            expected = random_run(g, s, seed, n)
            assert reports[-1] == expected
            assert report_to_json(reports[-1]) == report_to_json(expected)
        # Runs that deadlock, and runs that reach a configuration a third time,
        # where the remembered choices are drawn from.
        thrice = [max(Counter(cfg for _e, cfg in r.trace).values(), default=0) >= 3
                  for r in reports]
        assert sum(r.deadlocked for r in reports) >= 100
        assert sum(thrice) >= 60

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
        assert walk_generated(loop, word)


def test_unknown_policy_rejected(plant):
    with pytest.raises(TypeError):
        run(plant, [], object(), 3)


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

    def test_forged_deadlock_detected(self, plant, sups):
        # The cell never stops, so something is enabled after every step.
        report = run(plant, sups, Random(6), 20)
        assert replay(plant, sups, report)
        assert not replay(plant, sups, sim.RunReport(
            report.trace, report.steps_taken, True, report.blocked_event,
            report.completions, report.final_marked))

    def test_forged_blocked_event_detected(self, plant, sups):
        report = run(plant, sups, Random(8), 20)
        final = report.trace[-1][1]
        components = [plant, *sups]
        cur = tuple(a.index[q] for a, q in zip(components, (final.plant_state,
                                                            *final.sup_states)))
        on = [plant.alphabet.events[e]
              for e, _ in successors(components, plant.alphabet)(cur)]

        def blocked_on(e):
            return replay(plant, sups, sim.RunReport(
                report.trace, report.steps_taken, report.deadlocked, e,
                report.completions, report.final_marked))

        assert not blocked_on("nonsense")
        assert not blocked_on(on[0])
        # A plant event the final configuration disables is what a blocked
        # script would record there.
        assert blocked_on(next(e for e in plant.alphabet.events if e not in on))


def _deadlocking_plant() -> Automaton:
    """a, then b or c; b leads to a state with no way out."""
    return Automaton("dead", Alphabet((("a", True), ("b", True), ("c", False))),
                     ("p0", "p1", "p2"),
                     {("p0", "a"): "p1", ("p1", "b"): "p2", ("p1", "c"): "p0"},
                     "p0", ("p0",))


def _policies(g: Automaton) -> list:
    """Each kind of policy, with scripts over ``g``'s own events."""
    lines = iter(["1", "2", "state", "undo", "1", "quit"])
    scripts = ([CAT1_PATH, CAT1_PATH[:4]] if "C1.load" in g.alphabet
               else [("a", "b", "a"), ("a", "c", "a", "b")])
    return [Random(1), Random(2), *map(Scripted, scripts),
            Interactive(read=lambda _prompt: next(lines), write=lambda _s: None)]


@pytest.mark.parametrize("loop", ["fms", "dead"])
def test_every_run_replays(plant, sups, loop):
    # The cell with S1 and S2, and a plant that deadlocks, under every policy:
    # runs that block, deadlock, stop at max_steps or quit.
    g, s = (plant, list(sups)) if loop == "fms" else (_deadlocking_plant(), [])
    reports = [run(g, s, policy, max_steps)
               for max_steps in (0, 3, 60) for policy in _policies(g)]
    for report in reports:
        assert replay(g, s, report)
        assert replay_oracle(g, s, report_to_dict(report), sim.COMPLETION_EVENTS)
    assert any(r.blocked_event for r in reports)
    assert any(r.deadlocked for r in reports) == (loop == "dead")


TAMPERINGS = ["event the plant disables", "event only a supervisor disables",
              "event outside the plant alphabet", "wrong component state",
              "truncated trace", "flipped final_marked"]


def _tamper(plant, sups, doc: dict, how: str, rng) -> dict:
    """A copy of the report dict ``doc`` with one defect of the kind ``how``."""
    doc = copy.deepcopy(doc)
    trace = doc["trace"]
    components = [plant, *sups]
    k = rng.randrange(1, len(trace))
    if how == "truncated trace":
        del trace[k:]
    elif how == "flipped final_marked":
        doc["final_marked"] = not doc["final_marked"]
    elif how == "event outside the plant alphabet":
        trace[k]["event"] = "Z.nowhere"
    elif how == "wrong component state":
        cfg = trace[k]["configuration"]
        states = [cfg["plant_state"], *cfg["sup_states"]]
        i = rng.randrange(len(states))
        states[i] = rng.choice([q for q in components[i].states if q != states[i]])
        trace[k]["configuration"] = {"plant_state": states[0], "sup_states": states[1:]}
    else:
        # The first step from k on (wrapping round) where such an event exists.
        for k in [*range(k, len(trace)), *range(1, k)]:
            cfg = trace[k - 1]["configuration"]
            cur = [cfg["plant_state"], *cfg["sup_states"]]
            plant_off = [e for e in plant.alphabet.events if (cur[0], e) not in plant.transitions]
            vetoed = [e for e in plant.alphabet.events if e not in plant_off
                      and any(e in s.alphabet and (q, e) not in s.transitions
                              for s, q in zip(sups, cur[1:]))]
            choices = plant_off if how == "event the plant disables" else vetoed
            if choices:
                break
        e = rng.choice(choices)
        # Where the loop would be if the disabling components let e through,
        # so that only the event itself is wrong.
        nxt = [a.transitions.get((q, e), q) for a, q in zip(components, cur)]
        trace[k] = {"event": e, "configuration": {"plant_state": nxt[0], "sup_states": nxt[1:]}}
    return doc


@pytest.mark.parametrize("how", TAMPERINGS)
def test_replay_agrees_with_the_oracle_on_tampered_reports(plant, sups, how):
    rng = random.Random(TAMPERINGS.index(how))
    for seed in range(5):
        doc = report_to_dict(run(plant, sups, Random(seed), 40))
        assert replay_oracle(plant, sups, doc, sim.COMPLETION_EVENTS)
        bad = _tamper(plant, sups, doc, how, rng)
        assert bad != doc
        assert not replay_oracle(plant, sups, bad, sim.COMPLETION_EVENTS)
        assert not replay(plant, sups, report_from_dict(bad))


@pytest.mark.parametrize("how", ["wrong component state", "event only a supervisor disables"])
def test_replay_refutes_rows_forged_at_revisited_states(plant, sups, how):
    # Rows forged at a state's third visit or later.  A wrong component state is
    # forged on a step also taken there at an earlier visit after the first, so
    # replay has kept the step and must still compare the row with it.
    rng = random.Random(len(how))
    doc = report_to_dict(run(plant, sups, Random(11), 300))
    trace, components = doc["trace"], [plant, *sups]
    cur = (plant.initial, *(s.initial for s in sups))
    visits, kept, forged = Counter(), set(), 0
    for k, row in enumerate(trace):
        visits[cur] += 1
        e, cfg = row["event"], row["configuration"]
        nxt = [cfg["plant_state"], *cfg["sup_states"]]
        vetoed = [v for v in plant.alphabet.events if (cur[0], v) in plant.transitions
                  and any(v in s.alphabet and (q, v) not in s.transitions
                          for s, q in zip(sups, cur[1:]))] if visits[cur] >= 3 else []
        if how == "wrong component state" and visits[cur] >= 3 and (cur, e) in kept:
            i = rng.randrange(len(nxt))
            bad = [e, *nxt]
            bad[i + 1] = rng.choice([q for q in components[i].states if q != nxt[i]])
        elif how == "event only a supervisor disables" and vetoed:
            v = rng.choice(vetoed)
            # Where the loop would be if the supervisors let v through.
            bad = [v, *(a.transitions.get((q, v), q) for a, q in zip(components, cur))]
        else:
            bad = None
        if bad:
            forgery = dict(doc, trace=[*trace[:k], {"event": bad[0], "configuration": {
                "plant_state": bad[1], "sup_states": bad[2:]}}, *trace[k + 1:]])
            assert not replay_oracle(plant, sups, forgery, sim.COMPLETION_EVENTS)
            assert not replay(plant, sups, report_from_dict(forgery))
            forged += 1
        if visits[cur] >= 2:
            kept.add((cur, e))
        cur = tuple(nxt)
    assert replay(plant, sups, report_from_dict(doc))
    assert forged >= 50


def _set(doc: dict, path: tuple, value) -> dict:
    """A copy of ``doc`` with the field at ``path`` set to ``value``, or deleted if it is _DEL."""
    doc = copy.deepcopy(doc)
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is _DEL:
        del target[last]
    else:
        target[last] = value
    return doc


_DEL = object()

MALFORMED_REPORTS = [
    # (path, value, the location in the error)
    (("trace", 1, "event"), ["C1.load"], "report.trace[1].event"),
    (("trace", 1, "configuration"), _DEL, "report.trace[1]"),
    (("trace", 1, "configuration"), ["q", []], "report.trace[1].configuration"),
    (("trace", 2, "configuration", "plant_state"), _DEL, "report.trace[2].configuration"),
    (("trace", 2, "configuration", "plant_state"), 3, "report.trace[2].configuration.plant_state"),
    (("trace", 0, "configuration", "sup_states"), "qS1_1",
     "report.trace[0].configuration.sup_states"),
    (("trace", 0, "configuration", "sup_states"), {"S1": "qS1_1"},
     "report.trace[0].configuration.sup_states"),
    (("trace", 3, "configuration", "sup_states", 1), None,
     "report.trace[3].configuration.sup_states[1]"),
    (("trace", 4), "C1.load", "report.trace[4]"),
    (("trace", 4), ["C1.load", {}], "report.trace[4]"),
    (("trace",), {"event": "C1.load"}, "report.trace"),
    (("trace",), _DEL, "report"),
    (("steps_taken",), "5", "report.steps_taken"),
    (("deadlocked",), None, "report.deadlocked"),
    (("blocked_event",), ["R.place4"], "report.blocked_event"),
    (("completions",), [["1", 0]], "report.completions"),
    (("final_marked",), _DEL, "report"),
]


@pytest.mark.parametrize("path,value,where", MALFORMED_REPORTS,
                         ids=[f"{'.'.join(map(str, p))}={'deleted' if v is _DEL else repr(v)}"
                              for p, v, _ in MALFORMED_REPORTS])
def test_malformed_report_dict_is_a_located_format_error(plant, sups, path, value, where):
    doc = report_to_dict(run(plant, sups, Random(9), 6))
    with pytest.raises(ModelFormatError) as err:
        report_from_dict(_set(doc, path, value))
    assert err.value.where == where


@pytest.mark.parametrize("doc", [None, [], "report", {"trace": []}])
def test_report_that_is_not_a_report_dict_is_a_format_error(doc):
    with pytest.raises(ModelFormatError):
        report_from_dict(doc)


def test_well_typed_tampering_replays_false_without_raising(plant, sups):
    # Every field set to another value of its own JSON type: each report
    # loads, and replay refutes it instead of raising.
    report = run(plant, sups, Random(9), 6)
    doc = report_to_dict(report)
    assert replay(plant, sups, report_from_dict(doc))
    for path, value in [(("trace", 1, "event"), "Z.nowhere"),
                        (("trace", 1, "configuration", "sup_states"), []),
                        (("trace", 1, "configuration", "sup_states"), ["a", "b", "c"]),
                        (("trace", 1, "configuration", "plant_state"), ""),
                        (("steps_taken",), -1), (("completions",), {}),
                        (("completions",), {"1": "one"}), (("blocked_event",), "Z.nowhere")]:
        assert not replay(plant, sups, report_from_dict(_set(doc, path, value)))


def _self_loops(events) -> Automaton:
    """One state with a self-loop on each event."""
    return Automaton("loops", Alphabet(tuple((e, True) for e in events)), ("q",),
                     {("q", e): "q" for e in events}, "q", ("q",))


def test_replay_cost_does_not_grow_with_the_alphabet():
    # One state with a self-loop on each of 2,000 events: a replay that
    # rebuilds the enabled set per step does 2,000 probes a step.
    events = tuple(f"e{i}" for i in range(2000))
    g = _self_loops(events)
    script = tuple(random.Random(9).choice(events) for _ in range(20_000))
    start = time.monotonic()
    report = run(g, [], Scripted(script), 20_000)
    assert report.steps_taken == 20_000
    assert replay(g, [], report)
    assert time.monotonic() - start < 2.0


def test_random_run_cost_does_not_grow_with_the_alphabet():
    # A random run that steps its one state afresh lists 2,000 choices a step.
    g = _self_loops(tuple(f"e{i}" for i in range(2000)))
    start = time.process_time()
    report = run(g, [], Random(1), 20_000)
    assert report.steps_taken == 20_000
    assert replay(g, [], report)
    assert time.process_time() - start < 1.0


def test_read_back_shares_equal_rows_and_keeps_the_bytes(plant, sups):
    # The cell's report repeats rows; the run of an 8,000-state chain repeats none.
    states = tuple(f"c{i}" for i in range(8001))
    chain = Automaton("chain", Alphabet((("go", True),)), states,
                      {(p, "go"): q for p, q in zip(states, states[1:])}, states[0], states[-1:])
    distinct = []
    for g, s in ((plant, list(sups)), (chain, [chain])):
        text = report_to_json(run(g, s, Random(3), 8000))
        report = report_from_dict(json.loads(text))
        first: dict = {}
        for row in report.trace:
            assert first.setdefault(row, row) is row
            assert type(row[1]) is Configuration
        assert report_to_json(report) == text
        distinct.append(len(first))
    assert distinct[0] < 1000 and distinct[1] == 8000


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
