"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single
``criterion N (...): PASS`` or ``FAIL`` line (run pytest with ``-s`` to see
them).  Criteria are checked with their stated tolerances and time budgets.
"""

import random
import time

from desctl import espec, fms, sim
from desctl.automata import is_sublanguage, load_automaton
from desctl.compose import parallel
from desctl.control import check_controllability, check_nonconflicting, closed_loop, supcon
from desctl.espec import compile_text, equivalent, minimize
from oracles import (all_strings, ast_matches, enumerate_violations,
                     nonblocking_oracle, random_ast, random_automaton,
                     walk_generated, walk_marked)


def _criterion(num: int, title: str, budget: float, fn) -> None:
    start = time.monotonic()
    try:
        fn()
    except AssertionError:
        print(f"criterion {num} ({title}): FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"criterion {num} ({title}): PASS")


def test_criterion_1_corpus_fidelity():
    def check():
        expected = {"C1": (2, 2), "C2": (2, 2), "C3": (2, 2), "R": (2, 14),
                    "L": (2, 4), "M": (2, 2), "P": (2, 2), "A": (3, 6)}
        for kind, (n_states, n_events) in expected.items():
            a = fms.build(kind)
            assert len(a.states) == n_states, kind
            assert len(a.alphabet) == n_events, kind
        s1, s2 = fms.build_supervisor(1), fms.build_supervisor(2)
        assert len(s1.states) == 14 and len(s1.alphabet) == 13
        assert len(s2.states) == 11 and len(s2.alphabet) == 10
    _criterion(1, "corpus fidelity", 5.0, check)


def test_criterion_2_composition():
    def check():
        g = fms.build_total()
        assert len(g.alphabet) == 34
        assert len(g.states) == 384
    _criterion(2, "composition size", 1.0, check)


def test_criterion_3_language_equivalence():
    def check():
        alph = fms.build_total().alphabet
        for cat, n_min in ((1, 13), (2, 10)):
            sup = fms.build_supervisor(cat)
            compiled = compile_text(fms.spec_text(cat), alph)
            eq, witness = equivalent(compiled, sup)
            assert eq, witness
            assert len(minimize(sup).states) == n_min
    _criterion(3, "language equivalence", 1.0, check)


def test_criterion_4_controllability_default_partition():
    def check():
        g = fms.build_total()
        for cat in (1, 2):
            report = check_controllability(g, fms.build_supervisor(cat))
            assert report.controllable, report.counterexample
    _criterion(4, "controllability, default partition", 5.0, check)


def test_criterion_5_controllability_alternate_partition():
    def check():
        g = fms.build_total("sec2")
        # The stated counterexamples are genuine violations of length 2, but
        # not the shortest: conveyor 3 starts idle, C3.load is uncontrollable
        # under sec2, and both supervisors declare it yet enable it only
        # after R.place7, so the empty string already violates.
        stated = {1: (("C1.load", "C1.move"), "C1.load"),
                  2: (("C2.load", "C2.move"), "C2.load")}
        for cat in (1, 2):
            sup = fms.build_supervisor(cat, "sec2")
            report = check_controllability(g, sup)
            assert not report.controllable
            assert stated[cat] in enumerate_violations(g, sup, 2), stated[cat]
            assert report.counterexample == ((), "C3.load"), report.counterexample
    _criterion(5, "controllability, alternate partition", 5.0, check)


def test_alternate_partition_counterexample_matches_enumeration_oracle():
    # Companion to criterion 5: the checker's shortest counterexample agrees
    # with the bounded string-enumeration oracle for both supervisors.
    g = fms.build_total("sec2")
    for cat in (1, 2):
        sup = fms.build_supervisor(cat, "sec2")
        report = check_controllability(g, sup)
        assert not report.controllable
        violations = enumerate_violations(g, sup, 3)
        shortest = min(violations,
                       key=lambda v: (len(v[0]), g.alphabet.events.index(v[1])))
        assert report.counterexample == shortest == ((), "C3.load")


def test_criterion_6_conflict_analysis():
    def check():
        g = fms.build_total()
        sups = (fms.build_supervisor(1), fms.build_supervisor(2))
        report = check_nonconflicting(g, sups)
        verdict, witness = nonblocking_oracle(g, list(sups), 10 ** 6)
        assert report.nonconflicting == verdict
        if not verdict:
            assert report.counterexample == witness
        script = ("C1.load", "R.pick1", "R.place3", "M.start", "M.done",
                  "R.pick3", "R.place4")
        run = sim.run(g, sups, sim.Scripted(script), 100)
        assert run.blocked_event == "R.place4"
        assert run.steps_taken == 6  # the seventh scripted event is vetoed
    _criterion(6, "conflict analysis", 10.0, check)


def test_criterion_7_synthesis_properties():
    def check():
        g = fms.build_total()
        for cat in (1, 2):
            spec = compile_text(fms.spec_text(cat), g.alphabet)
            result = supcon(g, spec)
            assert check_controllability(g, result).controllable
            ok, witness = is_sublanguage(result, parallel([g, spec], delimiter="/"))
            assert ok, witness
            assert result.trim().states == result.states
        rng = random.Random(90)
        done = 0
        while done < 50:
            plant = random_automaton(rng, ["a", "b", "u"], name="p",
                                     uncontrollable=["u"]).trim()
            if plant.is_empty:
                continue
            spec = random_automaton(rng, ["a", "b", "u"], name="k",
                                    uncontrollable=["u"])
            result = supcon(plant, spec)
            assert check_controllability(plant, result).controllable
            if not result.is_empty:
                ok, witness = is_sublanguage(result, parallel([plant, spec]))
                assert ok, witness
                assert result.trim().states == result.states
            done += 1
    _criterion(7, "synthesis properties", 30.0, check)


def test_criterion_8_simulation_soundness():
    def check():
        g = fms.build_total()
        sups = (fms.build_supervisor(1), fms.build_supervisor(2))
        a = sim.run(g, sups, sim.Random(17), 10_000)
        b = sim.run(g, sups, sim.Random(17), 10_000)
        assert sim.report_to_json(a) == sim.report_to_json(b)
        assert sim.replay(g, sups, a)
        loop = closed_loop(g, sups)
        word = tuple(e for e, _cfg in a.trace[:200])
        for i in range(len(word) + 1):
            assert walk_generated(loop, word[:i])
    _criterion(8, "simulation soundness", 5.0, check)


def test_criterion_9_round_trips(tmp_path):
    def check():
        written = fms.emit(str(tmp_path))
        models = [f for f in written if f.endswith(".json")]
        assert len(models) == 12
        builders = {f"{k}.json": fms.build(k) for k in fms.MACHINE_KINDS}
        builders["G_total.json"] = fms.build_total()
        builders["G_total_sec2.json"] = fms.build_total("sec2").renamed("G_sec2")
        builders["S1.json"] = fms.build_supervisor(1)
        builders["S2.json"] = fms.build_supervisor(2)
        for fname in models:
            reloaded = load_automaton(tmp_path / fname)
            assert reloaded == builders[fname], fname
            eq, witness = equivalent(reloaded, builders[fname])
            assert eq, (fname, witness)
        from desctl.automata import Alphabet
        events = ["a", "b", "c"]
        alph = Alphabet(tuple((e, True) for e in events))
        rng = random.Random(91)
        words = list(all_strings(events, 6))
        for _ in range(20):
            ast = random_ast(rng, events)
            compiled = espec.compile(ast, alph)
            for w in words:
                assert walk_marked(compiled, w) == ast_matches(ast, w), (ast, w)
    _criterion(9, "round trips", 30.0, check)
