import random
import time
import tracemalloc

import pytest

from desctl import espec, fms
from desctl.automata import (Alphabet, Automaton, empty_automaton, is_sublanguage,
                             save_automaton)
from desctl.compose import parallel, product
from desctl.control import (AlphabetError, ConflictReport, check_controllability,
                            check_nonconflicting, closed_loop, supcon)
from desctl.espec import equivalent, minimize
from desctl.sim import Random, replay, run
from oracles import (enumerate_violations, nonblocking_oracle,
                     random_automaton, supcon_oracle, validate)


@pytest.fixture(scope="module")
def plant():
    return fms.build_total()


@pytest.fixture(scope="module")
def plant_alt():
    return fms.build_total("sec2")


@pytest.fixture(scope="module")
def sups():
    return (fms.build_supervisor(1), fms.build_supervisor(2))


# Each operation given the canonical empty automaton E over the plant G's
# alphabet: the call and the result it must return.
G = fms.build_total()
E = empty_automaton("E", G.alphabet)


@pytest.mark.parametrize("call, expected", [
    (lambda: equivalent(E, E), (True, None)),
    (lambda: equivalent(G, E), (False, ())),
    (lambda: equivalent(E, G), (False, ())),
    (lambda: is_sublanguage(G, E), (False, ())),
    (lambda: check_nonconflicting(G, [E]), ConflictReport(False, (), 0)),
    (lambda: supcon(G, E), empty_automaton("G||E", G.alphabet)),
    (lambda: minimize(E), E),
    (lambda: replay(E, [], run(G, [], Random(0), 3)), False),
], ids=["equivalent-E-E", "equivalent-G-E", "equivalent-E-G", "is_sublanguage-G-E",
        "check_nonconflicting", "supcon", "minimize", "replay"])
def test_an_empty_operand(call, expected):
    assert call() == expected


def toy_plant():
    """u (uncontrollable) then b, cyclically."""
    alph = Alphabet((("u", False), ("b", True)))
    return Automaton("toy", alph, ("t0", "t1"),
                     {("t0", "u"): "t1", ("t1", "b"): "t0"}, "t0", ("t0",))


class TestClosedLoop:
    def test_no_supervisors_is_the_plant(self, plant):
        assert closed_loop(plant, ()) is plant

    def test_self_supervision_identity(self):
        c1 = fms.build("C1")
        eq, _ = equivalent(closed_loop(c1, [c1]), c1)
        assert eq

    def test_initial_enabled_events(self, plant, sups):
        loop = closed_loop(plant, sups)
        assert loop.active(loop.initial) == (
            "C1.load", "C2.load", "R.pick5", "R.pick6", "R.pick7")

    def test_foreign_event_rejected(self, plant):
        alien = Automaton("alien", Alphabet((("zz.zz", True),)), ("q",),
                          {}, "q", ("q",))
        with pytest.raises(AlphabetError):
            closed_loop(plant, [alien])


class TestControllability:
    def test_plant_supervised_by_itself(self, plant):
        report = check_controllability(plant, plant)
        assert report.controllable and report.counterexample is None

    def test_supervisors_controllable_under_default_partition(self, plant):
        for cat, reachable in ((1, 5376), (2, 4224)):
            report = check_controllability(plant, fms.build_supervisor(cat))
            assert report.controllable
            assert report.states_checked == reachable

    def test_supervisors_fail_under_alternate_partition(self, plant_alt):
        # Both supervisors declare C3.load but disable it at their initial
        # state, and the alternate partition makes it uncontrollable; the
        # violation is reachable by the empty string.
        for cat in (1, 2):
            sup = fms.build_supervisor(cat, "sec2")
            report = check_controllability(plant_alt, sup)
            assert not report.controllable
            assert report.counterexample == ((), "C3.load")
            assert report.states_checked == 1

    def test_counterexample_matches_enumeration_oracle(self, plant_alt):
        for cat in (1, 2):
            sup = fms.build_supervisor(cat, "sec2")
            violations = enumerate_violations(plant_alt, sup, 3)
            assert violations
            shortest = min(violations,
                           key=lambda v: (len(v[0]),
                                          plant_alt.alphabet.events.index(v[1])))
            report = check_controllability(plant_alt, sup)
            assert report.counterexample == shortest

    def test_counterexample_is_replayable(self, plant_alt):
        sup = fms.build_supervisor(1, "sec2")
        s, e = check_controllability(plant_alt, sup).counterexample
        qp, qs = plant_alt.initial, sup.initial
        for x in s:
            qp = plant_alt.transitions.get((qp, x))
            qs = sup.transitions.get((qs, x)) if x in sup.alphabet else qs
            assert qp is not None and qs is not None
        assert not plant_alt.alphabet.is_controllable(e)
        assert plant_alt.transitions.get((qp, e)) is not None
        assert e in sup.alphabet and sup.transitions.get((qs, e)) is None

    def test_random_instances_agree_with_oracle(self):
        rng = random.Random(40)
        for _ in range(40):
            plant = random_automaton(rng, ["a", "b", "u"], name="p",
                                     uncontrollable=["u"])
            sup = random_automaton(rng, ["a", "u"], name="s",
                                   uncontrollable=["u"])
            report = check_controllability(plant, sup)
            violations = enumerate_violations(plant, sup, 6)
            if report.controllable:
                assert not violations
            else:
                assert violations
                s, e = report.counterexample
                assert len(s) <= min(len(v[0]) for v in violations)

    def test_alphabet_violation(self):
        sup = Automaton("s", Alphabet((("x", True),)), ("q",), {}, "q", ("q",))
        with pytest.raises(AlphabetError):
            check_controllability(toy_plant(), sup)


class TestNonconflicting:
    def test_empty_supervisor_set_on_trim_plant(self, plant):
        assert check_nonconflicting(plant, ()).nonconflicting

    def test_single_supervisor_agrees_with_monolithic_trim(self, plant):
        s1 = fms.build_supervisor(1)
        report = check_nonconflicting(plant, [s1])
        loop = closed_loop(plant, [s1])
        assert report.nonconflicting == (len(loop.trim().states) == len(loop.states))

    def test_both_supervisors_agree_with_independent_oracle(self, plant, sups):
        report = check_nonconflicting(plant, sups)
        assert report.states_checked == 11520
        verdict, witness = nonblocking_oracle(plant, list(sups), 10 ** 6)
        assert report.nonconflicting == verdict
        if not verdict:
            assert report.counterexample == witness

    def test_conflicting_pair_detected(self):
        # Two supervisors that each insist on a different first event.
        alph = Alphabet((("a", True), ("b", True)))
        plant = Automaton("p", alph, ("p0", "p1"),
                          {("p0", "a"): "p1", ("p0", "b"): "p1"}, "p0", ("p1",))
        want_a = Automaton("wa", Alphabet((("a", True), ("b", True))), ("w0", "w1"),
                           {("w0", "a"): "w1"}, "w0", ("w1",))
        want_b = Automaton("wb", Alphabet((("a", True), ("b", True))), ("v0", "v1"),
                           {("v0", "b"): "v1"}, "v0", ("v1",))
        report = check_nonconflicting(plant, [want_a, want_b])
        assert not report.nonconflicting
        assert report.counterexample == ()
        assert report.states_checked == 1
        verdict, witness = nonblocking_oracle(plant, [want_a, want_b], 100)
        assert not verdict and witness == ()

    def test_random_instances_agree_with_oracle(self):
        rng = random.Random(41)
        for _ in range(30):
            plant = random_automaton(rng, ["a", "b", "c"], name="p").trim()
            if plant.is_empty:
                continue
            sup = random_automaton(rng, ["a", "b"], name="s")
            report = check_nonconflicting(plant, [sup])
            verdict, witness = nonblocking_oracle(plant, [sup], 10 ** 6)
            assert report.nonconflicting == verdict
            assert report.counterexample == witness
        # Modular systems whose plant alphabet is declared out of name order: ties
        # between blocking strings of equal length go by plant-alphabet order.
        for _ in range(60):
            events = rng.sample(["a", "b", "c"], 3)
            plant = random_automaton(rng, events, name="p")
            sups = [random_automaton(rng, rng.sample(events, rng.randint(1, 3)), 4, f"s{k}_")
                    for k in range(rng.randint(1, 2))]
            report = check_nonconflicting(plant, sups)
            verdict, witness = nonblocking_oracle(plant, sups, 10 ** 6)
            assert report.nonconflicting == verdict
            assert report.counterexample == witness

    def test_conflict_discovered_last_in_a_large_product(self):
        # The only blocking state of a 5,041-state product is the last one
        # discovered, so the witness search runs through the whole product.
        plant, sup = grid_with_one_deadlock(71)
        nodes, _ = product([plant, sup], plant.alphabet)
        assert len(nodes) == 71 * 71 and nodes[-1] == (70, 70)
        report = check_nonconflicting(plant, [sup])
        assert not report.nonconflicting
        assert report.states_checked == len(nodes)
        verdict, witness = nonblocking_oracle(plant, [sup], 10 ** 6)
        assert not verdict and report.counterexample == witness
        assert len(witness) == 140


def grid_with_one_deadlock(k: int):
    """A plant counting a's and a supervisor counting b's, each to k - 1.

    Every state is marked below the top count.  A component at the top count
    resets with its own event (ra, rb), which the other allows below its top.
    So the product is the k x k grid and only the corner (k - 1, k - 1) blocks.
    """
    top = k - 1
    alph = Alphabet((("a", True), ("b", True), ("ra", True), ("rb", True)))
    ps = tuple(f"p{i}" for i in range(k))
    pt = {(ps[i], "b"): ps[i] for i in range(k)}
    pt.update({(ps[i], "a"): ps[i + 1] for i in range(top)})
    pt.update({(ps[i], "rb"): ps[i] for i in range(top)})
    pt[(ps[top], "ra")] = ps[0]
    ss = tuple(f"s{j}" for j in range(k))
    st = {(ss[j], "b"): ss[j + 1] for j in range(top)}
    st.update({(ss[j], "ra"): ss[j] for j in range(top)})
    st[(ss[top], "rb")] = ss[0]
    return (Automaton("p", alph, ps, pt, ps[0], ps[:top]),
            Automaton("s", Alphabet(alph.entries[1:]), ss, st, ss[0], ss[:top]))


def deep_chains(depth: int):
    """A = a^depth u and B = a^depth, all states marked; u is uncontrollable."""
    alph = Alphabet((("a", True), ("u", False)))
    a_states = tuple(f"a{i}" for i in range(depth + 2))
    a_trans = {(f"a{i}", "a"): f"a{i + 1}" for i in range(depth)}
    a_trans[(f"a{depth}", "u")] = f"a{depth + 1}"
    b_states = tuple(f"b{i}" for i in range(depth + 1))
    b_trans = {(f"b{i}", "a"): f"b{i + 1}" for i in range(depth)}
    return (Automaton("A", alph, a_states, a_trans, "a0", a_states),
            Automaton("B", alph, b_states, b_trans, "b0", b_states))


@pytest.mark.parametrize("check", ["equivalent", "is_sublanguage", "check_controllability"])
def test_deep_chain_witness_in_bounded_memory(check):
    # Witness search must not keep a full path per state: on a chain of
    # 5,000 states that alone would take about 100 MB.
    a, b = deep_chains(5000)
    tracemalloc.start()
    try:
        if check == "check_controllability":
            report = check_controllability(a, b)
            assert not report.controllable
            s, e = report.counterexample
            witness = s + (e,)
        else:
            fn = equivalent if check == "equivalent" else is_sublanguage
            ok, witness = fn(a, b)
            assert not ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert witness == ("a",) * 5000 + ("u",)
    assert peak < 10 * 2 ** 20


def test_trim_of_a_trim_automaton_copies_it_once(plant, sups):
    # closed_loop(G, [S1, S2]) is already trim (11,520 states, 96,448
    # transitions); trimming it must build one restricted copy, not two.
    loop = closed_loop(plant, sups)
    tracemalloc.start()
    try:
        trimmed = loop.trim()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trimmed.states == loop.states
    assert peak < 20 * 2 ** 20


def test_product_searches_store_each_state_s_out_edges_flat(plant, sups):
    # The product of G, S1 and S2 has 11,520 states and 96,448 edges.  With
    # one flat [event, number, ...] list per state the check peaks at 4.9 MiB
    # and the closed loop at 5.6 MiB.  An (event, number) tuple per edge adds
    # about 4.4 MiB to each, and a parent pointer per state, with the state
    # tuples kept to the end, takes the check to 7.1 MiB; these bounds allow
    # neither.  A conflict's witness is read from the same lists: on the
    # 5,041-state grid whose last state blocks, the check peaks at 1.6 MiB.
    grid = grid_with_one_deadlock(71)
    for search, args, bound in ((check_nonconflicting, (plant, sups), 6),
                                (closed_loop, (plant, sups), 8),
                                (check_nonconflicting, (grid[0], grid[1:]), 6)):
        tracemalloc.start()
        try:
            search(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 2 ** 20, search.__name__


def wide_ring(n: int = 5000, width: int = 2000) -> Automaton:
    """A ring of ``n`` states over ``width`` events, one enabled per state."""
    events = tuple(f"e{i}" for i in range(width))
    states = tuple(f"r{k}" for k in range(n))
    return Automaton("ring", Alphabet(tuple((e, True) for e in events)), states,
                     {(states[k], events[k % width]): states[(k + 1) % n] for k in range(n)},
                     "r0", ("r0",))


def test_product_search_cost_does_not_grow_with_the_alphabet():
    # With a supervisor that declares one event and always enables it, a
    # step rule that probes every alphabet event does 2,000 probes a product state.
    ring = wide_ring()
    n = len(ring.states)
    sup = Automaton("one", Alphabet((("e0", True),)), ("s",), {("s", "e0"): "s"}, "s", ("s",))
    start = time.process_time()
    assert len(parallel([ring, sup]).states) == n
    assert check_controllability(ring, sup).states_checked == n
    assert check_nonconflicting(ring, [sup]).states_checked == n
    assert time.process_time() - start < 1.0


def test_verification_cost_does_not_grow_with_the_alphabet():
    # An equivalence search that probes every event of both alphabets does
    # 2,000 probes a pair state.
    ring = wide_ring()
    start = time.process_time()
    assert equivalent(ring, ring) == (True, None)
    assert ring.trim().states == ring.states
    assert time.process_time() - start < 1.0


def alternation(k: int):
    """Plant x0 -u-> y0 -c-> x1 ... xk -u-> z marked at each x and z; spec without xk -u-> z.

    Deleting xk leaves y(k-1) blocking, which leaves x(k-1) uncontrollable,
    and so on: supcon needs k rounds, and nothing survives.
    """
    alph = Alphabet((("c", True), ("u", False)))
    trans = {}
    for i in range(k):
        trans[(f"x{i}", "u")] = f"y{i}"
        trans[(f"y{i}", "c")] = f"x{i + 1}"
    marked = [f"x{i}" for i in range(k + 1)] + ["z"]
    states = marked + [f"y{i}" for i in range(k)]
    plant = Automaton("G", alph, states, {**trans, (f"x{k}", "u"): "z"}, "x0", marked)
    return plant, Automaton("K", alph, states, trans, "x0", marked)


def saved(a: Automaton, tmp_path) -> bytes:
    """The bytes of ``a``'s model file."""
    save_automaton(a, tmp_path / "saved.json")
    return (tmp_path / "saved.json").read_bytes()


class TestSupcon:
    def test_full_behavior_is_supremal(self, plant):
        result = supcon(plant, plant)
        eq, _ = equivalent(result, plant)
        assert eq

    def test_uncontrollable_root_violation_empties_the_result(self):
        plant = toy_plant()
        no_u = Automaton("spec", plant.alphabet, ("k0",), {}, "k0", ("k0",))
        assert supcon(plant, no_u).is_empty

    def test_default_partition_supervisor_is_a_fixpoint(self, plant):
        s1 = fms.build_supervisor(1)
        result = supcon(plant, s1)
        loop = closed_loop(plant, [s1])
        if len(loop.trim().states) == len(loop.states):
            eq, _ = equivalent(result, loop)
            assert eq

    def test_alternate_partition_collapses_to_empty(self, plant_alt):
        # C3.load is uncontrollable here and disabled at the initial product
        # state, so the deletion fixpoint removes everything.
        result = supcon(plant_alt, fms.build_supervisor(1, "sec2"))
        assert result.is_empty

    def test_post_conditions_on_the_corpus(self, plant):
        for cat in (1, 2):
            sup = fms.build_supervisor(cat)
            result = supcon(plant, sup)
            assert check_controllability(plant, result).controllable
            ok, _ = is_sublanguage(result, parallel([plant, sup]))
            assert ok
            assert result.trim().states == result.states

    def test_post_conditions_on_random_instances(self):
        rng = random.Random(42)
        for _ in range(50):
            plant = random_automaton(rng, ["a", "b", "u", "v"], name="p",
                                     uncontrollable=["u", "v"]).trim()
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

    def test_monotone_in_the_specification(self):
        rng = random.Random(43)
        done = 0
        while done < 20:
            plant = random_automaton(rng, ["a", "b", "u"], name="p",
                                     uncontrollable=["u"]).trim()
            big = random_automaton(rng, ["a", "b", "u"], name="k",
                                   uncontrollable=["u"])
            if plant.is_empty or not big.transitions:
                continue
            # A sub-specification: drop some transitions from the larger one.
            kept = {k: v for k, v in big.transitions.items() if rng.random() < 0.7}
            small = Automaton("k2", big.alphabet, big.states, kept,
                              big.initial, big.marked)
            lo = supcon(plant, small)
            hi = supcon(plant, big)
            ok, witness = is_sublanguage(lo, hi)
            # supcon(small)'s language must stay inside supcon(big)'s.
            sub, _ = is_sublanguage(small, big)
            if sub:
                assert ok, witness
                done += 1

    @pytest.mark.parametrize("prefix", [0, 10_000])
    def test_uncontrollable_chain_in_linear_time(self, prefix):
        # Plant p0 -c-> ... -c-> p(m) -u-> ... -u-> p(n), every state marked,
        # with m = prefix; the spec stops one u short.  Every product state
        # from p(m) on has an uncontrollable string into the disabled last u,
        # so exactly the m states before it survive.  Deleting one state per
        # round, with a reach and coreach each, is quadratic here.
        n = 20_000
        alph = Alphabet((("c", True), ("u", False)))
        word = "c" * prefix + "u" * (n - prefix)

        def chain(name, word):
            states = [f"{name}{i}" for i in range(len(word) + 1)]
            return Automaton(name, alph, states,
                             {(states[i], e): states[i + 1] for i, e in enumerate(word)},
                             states[0], states)

        plant, spec = chain("p", word), chain("k", word[:-1])
        start = time.monotonic()
        result = supcon(plant, spec)
        assert time.monotonic() - start < 10.0
        assert len(result.states) == prefix
        assert result.is_empty == (prefix == 0)

    def test_alternation_in_bounded_time(self):
        # k = 2,000 rounds, each deleting one gadget: a full reach and
        # coreach per round is quadratic here.
        plant, spec = alternation(2000)
        start = time.monotonic()
        result = supcon(plant, spec)
        assert time.monotonic() - start < 10.0
        assert result.is_empty

    def test_alternation_cost_follows_the_deletions(self):
        # k = 16,000 rounds: a round that passes over all product states makes
        # this quadratic (minutes); one that costs what it deletes takes well
        # under a second.
        plant, spec = alternation(16_000)
        start = time.process_time()
        result = supcon(plant, spec)
        assert time.process_time() - start < 3.0
        assert result.is_empty

    @pytest.mark.parametrize("cat, states", [(1, 4992), (2, 3840)])
    def test_a_spec_that_needs_no_pruning_gives_the_product(self, cat, states, tmp_path):
        # Under sec28, KD1 and KD2 over their own events are controllable and
        # nonblocking against the cell, so supcon deletes no product state.
        plant = fms.build_total()
        text = fms.spec_text(cat)
        used = set(espec.leaves(espec.parse(text)))
        spec = espec.compile_text(
            text, Alphabet(tuple(x for x in plant.alphabet.entries if x[0] in used)))
        result, composed = supcon(plant, spec), parallel([plant, spec])
        assert len(result.states) == states
        assert saved(result, tmp_path) == saved(composed, tmp_path)

    def test_random_specs_that_need_no_pruning_give_the_product(self, tmp_path):
        # The plant is trim, and the spec marks every state and takes u at each,
        # so it never disables the uncontrollable u: most such pairs need no
        # pruning, and supcon_oracle keeps every product state.
        rng = random.Random(45)
        kept = 0
        for _ in range(400):
            plant = random_automaton(rng, ["a", "b", "u"], name="p",
                                     uncontrollable=["u"]).trim()
            spec = random_automaton(rng, ["a", "b", "u"], name="k", uncontrollable=["u"])
            takes_u = {(q, "u"): rng.choice(spec.states) for q in spec.states}
            spec = Automaton("k", spec.alphabet, spec.states, {**takes_u, **spec.transitions},
                             spec.initial, spec.states)
            if plant.is_empty:
                continue
            composed = parallel([plant, spec])
            if supcon_oracle(plant, spec) == set(composed.states):
                assert saved(supcon(plant, spec), tmp_path) == saved(composed, tmp_path)
                kept += len(composed.states) > 3
        assert kept >= 30

    def test_supremal_on_random_instances(self):
        rng = random.Random(44)
        nonempty = 0
        for _ in range(300):
            plant = random_automaton(rng, ["a", "b", "u", "v"], name="p",
                                     uncontrollable=["u", "v"])
            spec = random_automaton(rng, ["a", "b", "u"], name="k",
                                    uncontrollable=["u"])
            result = supcon(plant, spec)
            assert set(result.states) == supcon_oracle(plant, spec)
            nonempty += not result.is_empty
        assert nonempty >= 50

    @pytest.mark.parametrize("k", [1, 2, 5, 20])
    def test_supremal_on_the_alternation_family(self, k):
        plant, spec = alternation(k)
        assert set(supcon(plant, spec).states) == supcon_oracle(plant, spec) == set()

    def test_unmarked_cycle_goes_once_the_attractor_removes_its_exit(self):
        # A and B keep each other as live successors, but their only way to a
        # marked state runs through X, which the uncontrollable u removes.
        alph = Alphabet((("c1", True), ("c2", True), ("c3", True), ("u", False)))
        rows = {("s0", "c1"): "A", ("A", "c2"): "B", ("B", "c2"): "A", ("B", "c3"): "X"}
        plant = Automaton("G", alph, ("s0", "A", "B", "X", "Y"),
                          {**rows, ("X", "u"): "Y"}, "s0", ("s0", "Y"))
        spec = Automaton("K", alph, ("s0", "A", "B", "X", "Y"), rows, "s0", ("s0", "Y"))
        result = supcon(plant, spec)
        assert result.states == ("s0|s0",)
        assert set(result.states) == supcon_oracle(plant, spec)

    def test_colliding_joined_names_get_a_free_delimiter(self):
        # a|b with c and a with b|c would both be named a|b|c.
        alph = Alphabet((("x", True), ("y", True)))
        plant = Automaton("G", alph, ("a|b", "a"), {("a|b", "x"): "a", ("a", "y"): "a|b"},
                          "a|b", ("a|b", "a"))
        spec = Automaton("K", alph, ("c", "b|c"), {("c", "x"): "b|c", ("b|c", "y"): "c"},
                         "c", ("c", "b|c"))
        result = supcon(plant, spec)
        assert validate(result) == []
        assert result.states == ("a|b||c", "a||b|c")

    def test_alphabet_violation(self):
        spec = Automaton("k", Alphabet((("zz", True),)), ("q",), {}, "q", ("q",))
        with pytest.raises(AlphabetError):
            supcon(toy_plant(), spec)
