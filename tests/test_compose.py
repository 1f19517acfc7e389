import random
from itertools import count

import pytest

from desctl import fms
from desctl.automata import Alphabet, Automaton, explore, path_to, spelled
from desctl.compose import ComposeError, merged_alphabet, pairs, parallel, product, successors
from desctl.espec import equivalent
from oracles import (all_strings, explore_closed_loop, project, random_automaton,
                     random_modular_system, walk_generated, walk_marked)


def test_total_plant_size():
    product = parallel([fms.build(k) for k in fms.MACHINE_KINDS])
    assert len(product.alphabet) == 34
    assert len(product.states) == 384


def test_two_conveyors_shuffle():
    c1, c2 = fms.build("C1"), fms.build("C2")
    product = parallel([c1, c2])
    assert len(product.states) == 4
    # Language is the shuffle: membership iff both projections are members.
    for w in all_strings(product.alphabet.events, 4):
        expected = (walk_generated(c1, project(w, c1.alphabet))
                    and walk_generated(c2, project(w, c2.alphabet)))
        assert walk_generated(product, w) == expected


def test_single_operand_identity():
    a = fms.build("L")
    p = parallel([a])
    assert p.states == a.states
    assert equivalent(p, a)[0]


def test_commutative_up_to_language():
    a, b = fms.build("C1"), fms.build("A")
    eq, _ = equivalent(parallel([a, b]), parallel([b, a]))
    assert eq


def test_disjoint_alphabet_state_count_is_product():
    rng = random.Random(30)
    for _ in range(15):
        a = random_automaton(rng, ["a", "b"], name="x").trim()
        b = random_automaton(rng, ["c", "d"], name="y").trim()
        if a.is_empty or b.is_empty:
            continue
        p = parallel([a, b])
        reach = [explore(x.start, lambda q, x=x: pairs(x.out[q]))[0] for x in (a, b)]
        assert len(p.states) == len(reach[0]) * len(reach[1])


def test_shared_events_synchronize():
    shared = Alphabet((("go", True), ("own", True)))
    a = Automaton("a", shared, ("a0", "a1"),
                  {("a0", "go"): "a1", ("a1", "own"): "a0"}, "a0", ("a0",))
    b = Automaton("b", Alphabet((("go", True),)), ("b0", "b1"),
                  {("b0", "go"): "b1"}, "b0", ("b1",))
    p = parallel([a, b])
    assert walk_generated(p, ("go",))
    # After the one shared "go", b cannot move again.
    assert not walk_generated(p, ("go", "own", "go"))
    assert p.initial == "a0|b0"


def test_marked_requires_all_components_marked():
    a, b = fms.build("C1"), fms.build("C2")
    p = parallel([a, b])
    assert walk_generated(p, ("C1.load",))
    assert not walk_marked(p, ("C1.load",))
    assert walk_marked(p, ("C1.load", "C1.move"))


def test_marked_product_implies_marked_projections():
    rng = random.Random(31)
    a = random_automaton(rng, ["a", "b"], name="x")
    b = random_automaton(rng, ["b", "c"], name="y")
    p = parallel([a, b])
    for w in all_strings(p.alphabet.events, 4):
        if walk_marked(p, w):
            assert walk_marked(a, project(w, a.alphabet))
            assert walk_marked(b, project(w, b.alphabet))


def test_projection_containment_in_component_language():
    rng = random.Random(32)
    a = random_automaton(rng, ["a", "b"], name="x")
    b = random_automaton(rng, ["b", "c"], name="y")
    p = parallel([a, b])
    for w in all_strings(p.alphabet.events, 4):
        if walk_generated(p, w):
            assert walk_generated(a, project(w, a.alphabet))
            assert walk_generated(b, project(w, b.alphabet))


def test_composition_of_nothing_rejected():
    with pytest.raises(ComposeError):
        parallel([])


def test_controllability_disagreement_rejected():
    a = Automaton("a", Alphabet((("go", True),)), ("a0",), {}, "a0", ("a0",))
    b = Automaton("b", Alphabet((("go", False),)), ("b0",), {}, "b0", ("b0",))
    with pytest.raises(ComposeError):
        parallel([a, b])


def test_names_holding_the_delimiter_join_with_it_doubled():
    alph = Alphabet((("go", True),))
    a = Automaton("a", alph, ("a|0", "a|1"), {("a|0", "go"): "a|1"}, "a|0", ("a|1",))
    b = Automaton("b", alph, ("b0", "b1"), {("b0", "go"): "b1"}, "b0", ("b1",))
    ab = parallel([a, b])
    assert (ab.name, ab.states) == ("a||b", ("a|0||b0", "a|1||b1"))
    assert [tuple(q.split("||")) for q in ab.states] == list(zip(a.states, b.states))


def test_merged_alphabet_keeps_first_occurrence_order():
    alph = merged_alphabet([fms.build("C3"), fms.build("P")])
    assert alph.events == ("C3.load", "C3.move", "P.start", "P.done")


def test_composition_with_empty_component_is_empty():
    from desctl.automata import empty_automaton
    e = empty_automaton("e", Alphabet((("a", True),)))
    assert parallel([fms.build("C1"), e]).is_empty


def test_step_lists_events_in_alphabet_order_whatever_the_map_order():
    events = ("b", "c", "a")
    a = Automaton("a", Alphabet(tuple((e, True) for e in events)), ("q",),
                  {("q", e): "q" for e in reversed(events)}, "q", ("q",))
    step = successors([a], a.alphabet)
    assert [a.alphabet.events[e] for e, _ in step((a.start,))] == list(events)


def test_successors_rejects_an_alphabet_out_of_owner_blocks():
    # a owns x and z, b owns y: the order x, y, z splits a's block.
    a = Automaton("a", Alphabet((("x", True), ("z", True))), ("a0",),
                  {("a0", "x"): "a0", ("a0", "z"): "a0"}, "a0", ("a0",))
    b = Automaton("b", Alphabet((("y", True),)), ("b0",), {("b0", "y"): "b0"}, "b0", ("b0",))
    with pytest.raises(ValueError, match="one block"):
        successors([a, b], Alphabet((("x", True), ("y", True), ("z", True))))
    merged = merged_alphabet([a, b])
    step = successors([a, b], merged)
    assert [merged.events[e] for e, _ in step((a.start, b.start))] == ["x", "z", "y"]


def test_successors_rejects_an_event_that_no_component_declares():
    a = Automaton("a", Alphabet((("x", True),)), ("a0",), {("a0", "x"): "a0"}, "a0", ("a0",))
    with pytest.raises(ValueError, match="no component declares the event 'y'"):
        successors([a], Alphabet((("x", True), ("y", True))))


def test_product_matches_the_closed_loop_oracle():
    # The numbering and the flat out-edge lists, named, against a search over raw
    # transition dicts, on the cell and seeded modular systems.  path_to reads the
    # oracle's path to state i from the product's lists: the nonconflict check
    # spells its witness so.  explore stopped at the expansion of state i finds
    # the same path.  path_to follows the first edge into each state, taken in
    # row order, so those edges are checked against the oracle for every state.
    rng = random.Random(17)
    cases = [(fms.build_total(), [fms.build_supervisor(1), fms.build_supervisor(2)])]
    cases += [random_modular_system(rng) for _ in range(300)]
    for plant, sups in cases:
        components = [plant, *sups]
        nodes, succ = product(components, plant.alphabet)
        _depth, edges, paths = explore_closed_loop(plant, sups, 10 ** 9)
        events = plant.alphabet.events
        named = [tuple(a.states[q] for a, q in zip(components, node)) for node in nodes]
        assert named == list(paths)  # breadth-first discovery order
        for i, node in enumerate(named):
            assert [(events[e], named[j]) for e, j in pairs(succ[i])] == edges.get(node, [])
        n = len(nodes)
        via = {}  # via[j]: the row and event of the first edge into state j
        for p, row in enumerate(succ):
            for e, j in pairs(row):
                if j and j not in via:
                    via[j] = (p, e)
        assert list(via) == list(range(1, n))  # new numbers first appear in order
        for j, (p, e) in via.items():
            assert paths[named[j]] == paths[named[p]] + (events[e],)
        # path_to itself on every state of the seeded systems (at most 96 states)
        # and on 120 of the cell's 11,520: each call scans the lists up to the
        # state, so all of them would cost time quadratic in the states.
        for i in range(n) if n <= 96 else [*range(0, n, 97), n - 1]:
            assert spelled(events, path_to(succ, i)) == paths[named[i]]
        # Every stop on the seeded systems, 13 on the cell.
        step = successors(components, plant.alphabet)
        for i in range(n) if n <= 96 else [*range(0, n, 997), n - 1]:
            expanded = count()
            order, _, witness = explore(
                nodes[0], lambda node: None if next(expanded) == i else step(node))
            assert len(order) == i + 1 and order[i] == nodes[i]
            assert spelled(events, witness) == paths[named[i]]
