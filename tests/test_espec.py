import random
import string
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desctl import espec, fms
from desctl.automata import EVENT_ID_RE, Alphabet, Automaton
from desctl.espec import (Concat, Epsilon, PrefClose, SpecSyntaxError, Star, Sym,
                          Union, UnknownEventError, compile_text, equivalent,
                          minimize, parse)
from oracles import (all_strings, ast_matches, equivalent_scan, nerode_classes, random_ast,
                     random_automaton, walk_generated, walk_marked)

ABC = Alphabet((("a", True), ("b", True), ("c", True)))
# a and b merge; the state named a+b does not join them.
PLUS_NAMED = Automaton("t", Alphabet((("x", True), ("y", True))), ("a", "b", "a+b", "c"),
                       {("a+b", "x"): "a", ("a+b", "y"): "b", ("a", "x"): "c", ("b", "x"): "c"},
                       "a+b", ("c",))
FIVE = Alphabet(tuple((e, True) for e in "abcde"))


def _with_epsilon(ast, rng):
    """The expression with one leaf, and about a quarter of the rest, replaced by Epsilon."""
    n = len(espec.leaves(ast))
    index, chosen = iter(range(n)), rng.randrange(n)

    def splice(x):
        if isinstance(x, Sym):
            return Epsilon() if next(index) == chosen or rng.random() < 0.25 else x
        if isinstance(x, (Concat, Union)):
            return type(x)(tuple(map(splice, x.parts)))
        return type(x)(splice(x.child))

    return splice(ast)


def _renamed(a: Automaton, names: tuple) -> Automaton:
    """``a`` with its states named ``names``, in state order."""
    new = dict(zip(a.states, names))
    return Automaton(a.name, a.alphabet, names,
                     {(new[q], e): new[t] for (q, e), t in a.transitions.items()},
                     new[a.initial], tuple(map(new.get, a.marked)))


def _random_pair(rng):
    """Two automata over alphabets that differ in members and in order.

    Either may have a state ``ghost``, declared last, reached, left and
    perhaps marked.  Half the time b is a renamed copy of a over a reordered
    alphabet, perhaps changed in one place, so that long searches and equal
    languages occur too.
    """
    pool = list("abcde")

    def with_ghost(x, name):
        states, transitions, marked = x.states, dict(x.transitions), x.marked
        if rng.random() < 0.4:
            ghost = f"{name}ghost"
            states += (ghost,)
            transitions[(rng.choice(x.states), rng.choice(x.alphabet.events))] = ghost
            for e in rng.sample(x.alphabet.events, min(2, len(x.alphabet))):
                transitions[(ghost, e)] = rng.choice(x.states)
            marked += (ghost,) * (rng.random() < 0.5)
        return replace(x, states=states, transitions=transitions, marked=marked)

    a = with_ghost(random_automaton(rng, rng.sample(pool, rng.randint(1, 5)), name="p"), "p")
    if rng.random() < 0.5:
        return a, with_ghost(random_automaton(rng, rng.sample(pool, rng.randint(1, 5)),
                                              name="q"), "q")
    events = rng.sample(pool, len(pool))
    alphabet = Alphabet(tuple((e, True) for e in events if e in a.alphabet or rng.random() < 0.5))
    states = tuple("q" + s for s in a.states)
    transitions = {("q" + s, e): "q" + t for (s, e), t in a.transitions.items()}
    change = rng.randrange(4)
    if change == 1 and transitions:
        del transitions[rng.choice(list(transitions))]
    elif change == 2:
        transitions[(rng.choice(states), rng.choice(alphabet.events))] = rng.choice(states)
    b = Automaton("q", alphabet, states, transitions, "q" + a.initial,
                  tuple("q" + s for s in a.marked))
    if change == 3:
        b = replace(b, marked=b.marked[1:])
    return a, b


class TestParse:
    def test_star_concat(self):
        assert parse("(a b)*") == Star(Concat((Sym("a"), Sym("b"))))

    def test_precedence_star_concat_union(self):
        # a b* + c  ==  (a (b*)) + c
        assert parse("a b* + c") == Union((Concat((Sym("a"), Star(Sym("b")))),
                                           Sym("c")))

    def test_pc_node(self):
        assert parse("pc(a)") == PrefClose(Sym("a"))

    def test_whitespace_and_comments_ignored(self):
        text = "# leading comment\n  a\n  b  # trailing\n"
        assert parse(text) == Concat((Sym("a"), Sym("b")))

    def test_kd1_leaf_occurrences(self):
        leaves = espec.leaves(parse(fms.spec_text(1)))
        assert len(leaves) == 14
        assert sorted(set(leaves)) == sorted(
            ["C1.load", "R.pick1", "R.place3", "M.start", "R.pick3", "R.place4",
             "L.start1", "R.pick4", "R.place6", "R.place7", "C3.load",
             "P.start", "A.on"])
        assert leaves.count("C3.load") == 2

    def test_dangling_union_is_error_at_eof(self):
        with pytest.raises(SpecSyntaxError):
            parse("a + ")

    def test_error_carries_position(self):
        with pytest.raises(SpecSyntaxError) as err:
            parse("a\n b )")
        assert err.value.line == 2

    def test_pc_is_reserved(self):
        with pytest.raises(SpecSyntaxError):
            parse("a pc b")

    def test_unbalanced_paren(self):
        with pytest.raises(SpecSyntaxError):
            parse("(a b")

    def test_nesting_capped_at_the_opening_token(self):
        n = espec.MAX_NESTING
        assert compile_text("pc(" * n + "a b" + ")" * n, ABC) == compile_text("pc(a b)", ABC)
        assert parse("(" * n + "a" + ")" * n) == Sym("a")
        with pytest.raises(SpecSyntaxError) as err:
            parse("(" * (n + 1) + "a" + ")" * (n + 1))
        assert (err.value.line, err.value.col) == (1, n + 1)

    def test_repeated_star_is_one_star(self):
        assert parse("a***") == Star(Sym("a"))

    def test_epsilon_has_no_leaves(self):
        assert espec.leaves(Epsilon()) == []

    @pytest.mark.parametrize("build, error", [
        (lambda: Concat((Sym("a"),)), ValueError),
        (lambda: Union((Sym("a"),)), ValueError),
        (lambda: espec._positions(espec.Expr(), ABC, [], []), TypeError),
    ], ids=["concat-of-one", "union-of-one", "unknown-node"])
    def test_malformed_ast_rejected(self, build, error):
        with pytest.raises(error):
            build()

    # ASCII id characters, non-ASCII letters and digits, and a non-ASCII space.
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=st.text(string.ascii_letters + string.digits + "._é²Ω\xa0", max_size=6))
    def test_event_ids_follow_the_model_file_rule(self, text):
        if EVENT_ID_RE.match(text) and text != "pc":
            assert parse(text) == Sym(text)
        else:
            with pytest.raises(SpecSyntaxError):
                parse(text)

    @pytest.mark.parametrize("text, message", [
        ("é", "1:1: unexpected character 'é'"),
        ("a²", "1:2: unexpected character '²'"),
        ("pc(a #c", "1:8: expected ), found end of input"),  # the comment's columns count
        ("a\n b # x\n )", "3:2: expected EOF, found ')'"),
    ], ids=["e-acute", "superscript-two", "comment-columns", "comment-lines"])
    def test_error_names_its_line_and_column(self, text, message):
        with pytest.raises(SpecSyntaxError) as err:
            parse(text)
        assert str(err.value) == message
        assert f"{err.value.line}:{err.value.col}:" == message.split(" ")[0]


class TestCompile:
    def test_two_state_cycle(self):
        a = compile_text("(a b)*", ABC)
        assert len(a.states) == 2
        assert walk_marked(a, ())
        assert walk_marked(a, ("a", "b"))
        assert not walk_marked(a, ("a",))

    def test_unknown_event_named(self):
        with pytest.raises(UnknownEventError) as err:
            compile_text("a zz", ABC)
        assert "zz" in str(err.value)

    @pytest.mark.parametrize("text, unknown", [
        ("a zz yy", "zz"),
        ("(yy + a) zz", "yy"),
        ("pc((a qq)* + rr)", "qq"),
        ("a* xx* + b yy", "xx"),
    ])
    def test_first_unknown_leaf_named(self, text, unknown):
        # Of several unknown events, the first leaf from left to right is named.
        with pytest.raises(UnknownEventError) as err:
            compile_text(text, ABC)
        assert str(err.value) == f"unknown event id {unknown!r}"

    def test_alphabet_is_the_declared_one(self):
        a = compile_text("a", ABC)
        assert a.alphabet == ABC

    def test_kd1_merges_to_13_states(self):
        a = compile_text(fms.spec_text(1), fms.build_total().alphabet)
        assert len(a.states) == 13

    def test_kd2_merges_to_10_states(self):
        a = compile_text(fms.spec_text(2), fms.build_total().alphabet)
        assert len(a.states) == 10

    def test_result_is_trim(self):
        rng = random.Random(20)
        for _ in range(25):
            a = espec.compile(random_ast(rng, list("abcde")), FIVE)
            assert a.trim().states == a.states

    def test_result_is_minimal(self):
        rng = random.Random(21)
        for _ in range(25):
            a = espec.compile(random_ast(rng, list("abcde")), FIVE)
            assert len(minimize(a).states) == len(a.states)

    def test_long_star_run_compiles_like_one_star(self):
        assert compile_text("a" + "*" * 3000, ABC) == compile_text("a*", ABC)

    def test_union_order_independent(self):
        x = espec.compile(parse("a b + c"), ABC)
        y = espec.compile(parse("c + a b"), ABC)
        assert x == y

    def test_agreement_with_denotation_oracle(self):
        rng = random.Random(22)
        words = list(all_strings(list("abcde"), 6))
        for _ in range(100):
            ast = random_ast(rng, list("abcde"))
            a = espec.compile(ast, FIVE)
            for w in words:
                assert walk_marked(a, w) == ast_matches(ast, w), (ast, w)

    def test_epsilon_agrees_with_denotation_oracle(self):
        # The parser never produces Epsilon; compile accepts it in any position.
        a, b = Sym("a"), Sym("b")
        cases = [Epsilon(), Star(Epsilon()), PrefClose(Epsilon()),
                 Concat((a, Epsilon(), b)), Union((a, Epsilon()))]
        rng = random.Random(24)
        asts = (random_ast(rng, list("abc")) for _ in range(400))
        cases += [_with_epsilon(x, rng) for x in asts if not isinstance(x, Sym)][:200]
        words = list(all_strings(list("abc"), 5))
        for ast in cases:
            compiled = espec.compile(ast, ABC)
            for w in words:
                assert walk_marked(compiled, w) == ast_matches(ast, w), (ast, w)

    def test_prefclose_idempotent(self):
        rng = random.Random(23)
        for _ in range(20):
            ast = random_ast(rng, list("abc"), depth=2)
            once = espec.compile(espec.PrefClose(ast), ABC)
            twice = espec.compile(espec.PrefClose(espec.PrefClose(ast)), ABC)
            eq, _ = equivalent(once, twice)
            assert eq

    def test_prefclose_marks_every_state(self):
        a = compile_text(fms.spec_text(1), fms.build_total().alphabet)
        assert set(a.marked) == set(a.states)


class TestMinimize:
    def test_supervisor_one(self):
        assert len(minimize(fms.build_supervisor(1)).states) == 13

    def test_supervisor_two(self):
        assert len(minimize(fms.build_supervisor(2)).states) == 10

    def test_merged_pairs_named_after_members(self):
        m = minimize(fms.build_supervisor(1))
        assert "qS1_10+qS1_14" in m.states

    def test_idempotent(self):
        m = minimize(fms.build_supervisor(1))
        again = minimize(m)
        assert len(again.states) == len(m.states)
        assert equivalent(m, again)[0]

    def test_preserves_both_languages(self):
        rng = random.Random(24)
        for _ in range(40):
            a = random_automaton(rng, ["a", "b"])
            m = minimize(a)
            eq, witness = equivalent(a, m)
            assert eq, witness

    def test_blocks_are_the_nerode_classes(self):
        # The blocks read back from the joined names must be exactly the
        # brute-force classes, members in state order and blocks ordered by
        # their first member.  An unmarked dead end and an unmarked state
        # whose only edge leads to it differ on the generated language.  Where
        # a state name holds '+', the members are joined by '++'.
        rng = random.Random(27)
        cases = [Automaton("t", Alphabet((("a", True),)), ("q0", "q1"),
                           {("q0", "a"): "q1"}, "q0", ()), PLUS_NAMED]
        for _ in range(150):
            a = random_automaton(rng, ["a", "b", "c"], max_states=6)
            cases += [a, replace(a, marked=()), replace(a, marked=a.states)]
        for a in cases:
            delimiter = "++" if any("+" in q for q in a.states) else "+"
            blocks = [name.split(delimiter) for name in minimize(a).states]
            assert {frozenset(b) for b in blocks} == nerode_classes(a)
            order = {q: i for i, q in enumerate(a.states)}
            assert all(b == sorted(b, key=order.get) for b in blocks)
            firsts = [order[b[0]] for b in blocks]
            assert firsts == sorted(firsts)
            # Also checked: the case with a state of another block named the
            # '+'-join of a two-state block, as in PLUS_NAMED.
            pair = next((b for b in blocks if len(b) == 2), None)
            other = next((b[0] for b in blocks if b is not pair), None)
            if delimiter == "+" and pair and other:
                cases.append(_renamed(a, tuple("+".join(pair) if q == other else q
                                               for q in a.states)))

    def test_long_chain_in_linear_time(self):
        # Marked only at its end, every state of the chain is its own block;
        # refinement that splits off one state per round is quadratic here.
        n = 20_000
        states = [f"q{i}" for i in range(n + 1)]
        a = Automaton("chain", Alphabet((("a", True),)), states,
                      {(states[i], "a"): states[i + 1] for i in range(n)},
                      "q0", states[-1:])
        start = time.monotonic()
        m = minimize(a)
        assert time.monotonic() - start < 10.0
        assert len(m.states) == n + 1

    def test_no_sink_completion(self):
        # A dead-end state must survive minimization: the generated language
        # is preserved exactly, not just the marked one.
        from desctl.automata import Automaton
        a = Automaton("t", Alphabet((("a", True),)), ("q1", "q2"),
                      {("q1", "a"): "q2"}, "q1", ("q1",))
        m = minimize(a)
        assert len(m.states) == 2


class TestEquivalent:
    def test_supervisors_match_their_expressions(self):
        alph = fms.build_total().alphabet
        assert equivalent(compile_text(fms.spec_text(1), alph),
                          fms.build_supervisor(1))[0]
        assert equivalent(compile_text(fms.spec_text(2), alph),
                          fms.build_supervisor(2))[0]

    def test_disjoint_machines_distinguished_immediately(self):
        eq, witness = equivalent(fms.build("C1"), fms.build("L"))
        assert not eq
        assert len(witness) == 1

    def test_distinguishing_string_is_real(self):
        rng = random.Random(25)
        for _ in range(40):
            a = random_automaton(rng, ["a", "b"], name="x")
            b = random_automaton(rng, ["a", "b"], name="y")
            eq, witness = equivalent(a, b)
            if not eq:
                assert (walk_generated(a, witness) != walk_generated(b, witness)
                        or walk_marked(a, witness) != walk_marked(b, witness))

    def test_matches_the_alphabet_scan(self):
        # equivalent_scan probes every event at every pair state; walking a's
        # out-edges must give the same verdict and the same witness,
        # tie-break included.
        rng = random.Random(27)
        outcomes = set()
        for _ in range(600):
            a, b = _random_pair(rng)
            result = equivalent(a, b)
            assert result == equivalent_scan(a, b)
            assert equivalent(b, a) == equivalent_scan(b, a)
            outcomes.add("equal" if result[0] else min(len(result[1]), 3))
        assert outcomes == {"equal", 0, 1, 2, 3}

    def test_is_an_equivalence_relation(self):
        rng = random.Random(26)
        pool = [random_automaton(rng, ["a", "b"], name=f"r{i}") for i in range(6)]
        pool += [minimize(p) for p in pool]
        for a in pool:
            assert equivalent(a, a)[0]
        for a in pool:
            for b in pool:
                assert equivalent(a, b)[0] == equivalent(b, a)[0]
        for a in pool:
            for b in pool:
                for c in pool:
                    if equivalent(a, b)[0] and equivalent(b, c)[0]:
                        assert equivalent(a, c)[0]
