import pytest

from desctl import PARTITIONS, espec, fms
from desctl.automata import Automaton, load_automaton
from desctl.control import check_nonconflicting
from desctl.espec import equivalent
from oracles import validate


class TestMachines:
    @pytest.mark.parametrize("kind,n_states,n_events", [
        ("C1", 2, 2), ("C2", 2, 2), ("C3", 2, 2),
        ("R", 2, 14), ("L", 2, 4), ("M", 2, 2), ("P", 2, 2), ("A", 3, 6),
    ])
    def test_shape(self, kind, n_states, n_events):
        a = fms.build(kind)
        assert len(a.states) == n_states
        assert len(a.alphabet) == n_events
        assert validate(a) == []
        assert a.initial == a.states[0]
        assert a.marked == (a.states[0],)

    def test_lathe_transitions(self):
        lathe = fms.build("L")
        assert lathe.transitions == {
            ("qL_1", "L.start1"): "qL_2", ("qL_1", "L.start2"): "qL_2",
            ("qL_2", "L.done1"): "qL_1", ("qL_2", "L.done2"): "qL_1",
        }

    def test_assembly_cycle(self):
        a = fms.build("A")
        assert a.transitions.get(("qA_1", "A.on")) == "qA_2"
        assert a.transitions.get(("qA_2", "A.fromB7")) == "qA_3"
        assert a.transitions.get(("qA_3", "A.done2")) == "qA_1"

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match=r"^unknown machine kind 'Z'$"):
            fms.build("Z")

    def test_machine_alphabets_partition_the_event_table(self):
        union = [e for k in fms.MACHINE_KINDS for e in fms.build(k).alphabet.events]
        assert len(union) == 34
        assert set(union) == {row[0] for row in fms.EVENT_TABLE}


class TestPartitions:
    def test_default_uncontrollable_set(self):
        alph = fms.build_total().alphabet
        assert set(alph.uncontrollable) == {
            "C1.move", "C2.move", "C3.move", "A.done1", "A.done2"}

    def test_alternate_uncontrollable_set(self):
        alph = fms.build_total("sec2").alphabet
        assert set(alph.uncontrollable) == {
            "C1.load", "C2.load", "C3.load", "A.done1", "A.done2"}

    @pytest.mark.parametrize("call", [
        lambda p: fms.build("C1", p), lambda p: fms.build_supervisor(1, p),
        lambda p: fms.build_total(p), lambda p: fms.apply_partition(fms.build("C1"), p),
    ], ids=["build", "build_supervisor", "build_total", "apply_partition"])
    def test_unknown_partition(self, call):
        with pytest.raises(ValueError, match=r"^unknown partition 'x'$"):
            call("x")
        with pytest.raises(ValueError, match=r"^unknown partition \['sec2'\]$"):
            call(["sec2"])

    def test_partitions_are_the_shipped_ones(self):
        assert tuple(fms._UNCONTROLLABLE) == PARTITIONS

    def test_apply_partition_round_trip(self):
        g = fms.build_total()
        there = fms.apply_partition(g, "sec2")
        back = fms.apply_partition(there, "sec28")
        assert back == g
        assert there != g

    def test_apply_partition_leaves_foreign_events_alone(self):
        from desctl.automata import Alphabet
        a = Automaton("x", Alphabet((("zz", False), ("C1.load", True))),
                      ("q",), {}, "q", ("q",))
        out = fms.apply_partition(a, "sec2")
        assert out.alphabet.entries == (("zz", False), ("C1.load", False))


class TestEventTable:
    def test_row_count_and_uniqueness(self):
        assert len(fms.EVENT_TABLE) == 34
        ids = [row[0] for row in fms.EVENT_TABLE]
        syms = [row[1] for row in fms.EVENT_TABLE]
        assert len(set(ids)) == 34
        assert len(set(syms)) == 34

    def test_robot_symbol_offsets(self):
        rows = {row[0]: row[1] for row in fms.EVENT_TABLE}
        assert rows["R.pick1"] == "eR_1"
        assert rows["R.place1"] == "eR_8"
        assert rows["R.place7"] == "eR_14"

    def test_every_row_has_a_description(self):
        assert all(row[2] for row in fms.EVENT_TABLE)


class TestSupervisors:
    def test_shapes(self):
        s1, s2 = fms.build_supervisor(1), fms.build_supervisor(2)
        assert len(s1.states) == 14 and len(s1.alphabet) == 13
        assert len(s2.states) == 11 and len(s2.alphabet) == 10
        assert validate(s1) == [] and validate(s2) == []
        assert s1.marked == s1.states and s2.marked == s2.states

    def test_branch_states(self):
        s1 = fms.build_supervisor(1)
        assert s1.active("qS1_9") == ("R.place6", "R.place7")
        s2 = fms.build_supervisor(2)
        assert s2.active("qS2_6") == ("R.place5", "R.place7")

    def test_loop_closure(self):
        s1 = fms.build_supervisor(1)
        assert s1.transitions.get(("qS1_10", "A.on")) == "qS1_1"
        assert s1.transitions.get(("qS1_14", "A.on")) == "qS1_1"

    def test_unknown_category(self):
        with pytest.raises(ValueError, match=r"^unknown category 3$"):
            fms.build_supervisor(3)
        with pytest.raises(ValueError, match=r"^unknown category \[1\]$"):
            fms.build_supervisor([1])
        with pytest.raises(ValueError, match=r"^unknown category 0$"):
            fms.spec_text(0)

    def test_language_matches_expression(self):
        alph = fms.build_total().alphabet
        for cat in (1, 2):
            compiled = espec.compile_text(fms.spec_text(cat), alph)
            sup = fms.build_supervisor(cat)
            eq, witness = equivalent(compiled, sup)
            assert eq, witness


class TestTotalPlant:
    def test_size(self):
        g = fms.build_total()
        assert g.name == "G"
        assert len(g.alphabet) == 34
        assert len(g.states) == 384
        assert validate(g) == []

    def test_trim_and_nonblocking(self):
        g = fms.build_total()
        assert g.trim().states == g.states
        assert check_nonconflicting(g, ()).nonconflicting


class TestEmit:
    def test_written_files_round_trip(self, tmp_path):
        outdir = tmp_path / "corpus"
        written = fms.emit(str(outdir))
        assert len(written) == 15
        for kind in fms.MACHINE_KINDS:
            assert load_automaton(outdir / f"{kind}.json") == fms.build(kind)
        assert load_automaton(outdir / "G_total.json") == fms.build_total()
        assert load_automaton(outdir / "S1.json") == fms.build_supervisor(1)
        assert load_automaton(outdir / "S2.json") == fms.build_supervisor(2)

    def test_expression_files_parse_to_the_shipped_specs(self, tmp_path):
        fms.emit(str(tmp_path))
        for cat in (1, 2):
            text = (tmp_path / f"KD{cat}.expr").read_text()
            assert espec.parse(text) == espec.parse(fms.spec_text(cat))

    def test_event_table_file(self, tmp_path):
        fms.emit(str(tmp_path))
        lines = (tmp_path / "events.tsv").read_text().splitlines()
        assert len(lines) == 35
        header = lines[0].split("\t")
        assert header == ["id", "symbol", "description",
                          "controllable_sec28", "controllable_sec2"]
        row = dict(zip(header, lines[2].split("\t")))
        assert row["id"] == "C1.move"
        assert row["controllable_sec28"] == "false"
        assert row["controllable_sec2"] == "true"
