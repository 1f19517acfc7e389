import copy
import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from desctl import automata, fms
from desctl.automata import ModelFormatError, load_automaton
from desctl.cli import main
from desctl.control import closed_loop
from oracles import validate


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("corpus")
    fms.emit(str(outdir))
    return outdir


@pytest.fixture()
def runner():
    return CliRunner()


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "desctl" in result.output


def test_unknown_subcommand_is_usage_error(runner):
    result = runner.invoke(main, ["frobnicate"])
    assert result.exit_code == 2


class TestFmsEmit:
    def test_emit(self, runner, tmp_path):
        result = runner.invoke(main, ["fms", "emit", "-o", str(tmp_path / "m")])
        assert result.exit_code == 0
        assert "wrote 15 files" in result.output
        assert (tmp_path / "m" / "G_total.json").exists()


class TestValidate:
    def test_valid_model(self, runner, corpus):
        result = runner.invoke(main, ["validate", str(corpus / "C1.json")])
        assert result.exit_code == 0
        assert result.output == "ok\n"

    def test_json_verdict(self, runner, corpus):
        result = runner.invoke(main, ["validate", "--json", str(corpus / "C1.json")])
        assert result.exit_code == 0
        assert result.output == '{\n  "valid": true,\n  "diagnostics": []\n}\n'

    def test_unknown_initial_state_rejected_at_load(self, runner, corpus, tmp_path):
        doc = json.loads((corpus / "C1.json").read_text())
        doc["initial"] = "nowhere"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        result = runner.invoke(main, ["validate", str(bad)])
        assert result.exit_code == 2

    def test_malformed_file_exits_two(self, runner, tmp_path):
        bad = tmp_path / "junk.json"
        bad.write_text("{not json")
        result = runner.invoke(main, ["validate", str(bad)])
        assert result.exit_code == 2

    def test_missing_file_exits_two(self, runner):
        result = runner.invoke(main, ["validate", "no-such-file.json"])
        assert result.exit_code == 2


class TestCompose:
    def test_two_conveyors(self, runner, corpus, tmp_path):
        out = tmp_path / "c12.json"
        result = runner.invoke(main, ["compose", str(corpus / "C1.json"),
                                      str(corpus / "C2.json"), "-o", str(out)])
        assert result.exit_code == 0
        assert "4 states, 4 events" in result.output
        assert len(load_automaton(out).states) == 4

    def test_default_delimiter_doubles_on_a_collision(self, runner, corpus, tmp_path):
        # G_total's state names already join the machine states with '|'.
        models = [str(corpus / f) for f in ("G_total.json", "S1.json", "S2.json")]
        out = tmp_path / "loop.json"
        result = runner.invoke(main, ["compose", *models, "-o", str(out)])
        assert result.exit_code == 0
        loop = closed_loop(fms.build_total(), [fms.build_supervisor(1),
                                               fms.build_supervisor(2)])
        assert load_automaton(out).states == loop.states
        result = runner.invoke(main, ["compose", *models, "--delim", "|", "-o", str(out)])
        assert result.exit_code == 2

    def test_flag_conflict_exits_two(self, runner, corpus, tmp_path):
        g2 = corpus / "G_total_sec2.json"
        result = runner.invoke(main, ["compose", str(corpus / "G_total.json"),
                                      str(g2), "-o", str(tmp_path / "x.json")])
        assert result.exit_code == 2


class TestCompileSpecAndEquivalent:
    def test_compiled_spec_matches_shipped_supervisor(self, runner, corpus, tmp_path):
        out = tmp_path / "kd1.json"
        result = runner.invoke(main, [
            "compile-spec", str(corpus / "KD1.expr"),
            "--alphabet", str(corpus / "G_total.json"), "-o", str(out)])
        assert result.exit_code == 0
        assert "13 states" in result.output
        result = runner.invoke(main, ["equivalent", str(out),
                                      str(corpus / "S1.json")])
        assert result.exit_code == 0
        assert result.output == "equivalent\n"

    def test_inequivalent_pair_prints_witness(self, runner, corpus):
        result = runner.invoke(main, ["equivalent", str(corpus / "S1.json"),
                                      str(corpus / "S2.json")])
        assert result.exit_code == 1
        assert "not equivalent" in result.output

    @pytest.mark.parametrize("model_b, output", [
        ("S1.json", "\x1b[32mequivalent\x1b[0m\n"),
        ("S2.json", "\x1b[31mnot equivalent: "),
    ], ids=["green", "red"])
    def test_verdict_in_colour(self, runner, corpus, model_b, output):
        result = runner.invoke(main, ["equivalent", str(corpus / "S1.json"),
                                      str(corpus / model_b)], color=True)
        assert result.output.startswith(output)

    @pytest.mark.parametrize("model_b, output", [
        ("S1.json", "equivalent\n"),
        ("S2.json", "not equivalent: "),
    ], ids=["green", "red"])
    def test_verdict_without_colour(self, runner, corpus, model_b, output):
        # Not a terminal, or DESCTL_COLOR=0 on one: the same plain text.
        args = ["equivalent", str(corpus / "S1.json"), str(corpus / model_b)]
        plain = runner.invoke(main, args).output
        assert plain.startswith(output) and "\x1b" not in plain
        assert runner.invoke(main, args, color=True, env={"DESCTL_COLOR": "0"}).output == plain

    def test_json_output_is_deterministic(self, runner, corpus):
        args = ["equivalent", "--json", str(corpus / "S1.json"),
                str(corpus / "S2.json")]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.output == b.output
        assert json.loads(a.output)["equivalent"] is False

    def test_syntax_error_exits_two(self, runner, corpus, tmp_path):
        bad = tmp_path / "bad.expr"
        bad.write_text("(a b\n")
        result = runner.invoke(main, [
            "compile-spec", str(bad),
            "--alphabet", str(corpus / "G_total.json"),
            "-o", str(tmp_path / "o.json")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("text, message", [
        ("é", "1:1: unexpected character 'é'"),
        ("a²", "1:2: unexpected character '²'"),
        ("pc(a #c", "1:8: expected ), found end of input"),
    ], ids=["e-acute", "superscript-two", "comment-columns"])
    @pytest.mark.parametrize("command", ["compile-spec", "synth"])
    def test_syntax_error_is_located(self, runner, corpus, tmp_path, command, text, message):
        spec, plant = tmp_path / "bad.expr", str(corpus / "G_total.json")
        out = str(tmp_path / "o.json")
        spec.write_text(text, encoding="utf-8")
        result = runner.invoke(main, {
            "compile-spec": ["compile-spec", str(spec), "--alphabet", plant, "-o", out],
            "synth": ["synth", "--plant", plant, "--spec", str(spec), "-o", out]}[command])
        assert result.exit_code == 2
        assert result.stderr == f"desctl: {message}\n"


class TestMinimize:
    def test_supervisor_one(self, runner, corpus, tmp_path):
        out = tmp_path / "s1min.json"
        result = runner.invoke(main, ["minimize", str(corpus / "S1.json"),
                                      "-o", str(out)])
        assert result.exit_code == 0
        assert "13 states" in result.output
        assert "qS1_10+qS1_14" in load_automaton(out).states


class TestCheckCtrl:
    def test_default_partition_holds(self, runner, corpus):
        for sup in ("S1.json", "S2.json"):
            result = runner.invoke(main, [
                "check-ctrl", "--plant", str(corpus / "G_total.json"),
                "--sup", str(corpus / sup), "--partition", "sec28"])
            assert result.exit_code == 0
            assert result.output == "controllable\n"

    def test_alternate_partition_fails_with_witness(self, runner, corpus):
        result = runner.invoke(main, [
            "check-ctrl", "--plant", str(corpus / "G_total.json"),
            "--sup", str(corpus / "S1.json"), "--partition", "sec2"])
        assert result.exit_code == 1
        assert result.output == "| C3.load\n"

    def test_json_counterexample(self, runner, corpus):
        result = runner.invoke(main, [
            "check-ctrl", "--plant", str(corpus / "G_total.json"),
            "--sup", str(corpus / "S2.json"), "--partition", "sec2", "--json"])
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert payload["controllable"] is False
        assert payload["counterexample"] == {"s": [], "e": "C3.load"}

    def test_alphabet_mismatch_exits_two(self, runner, corpus):
        result = runner.invoke(main, [
            "check-ctrl", "--plant", str(corpus / "C1.json"),
            "--sup", str(corpus / "S1.json")])
        assert result.exit_code == 2


class TestCheckConflict:
    def test_both_supervisors(self, runner, corpus):
        result = runner.invoke(main, [
            "check-conflict", "--plant", str(corpus / "G_total.json"),
            "--sup", str(corpus / "S1.json"), "--sup", str(corpus / "S2.json"),
            "--json"])
        payload = json.loads(result.output)
        assert result.exit_code == (0 if payload["nonconflicting"] else 1)
        assert payload["states_checked"] > 0


class TestSynth:
    def test_supervisor_from_expression(self, runner, corpus, tmp_path):
        out = tmp_path / "sup.json"
        result = runner.invoke(main, [
            "synth", "--plant", str(corpus / "G_total.json"),
            "--spec", str(corpus / "KD1.expr"), "-o", str(out)])
        assert result.exit_code == 0
        synthesized = load_automaton(out)
        assert not synthesized.is_empty
        assert str(len(synthesized.states)) in result.output

    def test_empty_result_is_flagged(self, runner, corpus, tmp_path):
        out = tmp_path / "sup.json"
        result = runner.invoke(main, [
            "synth", "--plant", str(corpus / "G_total_sec2.json"),
            "--spec", str(corpus / "KD1.expr"), "-o", str(out)])
        assert result.exit_code == 0
        assert "no controllable behavior" in result.output
        assert load_automaton(out).is_empty


class TestSimulate:
    def test_scripted_block_exits_one(self, runner, corpus, tmp_path):
        script = tmp_path / "t.txt"
        script.write_text("C1.load R.pick1 R.place3 M.start M.done\n"
                          "R.pick3 R.place4  # vetoed here\n")
        result = runner.invoke(main, [
            "simulate", "--plant", str(corpus / "G_total.json"),
            "--sup", str(corpus / "S1.json"), "--sup", str(corpus / "S2.json"),
            "--script", str(script), "--steps", "100"])
        assert result.exit_code == 1
        assert "blocked on R.place4" in result.output
        assert "6 steps" in result.output

    def test_random_report_is_reproducible(self, runner, corpus, tmp_path):
        reports = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            result = runner.invoke(main, [
                "simulate", "--plant", str(corpus / "G_total.json"),
                "--sup", str(corpus / "S1.json"),
                "--sup", str(corpus / "S2.json"),
                "--random", "--seed", "11", "--steps", "300",
                "--report", str(path)])
            assert result.exit_code == 0
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]

    def test_random_run_summary_line(self, runner, corpus):
        result = runner.invoke(main, [
            "simulate", "--plant", str(corpus / "G_total.json"),
            "--sup", str(corpus / "S1.json"), "--sup", str(corpus / "S2.json"),
            "--random", "--seed", "1", "--steps", "500"])
        assert result.exit_code == 0
        assert result.output == "500 steps, completions cat1=5 cat2=2\n"

    def test_exactly_one_mode_required(self, runner, corpus, tmp_path):
        script = tmp_path / "t.txt"
        script.write_text("C1.load\n")
        result = runner.invoke(main, [
            "simulate", "--plant", str(corpus / "G_total.json"),
            "--script", str(script), "--random", "--steps", "5"])
        assert result.exit_code == 2

    def test_foreign_scripted_event_exits_two(self, runner, corpus, tmp_path):
        script = tmp_path / "t.txt"
        script.write_text("bogus.event\n")
        result = runner.invoke(main, [
            "simulate", "--plant", str(corpus / "G_total.json"),
            "--script", str(script), "--steps", "5"])
        assert result.exit_code == 2


class TestExportDot:
    def test_stdout(self, runner, corpus):
        result = runner.invoke(main, ["export-dot", str(corpus / "C1.json")])
        assert result.exit_code == 0
        assert result.output.startswith("digraph")
        assert "doublecircle" in result.output

    def test_uncontrollable_edges_dashed(self, runner, corpus):
        result = runner.invoke(main, ["export-dot", str(corpus / "C1.json")])
        assert "dashed" in result.output

    def test_file_output(self, runner, corpus, tmp_path):
        out = tmp_path / "c1.dot"
        result = runner.invoke(main, ["export-dot", str(corpus / "C1.json"),
                                      "-o", str(out)])
        assert result.exit_code == 0
        assert out.read_text().startswith("digraph")


@pytest.mark.parametrize("case", ["compose", "minimize", "export-dot", "simulate",
                                  "validate-latin1", "compile-spec-latin1",
                                  "compile-spec-deep-parens", "compile-spec-deep-pc",
                                  "validate-deep-array", "validate-deep-name",
                                  "compose-deep-array", "compose-deep-name"])
def test_input_errors_exit_two_with_one_line(runner, corpus, tmp_path, case):
    # Unwritable output paths, undecodable model files, and models or specs
    # nested too deep are input errors: one diagnostic line and exit 2, never
    # a traceback (which exits 1).
    c1, nodir = str(corpus / "C1.json"), tmp_path / "nodir"
    args = {
        "compose": ["compose", c1, str(corpus / "C2.json"),
                    "-o", str(nodir / "x.json")],
        "minimize": ["minimize", c1, "-o", str(nodir / "y.json")],
        "export-dot": ["export-dot", c1, "-o", str(nodir / "y.dot")],
        "simulate": ["simulate", "--plant", c1, "--random", "--steps", "3",
                     "--report", str(nodir / "r.json")],
        "validate-latin1": ["validate", str(tmp_path / "latin1.json")],
        "compile-spec-latin1": ["compile-spec", str(tmp_path / "latin1.expr"),
                                "--alphabet", c1, "-o", str(tmp_path / "k.json")],
        "compile-spec-deep-parens": ["compile-spec", str(tmp_path / "parens.expr"),
                                     "--alphabet", c1, "-o", str(tmp_path / "k.json")],
        "compile-spec-deep-pc": ["compile-spec", str(tmp_path / "pc.expr"),
                                 "--alphabet", c1, "-o", str(tmp_path / "k.json")],
        "validate-deep-array": ["validate", str(tmp_path / "array.json")],
        "validate-deep-name": ["validate", str(tmp_path / "name.json")],
        "compose-deep-array": ["compose", str(tmp_path / "array.json"), c1,
                               "-o", str(tmp_path / "x.json")],
        "compose-deep-name": ["compose", c1, str(tmp_path / "name.json"),
                              "-o", str(tmp_path / "x.json")],
    }[case]
    (tmp_path / "latin1.json").write_bytes('{"name": "é"}'.encode("latin-1"))
    (tmp_path / "latin1.expr").write_bytes("C1.load  # é\n".encode("latin-1"))
    (tmp_path / "parens.expr").write_text("(" * 3000 + "C1.load" + ")" * 3000)
    (tmp_path / "pc.expr").write_text("pc(" * 300 + "C1.load" + ")" * 300)
    deep = "[" * 200_000 + "]" * 200_000
    (tmp_path / "array.json").write_text(deep)
    (tmp_path / "name.json").write_text('{"name": ' + deep + "}")
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("desctl: ")
    assert "Traceback" not in result.output


_MODEL = {"name": "N", "events": [{"id": "a", "controllable": True}],
          "states": ["p", "q"], "initial": "p", "marked": ["p"],
          "transitions": [{"from": "p", "on": "a", "to": "q"}]}


@pytest.mark.parametrize("fields", [
    {"name": 7},
    {"states": 5},
    {"states": [["p"], "q"]},
    {"states": [0, 1], "initial": 0, "marked": [0],
     "transitions": [{"from": 0, "on": "a", "to": 1}]},
    {"initial": ["p"]},
    {"marked": None},
    {"marked": [["p"]]},
    {"events": {"a": True}},
    {"events": [{"id": "a", "controllable": "no"}]},
    {"transitions": "p a q"},
    {"transitions": [{"from": ["p"], "on": "a", "to": "q"}]},
    {"transitions": [{"from": "p", "on": 1, "to": "q"}]},
    {"transitions": [{"from": "p", "on": "a", "to": None}]},
], ids=lambda fields: ",".join(f"{k}={v!r}" for k, v in fields.items()))
@pytest.mark.parametrize("command", ["validate", "compose"])
def test_mistyped_model_fields_exit_two_with_one_line(runner, corpus, tmp_path,
                                                      fields, command):
    model = tmp_path / "bad.json"
    model.write_text(json.dumps({**_MODEL, **fields}))
    args = {"validate": ["validate", str(model)],
            "compose": ["compose", str(model), str(corpus / "C1.json"),
                        "-o", str(tmp_path / "out.json")]}[command]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("desctl: ")
    assert "Traceback" not in result.output


# -- fuzzing the exit-code contract -------------------------------------------

_BASE = {"name": "B",
         "events": [{"id": "a", "controllable": True}, {"id": "b", "controllable": False}],
         "states": ["p", "q", "r"], "initial": "p", "marked": ["p"],
         "transitions": [{"from": "p", "on": "a", "to": "q"}, {"from": "q", "on": "b", "to": "p"},
                         {"from": "q", "on": "a", "to": "r"}]}
# Values that are names of the model, or near misses of one.
_NAMES = st.sampled_from(["p", "q", "r", "a", "b", "c", "", "a b", "1a", "p|q", "B"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _NAMES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(_NAMES, kids, max_size=3),
    max_leaves=6)


@st.composite
def _model_text(draw) -> str:
    """The base model with one to three fields replaced, added or deleted, or its
    text cut short."""
    doc = copy.deepcopy(_BASE)
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            if not isinstance(node[key], (dict, list)) or draw(st.booleans()):
                break
            node = node[key]
        if keys and draw(st.integers(0, 4)) == 0:
            del node[key]
        elif keys and draw(st.booleans()):
            node[key] = draw(_JSON)
        elif isinstance(node, dict):
            node[draw(_NAMES)] = draw(_JSON)
        else:
            node.append(draw(_JSON))
    # Compact, or laid out as save_automaton lays a model out.
    text = json.dumps(doc) if draw(st.booleans()) else json.dumps(doc, indent=2) + "\n"
    return text[:draw(st.integers(0, len(text)))] if draw(st.integers(0, 5)) == 0 else text


_SPEC_TOKENS = st.sampled_from(["a", "b", "c", "(", ")", "+", "*", "pc(", "pc", "#", " ",
                                "\n", "1", ".", ")(", "a.b", "é", "\t", "²", "Ω", "\xa0",
                                "\u2028"])


def _assert_contract(result) -> None:
    # An uncaught exception would be a traceback and exit 1.
    assert result.exit_code in (0, 1, 2)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.output


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "base.json").write_text(json.dumps(_BASE))
    (root / "base.expr").write_text("pc((a b)*)\n")
    (root / "base.script").write_text("a b a\n")
    return root


# Derandomized, so that the suite is reproducible; raise max_examples to
# search further.
@settings(max_examples=120, deadline=None, derandomize=True)
@given(text=_model_text())
def test_fuzzed_models_keep_the_exit_code_contract(fuzz_dir, text):
    model, base = str(fuzz_dir / "m.json"), str(fuzz_dir / "base.json")
    (fuzz_dir / "m.json").write_text(text)
    out = str(fuzz_dir / "out.json")
    runner = CliRunner()
    # Slices of a row or two, so that a laid-out model's rows take several.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(automata, "_SLICE_CHARS", 64)
        for args in (["validate", model], ["compose", model, base, "-o", out],
                     ["check-ctrl", "--plant", base, "--sup", model],
                     ["check-ctrl", "--plant", model, "--sup", base],
                     ["compile-spec", str(fuzz_dir / "base.expr"), "--alphabet", model,
                      "-o", out],
                     ["equivalent", model, base],
                     ["simulate", "--plant", model, "--sup", base,
                      "--script", str(fuzz_dir / "base.script"), "--steps", "5"],
                     ["simulate", "--plant", model, "--sup", base, "--random", "--steps", "5"],
                     ["minimize", model, "-o", out], ["export-dot", model],
                     ["synth", "--plant", model, "--spec", str(fuzz_dir / "base.expr"),
                      "-o", out],
                     ["check-conflict", "--plant", model, "--sup", base],
                     ["check-conflict", "--plant", base, "--sup", model],
                     ["check-ctrl", "--partition", "sec2", "--plant", model, "--sup", base]):
            _assert_contract(runner.invoke(main, args))


# Every defect that the reference oracles.validate reports, the loader rejects.
@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=_model_text())
def test_fuzzed_models_that_load_are_valid(fuzz_dir, text):
    (fuzz_dir / "v.json").write_text(text)
    try:
        a = load_automaton(fuzz_dir / "v.json")
    except ModelFormatError:
        return
    assert validate(a) == []


@settings(max_examples=80, deadline=None, derandomize=True)
@given(tokens=st.lists(_SPEC_TOKENS, max_size=12))
def test_fuzzed_specs_and_scripts_keep_the_exit_code_contract(fuzz_dir, tokens):
    (fuzz_dir / "s.txt").write_text("".join(tokens))
    (fuzz_dir / "w.txt").write_text(" ".join(tokens))
    base, runner = str(fuzz_dir / "base.json"), CliRunner()
    for args in (["compile-spec", str(fuzz_dir / "s.txt"), "--alphabet", base,
                  "-o", str(fuzz_dir / "out.json")],
                 ["simulate", "--plant", base, "--script", str(fuzz_dir / "w.txt"),
                  "--steps", "5"]):
        _assert_contract(runner.invoke(main, args))


# Lines a user might type at the simulate prompt: choices in and out of range,
# the commands, blank lines and junk.
_PROMPT_LINES = (st.integers(-3, 12).map(str) | st.integers(13, 10**30).map(str)
                 | st.sampled_from(["undo", "state", "quit", "", "  ", " 1 ", "1.5", "0x1"])
                 | st.text(st.characters(exclude_categories=("Cs",),
                                         exclude_characters="\r\n"), max_size=8))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lines=st.lists(_PROMPT_LINES, max_size=15))
def test_fuzzed_interactive_input_keeps_the_exit_code_contract(corpus, lines):
    result = CliRunner().invoke(main, [
        "simulate", "--plant", str(corpus / "G_total.json"), "--sup", str(corpus / "S1.json"),
        "--interactive", "--steps", "10"], input="\n".join(lines))
    _assert_contract(result)
