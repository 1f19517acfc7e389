"""``desctl`` run as a fresh interpreter: what each command imports, and the
benchmark's traced CLI runner.

In-process ``CliRunner`` tests cannot see which modules a command imports,
because earlier tests have already imported every module.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import desctl
from desctl import espec, fms
from desctl.automata import load_automaton, save_automaton

SRC = Path(desctl.__file__).resolve().parents[1]
CLI_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "cli_child.py"

# Runs the CLI on sys.argv[2:], then writes the desctl modules it imported to
# the file sys.argv[1].
LIST_IMPORTS = """
import json, sys
from desctl.cli import main
try:
    main(sys.argv[2:], prog_name="desctl")
finally:
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(sorted(m for m in sys.modules if m.startswith("desctl.")), fh)
"""

G, S1, S2 = "models/G_total.json", "models/S1.json", "models/S2.json"
CONTROL = {"automata", "compose", "control"}

# The README quick tour, --version, --help and the sec2 failure: the arguments,
# the exit code, and the desctl modules besides desctl.cli that the command
# may import.
COMMANDS = {
    "version": (["--version"], 0, set()),
    "help": (["--help"], 0, set()),
    "check-ctrl-help": (["check-ctrl", "--help"], 0, set()),
    "fms-emit": (["fms", "emit", "-o", "emitted"], 0, {"automata", "compose", "fms"}),
    "validate": (["validate", G], 0, {"automata"}),
    "check-ctrl": (["check-ctrl", "--plant", G, "--sup", S1], 0, CONTROL),
    "check-ctrl-sec2": (["check-ctrl", "--plant", G, "--sup", S1, "--partition", "sec2"], 1,
                        CONTROL | {"fms"}),
    "check-conflict": (["check-conflict", "--plant", G, "--sup", S1, "--sup", S2], 0, CONTROL),
    "compose": (["compose", G, S1, S2, "-o", "loop.json"], 0, {"automata", "compose"}),
    "compile-spec": (["compile-spec", "models/KD1.expr", "--alphabet", G, "-o", "k.json"], 0,
                     {"automata", "espec"}),
    "equivalent": (["equivalent", "kd1.json", S1], 0, {"automata", "espec"}),
    "synth": (["synth", "--plant", G, "--spec", "models/KD1.expr", "-o", "sup.json"], 0,
              CONTROL | {"espec"}),
    "simulate": (["simulate", "--plant", G, "--sup", S1, "--sup", S2, "--random",
                  "--seed", "7", "--steps", "1000"], 0, CONTROL | {"sim"}),
    "export-dot": (["export-dot", "models/C1.json"], 0, {"automata", "dot"}),
}


@pytest.fixture(scope="module")
def tour(tmp_path_factory):
    """A directory laid out as after the tour's ``fms emit`` and ``compile-spec``."""
    root = tmp_path_factory.mktemp("tour")
    fms.emit(str(root / "models"))
    kd1 = espec.compile_text((root / "models" / "KD1.expr").read_text(),
                             load_automaton(root / G).alphabet, name="KD1")
    save_automaton(kd1, root / "kd1.json")
    return root


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC), DESCTL_COLOR="0")
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("name", COMMANDS)
def test_command_imports_only_the_layers_it_runs(tour, name):
    args, code, layers = COMMANDS[name]
    proc = _run(tour, "-c", LIST_IMPORTS, str(tour / f"{name}.imports.json"), *args)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    imported = json.loads((tour / f"{name}.imports.json").read_text())
    assert set(imported) == {"desctl.cli", *(f"desctl.{m}" for m in layers)}


def test_traced_cli_runner_spans_the_calls_into_each_layer(tour):
    # perfbench/cli_child.py replaces names on desctl.cli with traced
    # wrappers; commands must call what is bound there when they run.
    spans = tour / "check_conflict.spans.json"
    proc = _run(tour, str(CLI_CHILD), str(spans), "check-conflict", "--plant", G,
                "--sup", S1, "--sup", S2)
    assert (proc.returncode, proc.stdout) == (0, "nonconflicting\n"), proc.stderr
    names = Counter(s["name"] for s in json.loads(spans.read_text()))
    assert names == {"automata.load_automaton": 3, "control.check_nonconflicting": 1}
