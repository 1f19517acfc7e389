"""Jobs, their context, and the calls into desctl that every workload shares.

A job mirrors one ``desctl`` command: it loads its inputs from files, calls
into a layer, checks the result against an answer known from outside the
code under test, and writes its verdict or model file.  A wrong answer raises
``JobFailure``; the runner counts it as a failed job.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from desctl import automata, compose, control, dot, espec, fms, sim

from spans import Recorder

VERIFY, BUILD, SIM, OTHER = "verify", "build", "sim", "other"


class JobFailure(Exception):
    """The program's output differs from the known answer."""


def _witness_len(witness) -> int:
    return 0 if witness is None else len(witness)


def _size(a) -> dict:
    return {"states": len(a.states), "transitions": len(a.transitions)}


# Span name -> (the desctl function, the counts taken from its arguments and
# result).  Counts come from public return values only.
LAYERS = {
    "automata.load_automaton": (automata.load_automaton,
                                lambda args, a: {"states": len(a.states)}),
    "automata.save_automaton": (automata.save_automaton,
                                lambda args, _: {"bytes": os.path.getsize(args[1])}),
    "automata.trim": (automata.Automaton.trim, lambda args, a: {"states": len(a.states)}),
    "automata.is_sublanguage": (automata.is_sublanguage,
                                lambda args, r: {"witness_len": _witness_len(r[1])}),
    "compose.parallel": (compose.parallel, lambda args, a: _size(a)),
    "control.closed_loop": (control.closed_loop, lambda args, a: _size(a)),
    "control.check_controllability": (
        control.check_controllability,
        lambda args, r: {"states_checked": r.states_checked,
                         "witness_len": 0 if r.counterexample is None
                         else len(r.counterexample[0])}),
    "control.check_nonconflicting": (
        control.check_nonconflicting,
        lambda args, r: {"states_checked": r.states_checked,
                         "witness_len": _witness_len(r.counterexample)}),
    "control.supcon": (control.supcon, lambda args, a: _size(a)),
    "espec.parse": (espec.parse, lambda args, ast: {"leaves": len(espec.leaves(ast))}),
    "espec.compile_text": (espec.compile_text, lambda args, a: _size(a)),
    "espec.minimize": (espec.minimize, lambda args, a: _size(a)),
    "espec.equivalent": (espec.equivalent,
                         lambda args, r: {"witness_len": _witness_len(r[1])}),
    "sim.run": (sim.run, lambda args, r: {"steps": r.steps_taken}),
    "sim.report_to_json": (sim.report_to_json,
                           lambda args, text: {"bytes": len(text.encode("utf-8"))}),
    "sim.replay": (sim.replay, lambda args, ok: {"steps": args[2].steps_taken}),
    "fms.emit": (fms.emit, lambda args, files: {"files": len(files)}),
    "dot.export_dot": (dot.export_dot, lambda args, text: {"bytes": len(text.encode("utf-8"))}),
}


def call(rec: Recorder, span_name: str, /, *args, **kwargs):
    """Call a desctl function inside a span named after it, and count its work."""
    fn, counts = LAYERS[span_name]
    with rec.span(span_name) as sp:
        result = fn(*args, **kwargs)
    sp.add(**counts(args, result))
    return result


@dataclass
class Ctx:
    src: Path       # the source tree under test, for subprocesses
    inputs: Path
    outputs: Path
    rec: Recorder
    # Steps per second of each simulation in the pass: sim.run plus writing
    # its report.
    sim_rates: list = field(default_factory=list)

    def call(self, span_name: str, /, *args, **kwargs):
        return call(self.rec, span_name, *args, **kwargs)

    def load(self, path: Path):
        return self.call("automata.load_automaton", path)

    def save(self, a, name: str) -> None:
        self.call("automata.save_automaton", a, self.outputs / name)


@dataclass(frozen=True)
class Job:
    name: str
    kind: str
    fn: Callable[[Ctx], None]


@dataclass
class Workload:
    """Inputs written by ``setup`` into a directory; jobs read them from there.

    ``probes`` are jobs that are known to fail at the parent commit; they run
    once per run, outside the measured passes, and their outcome is printed.
    """

    setup: Callable[[Path, int], None]
    jobs: list[Job]
    probes: list[Job] = field(default_factory=list)


def expect(what: str, got, want) -> None:
    if got != want:
        raise JobFailure(f"{what}: expected {want!r}, got {got!r}")


def write_model(path: Path, name: str, events, states, initial, marked, transitions) -> None:
    """Write a model file in desctl's JSON format without calling desctl.

    ``events`` is a list of (id, controllable); ``transitions`` of (from, on, to).
    """
    doc = {"name": name,
           "events": [{"id": e, "controllable": c} for e, c in events],
           "states": list(states), "initial": initial, "marked": list(marked),
           "transitions": [{"from": q, "on": e, "to": t} for q, e, t in transitions]}
    path.write_text(json.dumps(doc), encoding="utf-8")


def write_verdict(ctx: Ctx, name: str, payload: dict) -> None:
    (ctx.outputs / f"{name}.verdict.json").write_text(json.dumps(payload) + "\n",
                                                      encoding="utf-8")


SIM_RUNS = 3  # simulate/replay job pairs per pass, each with its own seed


def sim_jobs(simulate_fn, replay_fn) -> list:
    """SIM_RUNS pairs of jobs, each simulating with seed offset k, then replaying."""
    return [job for k in range(SIM_RUNS)
            for job in (Job(f"simulate_{k}", SIM, lambda ctx, k=k: simulate_fn(ctx, k)),
                        Job(f"replay_{k}", VERIFY, lambda ctx, k=k: replay_fn(ctx, k)))]


def simulate(ctx: Ctx, plant, sups, seed: int, steps: int, report_name: str):
    """Random-policy run and its written report, timed as one sim_steps_per_s sample."""
    t0 = time.perf_counter()
    report = ctx.call("sim.run", plant, sups, sim.Random(seed), steps)
    text = ctx.call("sim.report_to_json", report)
    (ctx.outputs / report_name).write_text(text, encoding="utf-8")
    ctx.sim_rates.append(report.steps_taken / (time.perf_counter() - t0))
    report_digest(ctx, report_name)
    return report


def report_digest(ctx: Ctx, report_name: str) -> None:
    """Add the report's digest to the job's counts, so that every pass and
    every later run with the same seed must write a byte-identical report."""
    data = (ctx.outputs / report_name).read_bytes()
    ctx.rec.job_counts[f"{report_name}.sha256"] = hashlib.sha256(data).hexdigest()


def replay(ctx: Ctx, plant, sups, report_name: str) -> None:
    doc = json.loads((ctx.outputs / report_name).read_text(encoding="utf-8"))
    ok = ctx.call("sim.replay", plant, sups, sim.report_from_dict(doc))
    expect("replay", ok, True)


def leaf_alphabet(ctx: Ctx, text: str, plant):
    """The spec's own events, in plant order, with the plant's flags."""
    used = set(espec.leaves(ctx.call("espec.parse", text)))
    return automata.Alphabet(tuple(x for x in plant.alphabet.entries if x[0] in used))


def file_lines_of_code(root: Path) -> int:
    """Non-blank lines that are not pure comments, over the package's .py files."""
    total = 0
    for path in sorted(root.rglob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            s = line.strip()
            if s and not s.startswith("#"):
                total += 1
    return total


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]
