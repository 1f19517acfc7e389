"""cli_tour: the README quick tour, one ``desctl`` subprocess per command.

Why: this is the only workload that pays interpreter start, the click import
and a JSON reload of ``G_total.json`` on every command.  The tour adds
``compose`` of the eight machine files, the ``sec2`` controllability failure
(exit 1) and a malformed model file (exit 2).  Each job checks the exit code,
the verdict line, and that stderr holds no traceback.

The package is not installed, so commands run as ``python -m desctl.cli``
with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

from common import (BUILD, OTHER, SIM, SIM_RUNS, VERIFY, Ctx, Job, JobFailure, Workload,
                    expect, report_digest)

SIM_STEPS = 1000
TIMEOUT_S = 120
CHILD = Path(__file__).resolve().parent / "cli_child.py"
MACHINES = [f"models/{k}.json" for k in ("C1", "C2", "C3", "R", "L", "M", "P", "A")]
G, S1, S2 = "models/G_total.json", "models/S1.json", "models/S2.json"


def desctl(ctx: Ctx, name: str, *args: str) -> subprocess.CompletedProcess:
    """Run one command to completion, as a span ``cli.<name>``.

    On traced passes the command runs under ``cli_child.py``, whose spans
    around the CLI's calls into each layer become children of this span.
    """
    env = dict(os.environ, PYTHONPATH=str(ctx.src), DESCTL_COLOR="0")
    spans_file = ctx.outputs / f"{name}.spans.json"
    runner = [str(CHILD), str(spans_file)] if ctx.rec.tracing else ["-m", "desctl.cli"]
    with ctx.rec.span(f"cli.{name}") as sp:
        proc = subprocess.run([sys.executable, *runner, *args],
                              cwd=ctx.outputs, env=env, capture_output=True,
                              text=True, errors="replace", timeout=TIMEOUT_S)
        if ctx.rec.tracing:
            ctx.rec.adopt(json.loads(spans_file.read_text(encoding="utf-8")))
    sp.add(exit_code=proc.returncode)
    if "Traceback" in proc.stderr:
        raise JobFailure(f"traceback on stderr: {proc.stderr.strip().splitlines()[-1]}")
    return proc


def setup(inputs: Path, seed: int) -> None:
    rng = random.Random(seed)
    # A model file cut short at a seeded offset: invalid JSON, exit 2.
    doc = '{"name": "G", "events": [{"id": "a", "controllable": true}], "states": ["q0"]}'
    (inputs / "truncated.json").write_text(doc[:rng.randrange(5, len(doc) - 1)],
                                           encoding="utf-8")
    (inputs / "sim_seed.txt").write_text(f"{rng.randrange(2**31)}\n")
    # Not UTF-8: the exit-code contract asks for exit 2 and a one-line diagnostic.
    (inputs / "latin1.json").write_bytes('{"name": "Gr\u00fc\u00dfe"}'.encode("latin-1"))


def tour_job(name: str, kind: str, args, code: int, first_line: str):
    """A command whose exit code and first stdout line are known.

    ``first_line`` is a regular expression matched against the whole line.
    """
    def run(ctx: Ctx) -> None:
        proc = desctl(ctx, name, *args)
        line = proc.stdout.splitlines()[0] if proc.stdout else ""
        expect("exit code", proc.returncode, code)
        if not re.fullmatch(first_line, line):
            raise JobFailure(f"verdict line: expected {first_line!r}, got {line!r}")
    return Job(name, kind, run)


def job_simulate(k: int):
    def run(ctx: Ctx) -> None:
        seed = int((ctx.inputs / "sim_seed.txt").read_text()) + k
        report = f"sim_report{k}.json"
        t0 = time.perf_counter()
        proc = desctl(ctx, "simulate", "simulate", "--plant", G, "--sup", S1, "--sup", S2,
                      "--random", "--seed", str(seed), "--steps", str(SIM_STEPS),
                      "--report", report)
        ctx.sim_rates.append(SIM_STEPS / (time.perf_counter() - t0))
        expect("exit code", proc.returncode, 0)
        expect("steps", proc.stdout.split(",")[0], f"{SIM_STEPS} steps")
        report_digest(ctx, report)
    return Job(f"simulate_{k}", SIM, run)

def input_error_job(name: str, filename: str):
    """``validate`` of a bad model file: exit 2 and a one-line diagnostic."""
    def run(ctx: Ctx) -> None:
        proc = desctl(ctx, name, "validate", str(ctx.inputs / filename))
        lines = proc.stderr.strip().splitlines()
        expect("exit code", proc.returncode, 2)
        expect("one-line diagnostic", (len(lines), lines[0][:8]), (1, "desctl: "))
    return Job(name, VERIFY, run)


WORKLOAD = Workload(setup=setup, jobs=[
    tour_job("startup", OTHER, ["--version"], 0, r"desctl, version \S+"),
    tour_job("fms_emit", OTHER, ["fms", "emit", "-o", "models"], 0,
             "wrote 15 files to models"),
    tour_job("validate", VERIFY, ["validate", G], 0, "ok"),
    tour_job("check_ctrl", VERIFY, ["check-ctrl", "--plant", G, "--sup", S1], 0,
             "controllable"),
    tour_job("check_ctrl_sec2", VERIFY,
             ["check-ctrl", "--plant", G, "--sup", S1, "--partition", "sec2"], 1,
             r"\| C3\.load"),
    tour_job("check_conflict", VERIFY,
             ["check-conflict", "--plant", G, "--sup", S1, "--sup", S2], 0,
             "nonconflicting"),
    tour_job("compose", BUILD, ["compose", *MACHINES, "-o", "g.json"], 0,
             r"384 states, 34 events -> g\.json"),
    tour_job("compile_spec", BUILD,
             ["compile-spec", "models/KD1.expr", "--alphabet", G, "-o", "kd1.json"], 0,
             r"\d+ states -> kd1\.json"),
    tour_job("equivalent", VERIFY, ["equivalent", "kd1.json", S1], 0, "equivalent"),
    # Over the whole plant alphabet KD1 disables every event it does not
    # mention, so synthesis leaves a single state.
    tour_job("synth", BUILD, ["synth", "--plant", G, "--spec", "models/KD1.expr",
                              "-o", "sup.json"], 0, r"1 states -> sup\.json"),
    *(job_simulate(k) for k in range(SIM_RUNS)),
    tour_job("export_dot", OTHER, ["export-dot", "models/C1.json"], 0, r'digraph "C1" \{'),
    input_error_job("validate_truncated", "truncated.json"),
], probes=[
    # Exits 1 with a traceback until model loading catches decode errors.
    # It runs once per run, outside the measured passes, and its outcome is
    # printed.
    input_error_job("validate_latin1", "latin1.json"),
])
