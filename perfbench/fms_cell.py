"""fms_cell: the paper's corpus (384-state cell, supervisors S1 and S2), in process.

Why: this is the real traffic.  Small models meet many call kinds, so
per-call overheads show here.  Witness depth and spec size are trivial, so
this is the bypass case for minimize and witness-search changes.

Known answers come from the README and the paper, not from desctl: S1 and S2
are controllable under ``sec28`` (S1's product has 5,376 states) and fail
under ``sec2`` with witness ``| C3.load``; the modular loop is nonconflicting
over 11,520 states; KD1 and KD2 compiled over the plant alphabet are
equivalent to S1 and S2; compiled over their own events they synthesize
supervisors of 4,992 and 3,840 states, each equivalent to trim(G || S_i).
"""

from __future__ import annotations

import random
from pathlib import Path

from common import (BUILD, OTHER, VERIFY, Ctx, Job, Workload, expect, leaf_alphabet, replay,
                    sim_jobs, simulate, write_verdict)
from desctl import fms

CORPUS_FILES = sorted(
    [f"{k}.json" for k in ("C1", "C2", "C3", "R", "L", "M", "P", "A")]
    + ["G_total.json", "G_total_sec2.json", "S1.json", "S2.json",
       "KD1.expr", "KD2.expr", "events.tsv"])
CTRL_STATES_S1 = 5376
NONCONFLICT_STATES = 11520
SUPCON_STATES = {1: 4992, 2: 3840}
SIM_STEPS = 10_000


def setup(inputs: Path, seed: int) -> None:
    fms.emit(str(inputs))
    (inputs / "sim_seed.txt").write_text(f"{random.Random(seed).randrange(2**31)}\n")


def _read(ctx: Ctx, name: str) -> str:
    return (ctx.inputs / name).read_text(encoding="utf-8")


def job_emit(ctx: Ctx) -> None:
    written = ctx.call("fms.emit", str(ctx.outputs / "corpus"))
    expect("emitted files", sorted(written), CORPUS_FILES)
    g = ctx.load(ctx.outputs / "corpus" / "G_total.json")
    expect("G_total states", len(g.states), 384)


def job_ctrl(plant_file: str, cat: int, partition: str):
    def run(ctx: Ctx) -> None:
        plant = ctx.load(ctx.inputs / plant_file)
        sup = ctx.load(ctx.inputs / f"S{cat}.json")
        r = ctx.call("control.check_controllability", plant, sup)
        if partition == "sec28":
            expect(f"S{cat} controllable", (r.controllable, r.counterexample), (True, None))
            if cat == 1:
                expect("S1 states checked", r.states_checked, CTRL_STATES_S1)
        else:
            expect(f"S{cat} sec2 witness", (r.controllable, r.counterexample),
                   (False, ((), "C3.load")))
        write_verdict(ctx, f"ctrl_S{cat}_{partition}",
                      {"controllable": r.controllable, "states_checked": r.states_checked})
    return run


def job_conflict(ctx: Ctx) -> None:
    plant = ctx.load(ctx.inputs / "G_total.json")
    sups = [ctx.load(ctx.inputs / f"S{c}.json") for c in (1, 2)]
    r = ctx.call("control.check_nonconflicting", plant, sups)
    expect("nonconflicting", (r.nonconflicting, r.counterexample), (True, None))
    expect("closed-loop states", r.states_checked, NONCONFLICT_STATES)
    write_verdict(ctx, "conflict", {"nonconflicting": True, "states_checked": r.states_checked})


def job_compile_plant(cat: int):
    def run(ctx: Ctx) -> None:
        plant = ctx.load(ctx.inputs / "G_total.json")
        k = ctx.call("espec.compile_text", _read(ctx, f"KD{cat}.expr"), plant.alphabet,
                     name=f"KD{cat}")
        ctx.save(k, f"kd{cat}_plant.json")
    return run


def job_equiv_spec(cat: int):
    def run(ctx: Ctx) -> None:
        k = ctx.load(ctx.outputs / f"kd{cat}_plant.json")
        s = ctx.load(ctx.inputs / f"S{cat}.json")
        eq, witness = ctx.call("espec.equivalent", k, s)
        expect(f"KD{cat} equivalent to S{cat}", (eq, witness), (True, None))
        write_verdict(ctx, f"equiv_KD{cat}_S{cat}", {"equivalent": eq})
    return run


def job_synth(cat: int):
    def run(ctx: Ctx) -> None:
        plant = ctx.load(ctx.inputs / "G_total.json")
        text = _read(ctx, f"KD{cat}.expr")
        k = ctx.call("espec.compile_text", text, leaf_alphabet(ctx, text, plant),
                     name=f"KD{cat}")
        result = ctx.call("control.supcon", plant, k)
        expect(f"supcon KD{cat} states", len(result.states), SUPCON_STATES[cat])
        ctx.save(result, f"sup{cat}.json")
    return run


def job_equiv_synth(cat: int):
    def run(ctx: Ctx) -> None:
        plant = ctx.load(ctx.inputs / "G_total.json")
        s = ctx.load(ctx.inputs / f"S{cat}.json")
        synthesized = ctx.load(ctx.outputs / f"sup{cat}.json")
        loop = ctx.call("automata.trim", ctx.call("control.closed_loop", plant, [s]))
        eq, witness = ctx.call("espec.equivalent", synthesized, loop)
        expect(f"sup{cat} equivalent to trim(G||S{cat})", (eq, witness), (True, None))
        write_verdict(ctx, f"equiv_sup{cat}", {"equivalent": eq})
    return run


def _sim_inputs(ctx: Ctx):
    plant = ctx.load(ctx.inputs / "G_total.json")
    return plant, [ctx.load(ctx.inputs / f"S{c}.json") for c in (1, 2)]


def job_simulate(ctx: Ctx, k: int) -> None:
    plant, sups = _sim_inputs(ctx)
    seed = int(_read(ctx, "sim_seed.txt")) + k
    report = simulate(ctx, plant, sups, seed, SIM_STEPS, f"sim_report{k}.json")
    # S1 and S2 are nonconflicting and the cell never stops, so no run ends early.
    expect("simulated steps", (report.steps_taken, report.deadlocked), (SIM_STEPS, False))


def job_replay(ctx: Ctx, k: int) -> None:
    plant, sups = _sim_inputs(ctx)
    replay(ctx, plant, sups, f"sim_report{k}.json")


WORKLOAD = Workload(setup=setup, jobs=[
    Job("fms_emit", OTHER, job_emit),
    Job("check_ctrl_S1_sec28", VERIFY, job_ctrl("G_total.json", 1, "sec28")),
    Job("check_ctrl_S2_sec28", VERIFY, job_ctrl("G_total.json", 2, "sec28")),
    Job("check_ctrl_S1_sec2", VERIFY, job_ctrl("G_total_sec2.json", 1, "sec2")),
    Job("check_ctrl_S2_sec2", VERIFY, job_ctrl("G_total_sec2.json", 2, "sec2")),
    Job("check_conflict", VERIFY, job_conflict),
    Job("compile_KD1_plant", BUILD, job_compile_plant(1)),
    Job("compile_KD2_plant", BUILD, job_compile_plant(2)),
    Job("equivalent_KD1_S1", VERIFY, job_equiv_spec(1)),
    Job("equivalent_KD2_S2", VERIFY, job_equiv_spec(2)),
    Job("synth_KD1", BUILD, job_synth(1)),
    Job("synth_KD2", BUILD, job_synth(2)),
    Job("equivalent_sup1_loop", VERIFY, job_equiv_synth(1)),
    Job("equivalent_sup2_loop", VERIFY, job_equiv_synth(2)),
] + sim_jobs(job_simulate, job_replay))
