"""transfer_line: Wonham & Cai's transfer line, N machines and N-1 one-slot buffers.

Each machine is idle, working or down.  Start (``a``) and repair (``m``) are
controllable; finish (``b``) and breakdown (``l``) are not.  Buffer k is the
spec ``(Mk.b Mk+1.a)*``, compiled over its own two events.

Why: breadth.  Composition, JSON writes of models with hundreds to thousands
of states, and the product searches dominate, while witnesses stay short.

Closed forms, derived by hand and not by desctl: the plant has 3^N states;
the raw buffer k is uncontrollable with witness ``Mk.a Mk.b Mk.a | Mk.b``;
supcon of buffer k has 4*3^(N-1) states (a full buffer keeps machine k idle);
the plant with all raw buffers reaches 3^N * 2^(N-1) states, and with the
synthesized supervisors 3 * 4^(N-1) states; both loops are nonconflicting.
"""

from __future__ import annotations

import random
from pathlib import Path

from common import (BUILD, VERIFY, Ctx, Job, Workload, expect, leaf_alphabet, replay,
                    sim_jobs, simulate, write_model, write_verdict)

N = 6
SIM_STEPS = 5_000
PLANT_STATES = 3 ** N
SUPCON_STATES = 4 * 3 ** (N - 1)
RAW_LOOP_STATES = 3 ** N * 2 ** (N - 1)
SUP_LOOP_STATES = 3 * 4 ** (N - 1)


def setup(inputs: Path, seed: int) -> None:
    for i in range(N):
        m = f"M{i}"
        write_model(inputs / f"{m}.json", m,
                    events=[(f"{m}.a", True), (f"{m}.b", False),
                            (f"{m}.l", False), (f"{m}.m", True)],
                    states=["I", "W", "D"], initial="I", marked=["I"],
                    transitions=[("I", f"{m}.a", "W"), ("W", f"{m}.b", "I"),
                                 ("W", f"{m}.l", "D"), ("D", f"{m}.m", "I")])
    for k in range(N - 1):
        (inputs / f"B{k}.expr").write_text(f"# buffer between M{k} and M{k + 1}\n"
                                           f"(M{k}.b M{k + 1}.a)*\n", encoding="utf-8")
    (inputs / "sim_seed.txt").write_text(f"{random.Random(seed).randrange(2**31)}\n")


def job_compose(ctx: Ctx) -> None:
    machines = [ctx.load(ctx.inputs / f"M{i}.json") for i in range(N)]
    plant = ctx.call("compose.parallel", machines)
    expect("plant states", len(plant.states), PLANT_STATES)
    ctx.save(plant.renamed("TL"), "plant.json")


def job_compile_buffers(ctx: Ctx) -> None:
    plant = ctx.load(ctx.outputs / "plant.json")
    for k in range(N - 1):
        text = (ctx.inputs / f"B{k}.expr").read_text(encoding="utf-8")
        buf = ctx.call("espec.compile_text", text, leaf_alphabet(ctx, text, plant),
                       name=f"B{k}")
        expect(f"buffer {k} states", len(buf.states), 2)
        ctx.save(buf, f"buf{k}.json")


def job_ctrl_raw(k: int):
    def run(ctx: Ctx) -> None:
        plant = ctx.load(ctx.outputs / "plant.json")
        buf = ctx.load(ctx.outputs / f"buf{k}.json")
        r = ctx.call("control.check_controllability", plant, buf)
        m = f"M{k}"
        expect(f"buffer {k} witness", (r.controllable, r.counterexample),
               (False, ((f"{m}.a", f"{m}.b", f"{m}.a"), f"{m}.b")))
        write_verdict(ctx, f"ctrl_buf{k}", {"controllable": False,
                                            "states_checked": r.states_checked})
    return run


def job_synth(k: int):
    def run(ctx: Ctx) -> None:
        plant = ctx.load(ctx.outputs / "plant.json")
        buf = ctx.load(ctx.outputs / f"buf{k}.json")
        result = ctx.call("control.supcon", plant, buf)
        expect(f"supervisor {k} states", len(result.states), SUPCON_STATES)
        ctx.save(result.renamed(f"SUP{k}"), f"sup{k}.json")
    return run


def job_conflict(prefix: str, states: int):
    def run(ctx: Ctx) -> None:
        plant = ctx.load(ctx.outputs / "plant.json")
        sups = [ctx.load(ctx.outputs / f"{prefix}{k}.json") for k in range(N - 1)]
        r = ctx.call("control.check_nonconflicting", plant, sups)
        expect("nonconflicting", (r.nonconflicting, r.counterexample), (True, None))
        expect("closed-loop states", r.states_checked, states)
        write_verdict(ctx, f"conflict_{prefix}", {"nonconflicting": True,
                                                  "states_checked": r.states_checked})
    return run


def _sim_inputs(ctx: Ctx):
    plant = ctx.load(ctx.outputs / "plant.json")
    return plant, [ctx.load(ctx.outputs / f"sup{k}.json") for k in range(N - 1)]


def job_simulate(ctx: Ctx, k: int) -> None:
    plant, sups = _sim_inputs(ctx)
    seed = int((ctx.inputs / "sim_seed.txt").read_text()) + k
    report = simulate(ctx, plant, sups, seed, SIM_STEPS, f"sim_report{k}.json")
    # The loop is nonconflicting and its marked state enables M0.a, so no
    # reachable state is a deadlock.
    expect("simulated steps", (report.steps_taken, report.deadlocked), (SIM_STEPS, False))


def job_replay(ctx: Ctx, k: int) -> None:
    plant, sups = _sim_inputs(ctx)
    replay(ctx, plant, sups, f"sim_report{k}.json")


WORKLOAD = Workload(setup=setup, jobs=(
    [Job("compose", BUILD, job_compose),
     Job("compile_buffers", BUILD, job_compile_buffers)]
    + [Job(f"check_ctrl_buf{k}", VERIFY, job_ctrl_raw(k)) for k in range(N - 1)]
    + [Job(f"synth_buf{k}", BUILD, job_synth(k)) for k in range(N - 1)]
    + [Job("check_conflict_raw", VERIFY, job_conflict("buf", RAW_LOOP_STATES)),
       Job("check_conflict_sup", VERIFY, job_conflict("sup", SUP_LOOP_STATES))]
    + sim_jobs(job_simulate, job_replay)))
