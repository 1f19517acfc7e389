"""deep_recipe: long seeded recipes over four corpus events.

Why: depth.  Compiling an L-event batch recipe runs about L rounds of
partition refinement, and a D-deep witness search keeps one path per state,
so time and peak memory grow with L and D while the alphabet stays at four
events and nothing is composed.  This is the bypass case for composition and
model I/O changes.

Known answers follow from how the inputs are built: ``pc(recipe)`` compiles
to a chain of L+1 states that spells the recipe; the variant differs only in
its last event, so the distinguishing string has length L; the recipe loop
unrolled twice, marked at 0 and L, minimizes to L states, because the
distance to the next marked state tells positions apart modulo L; the
deep models A (D+1 events, the last uncontrollable) and B (the first D)
give witnesses of length D+1 (``equivalent``, ``is_sublanguage``) and D
(``check_controllability``).
"""

from __future__ import annotations

import random
from pathlib import Path

from common import (BUILD, VERIFY, Ctx, Job, Workload, expect, replay, sim_jobs, simulate,
                    write_model, write_verdict)
from desctl import espec

L = 600
D = 8_000
EVENTS = (("C1.load", True), ("C1.move", False), ("R.pick1", True), ("R.place1", True))
IDS = tuple(e for e, _ in EVENTS)
UNCONTROLLABLE = "C1.move"


def _recipe(rng: random.Random) -> list[str]:
    """A batch: one seeded cycle of 3 to 8 steps, repeated to L events.

    Positions one cycle apart differ only in their distance to the end, so
    Moore refinement needs about L rounds to tell them apart.
    """
    cycle = [rng.choice(IDS) for _ in range(rng.randint(3, 8))]
    return (cycle * (L // len(cycle) + 1))[:L]


def _chain(path: Path, name: str, word: list[str]) -> None:
    states = [f"r{i}" for i in range(len(word) + 1)]
    write_model(path, name, EVENTS, states, "r0", states,
                [(states[i], e, states[i + 1]) for i, e in enumerate(word)])


def setup(inputs: Path, seed: int) -> None:
    rng = random.Random(seed)
    recipe = _recipe(rng)
    last = rng.choice([e for e in IDS if e != recipe[-1]])
    variant = recipe[:-1] + [last]
    deep = [rng.choice(IDS) for _ in range(D)] + [UNCONTROLLABLE]
    (inputs / "recipe.txt").write_text(" ".join(recipe) + "\n", encoding="utf-8")
    (inputs / "variant.txt").write_text(" ".join(variant) + "\n", encoding="utf-8")
    (inputs / "deep.txt").write_text(" ".join(deep) + "\n", encoding="utf-8")
    (inputs / "recipe.expr").write_text(f"pc({' '.join(recipe)})\n", encoding="utf-8")
    (inputs / "variant.expr").write_text(f"pc({' '.join(variant)})\n", encoding="utf-8")
    write_model(inputs / "alphabet.json", "events", EVENTS, ["q"], "q", ["q"], [])
    loop = [f"l{i}" for i in range(2 * L)]
    write_model(inputs / "loop.json", "loop", EVENTS, loop, "l0", ["l0", f"l{L}"],
                [(loop[i], e, loop[(i + 1) % (2 * L)]) for i, e in enumerate(recipe + recipe)])
    _chain(inputs / "deep_a.json", "deep_a", deep)
    _chain(inputs / "deep_b.json", "deep_b", deep[:D])
    (inputs / "sim_seed.txt").write_text(f"{rng.randrange(2**31)}\n")


def _word(ctx: Ctx, name: str) -> tuple[str, ...]:
    return tuple((ctx.inputs / name).read_text(encoding="utf-8").split())


def _spells(a, word) -> bool:
    q = a.initial
    for e in word:
        q = a.transitions.get((q, e))
        if q is None:
            return False
    return not a.active(q)


def job_compile(stem: str):
    def run(ctx: Ctx) -> None:
        alphabet = ctx.load(ctx.inputs / "alphabet.json").alphabet
        text = (ctx.inputs / f"{stem}.expr").read_text(encoding="utf-8")
        word = _word(ctx, f"{stem}.txt")
        expect(f"{stem} leaves", len(espec.leaves(ctx.call("espec.parse", text))), L)
        a = ctx.call("espec.compile_text", text, alphabet, name=stem)
        expect(f"{stem} states", (len(a.states), len(a.transitions), len(a.marked)),
               (L + 1, L, L + 1))
        expect(f"{stem} spells the recipe", _spells(a, word), True)
        ctx.save(a, f"{stem}.json")
    return run


def job_equiv_variant(ctx: Ctx) -> None:
    a = ctx.load(ctx.outputs / "recipe.json")
    b = ctx.load(ctx.outputs / "variant.json")
    recipe, variant = _word(ctx, "recipe.txt"), _word(ctx, "variant.txt")
    # Ties between the two last events go to the earlier one in alphabet order.
    last = min(recipe[-1], variant[-1], key=IDS.index)
    eq, witness = ctx.call("espec.equivalent", a, b)
    expect("recipe vs variant", (eq, witness), (False, recipe[:-1] + (last,)))
    write_verdict(ctx, "equiv_variant", {"equivalent": eq, "witness_len": len(witness)})


def job_minimize(ctx: Ctx) -> None:
    m = ctx.call("espec.minimize", ctx.load(ctx.inputs / "loop.json"))
    expect("minimized loop states", len(m.states), L)
    ctx.save(m, "loop_min.json")


def _deep(ctx: Ctx):
    return ctx.load(ctx.inputs / "deep_a.json"), ctx.load(ctx.inputs / "deep_b.json")


def job_equiv_deep(ctx: Ctx) -> None:
    a, b = _deep(ctx)
    eq, witness = ctx.call("espec.equivalent", a, b)
    expect("deep equivalent", (eq, witness), (False, _word(ctx, "deep.txt")))
    write_verdict(ctx, "equiv_deep", {"equivalent": eq, "witness_len": len(witness)})


def job_sublanguage_deep(ctx: Ctx) -> None:
    a, b = _deep(ctx)
    sub, witness = ctx.call("automata.is_sublanguage", a, b)
    expect("deep sublanguage", (sub, witness), (False, _word(ctx, "deep.txt")))
    write_verdict(ctx, "sublanguage_deep", {"sublanguage": sub, "witness_len": len(witness)})


def job_ctrl_deep(ctx: Ctx) -> None:
    a, b = _deep(ctx)
    r = ctx.call("control.check_controllability", a, b)
    deep = _word(ctx, "deep.txt")
    expect("deep controllability", (r.controllable, r.counterexample),
           (False, (deep[:D], deep[D])))
    write_verdict(ctx, "ctrl_deep", {"controllable": False, "witness_len": D})


def job_simulate(ctx: Ctx, k: int) -> None:
    a, b = _deep(ctx)
    seed = int((ctx.inputs / "sim_seed.txt").read_text()) + k
    report = simulate(ctx, a, [b], seed, D, f"sim_report{k}.json")
    expect("deep run", tuple(e for e, _ in report.trace), _word(ctx, "deep.txt")[:D])


def job_replay(ctx: Ctx, k: int) -> None:
    a, b = _deep(ctx)
    replay(ctx, a, [b], f"sim_report{k}.json")


WORKLOAD = Workload(setup=setup, jobs=[
    Job("compile_recipe", BUILD, job_compile("recipe")),
    Job("compile_variant", BUILD, job_compile("variant")),
    Job("equivalent_variant", VERIFY, job_equiv_variant),
    Job("minimize_loop", BUILD, job_minimize),
    Job("equivalent_deep", VERIFY, job_equiv_deep),
    Job("is_sublanguage_deep", VERIFY, job_sublanguage_deep),
    Job("check_ctrl_deep", VERIFY, job_ctrl_deep),
] + sim_jobs(job_simulate, job_replay))
