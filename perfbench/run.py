"""desctl benchmark: one workload per run, a closed loop with one client.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fms_cell --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

``all`` runs the four workloads one after another, each in a fresh
interpreter, so that peak memory is per workload.

The run writes the workload's inputs from ``--seed`` (several times, to time
set-up), then repeats passes over the workload's jobs until ``--seconds`` are
used.  Every job checks its output against a known answer; a wrong answer, an
exception or a count that differs from an earlier pass or run counts as a
failed job.  The last line of stdout is one JSON object: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics taken from
spans around every call into desctl.  A traced run alternates untraced and
traced passes, and the difference between their medians is reported as the
tracing overhead.  Lines before it give every metric's median, percentile
and sample count, and the run's metadata.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HASH_SEED = "0"
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
    # Restart with a fixed hash seed, so that set and dict orders, and with
    # them timings and peak memory, repeat between runs.
    os.execve(sys.executable, [sys.executable, *sys.argv],
              dict(os.environ, PYTHONHASHSEED=HASH_SEED))

# desctl is measured from this checkout's sources, never from an installed copy.
if not (SRC / "desctl" / "__init__.py").is_file():
    print(f"perfbench: no desctl sources under {SRC}", file=sys.stderr)
    raise SystemExit(2)
sys.path.insert(0, str(SRC))
from common import BUILD, VERIFY, Ctx, JobFailure, file_lines_of_code, source_digest  # noqa: E402
from spans import Recorder, self_times, span_dicts  # noqa: E402

WORKLOADS = ("fms_cell", "transfer_line", "deep_recipe", "cli_tour")
# Other tenants of the host slow this machine down by up to 2x, in phases
# that last from a second to minutes, and CPU time slows with wall time.  So
# every job and set-up is timed between two runs of a fixed reference loop,
# and its time is reported on a nominal machine: one that runs the loop in
# REF_S, about what an uncontended 2-vCPU Intel Xeon host takes.  The raw
# wall times are printed beside them.
REF_S = 0.004
# Set-up is timed a few times before the first pass and again after every
# pass, so that its samples are spread over the run like the passes are.
SETUP_FIRST, SETUP_PER_PASS = 3, 2
MIN_PASSES = 2

END_TO_END = {
    "run_s": "s", "verify_s": "s", "build_s": "s", "sim_steps_per_s": "steps/s",
    "setup_s": "s", "peak_rss_mb": "MB",
}
CLI_COMMANDS = ("startup", "fms_emit", "validate", "check_ctrl", "check_ctrl_sec2",
                "check_conflict", "compose", "compile_spec", "equivalent", "synth",
                "simulate", "export_dot", "validate_truncated")
# name -> (unit, span names, the count summed over those spans, or None for
# their summed self time).  A layer that a workload does not call reads 0.
PER_LAYER = {
    "automata.load_s": ("s", ["automata.load_automaton"], None),
    "automata.save_s": ("s", ["automata.save_automaton"], None),
    "automata.save_bytes": ("bytes", ["automata.save_automaton"], "bytes"),
    "automata.trim_s": ("s", ["automata.trim"], None),
    "automata.is_sublanguage_s": ("s", ["automata.is_sublanguage"], None),
    "compose.parallel_s": ("s", ["compose.parallel"], None),
    "compose.parallel_states": ("count", ["compose.parallel"], "states"),
    "control.closed_loop_s": ("s", ["control.closed_loop"], None),
    "control.ctrl_s": ("s", ["control.check_controllability"], None),
    "control.ctrl_states_checked": ("count", ["control.check_controllability"],
                                    "states_checked"),
    "control.nonconflict_s": ("s", ["control.check_nonconflicting"], None),
    "control.nonconflict_states_checked": ("count", ["control.check_nonconflicting"],
                                           "states_checked"),
    "control.supcon_s": ("s", ["control.supcon"], None),
    "control.supcon_states_out": ("count", ["control.supcon"], "states"),
    "control.witness_len": ("count", ["control.check_controllability",
                                      "control.check_nonconflicting"], "witness_len"),
    "espec.parse_s": ("s", ["espec.parse"], None),
    "espec.compile_s": ("s", ["espec.compile_text"], None),
    "espec.compile_states_out": ("count", ["espec.compile_text"], "states"),
    "espec.minimize_s": ("s", ["espec.minimize"], None),
    "espec.equivalent_s": ("s", ["espec.equivalent"], None),
    "espec.witness_len": ("count", ["espec.equivalent", "automata.is_sublanguage"],
                          "witness_len"),
    "sim.run_s": ("s", ["sim.run"], None),
    "sim.steps": ("count", ["sim.run"], "steps"),
    "sim.report_json_s": ("s", ["sim.report_to_json"], None),
    "sim.replay_s": ("s", ["sim.replay"], None),
    "fms.emit_s": ("s", ["fms.emit"], None),
    **{f"cli.{c}_s": ("s", [f"cli.{c}"], None) for c in CLI_COMMANDS},
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def percentile_line(values: list[float]) -> str:
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    ordered = sorted(values)
    best = None
    for p in (50, 90, 99, 99.9):
        if n * (100 - p) / 100 >= 10:
            best = (p, ordered[min(n - 1, int(n * p / 100))])
    tail = f"p{best[0]:g}={best[1]:.6g}" if best else "no percentile has 10 samples beyond it"
    return f"median={statistics.median(values):.6g} {tail} n={n}"


def reference_time() -> float:
    """Wall time of fixed interpreter work like desctl's product searches: a
    dict of 20,000 tuple keys, whose few megabytes meet the same cache
    contention.  The collector is off, so that the loop's work never varies."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        seen: dict = {}
        for i in range(20_000):
            seen[(i, str(i))] = i
        return time.perf_counter() - t0
    finally:
        gc.enable()


def run_pass(workload, ctx, rec, index: int, first_counts: dict) -> dict:
    """One pass over the jobs; returns its timings, sim rates and failures."""
    jobs = {}
    failures = {}
    ctx.sim_rates = []
    t_pass = time.perf_counter()
    with rec.span("run", job=None):
        for job in workload.jobs:
            gc.collect()
            rec.job_counts = {}
            first_rate = len(ctx.sim_rates)
            ref_before = reference_time()
            t0 = time.perf_counter()
            try:
                with rec.span(f"job.{job.name}", job=job.name):
                    job.fn(ctx)
            except Exception as exc:  # every job failure is counted, never raised
                failures[job.name] = f"{type(exc).__name__}: {exc}"
                if not isinstance(exc, JobFailure):
                    traceback.print_exc(file=sys.stderr)
            raw = time.perf_counter() - t0
            scale = 2 * REF_S / (ref_before + reference_time())
            jobs[job.name] = {"kind": job.kind, "s": raw * scale, "raw_s": raw, "scale": scale}
            ctx.sim_rates[first_rate:] = [r / scale for r in ctx.sim_rates[first_rate:]]
            counts = rec.job_counts
            if job.name not in first_counts:
                first_counts[job.name] = counts
            elif counts != first_counts[job.name]:
                failures.setdefault(job.name, f"counts differ from pass 0: "
                                              f"{first_counts[job.name]} != {counts}")
    return {"index": index, "traced": rec.tracing, "dur": time.perf_counter() - t_pass,
            "jobs": jobs, "sim_rates": ctx.sim_rates,
            "failures": failures}


def timed_setup(workload, inputs: Path, seed: int) -> dict:
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    gc.collect()
    ref_before = reference_time()
    t0 = time.perf_counter()
    workload.setup(inputs, seed)
    raw = time.perf_counter() - t0
    return {"s": raw * 2 * REF_S / (ref_before + reference_time()), "raw_s": raw}


def kind_sum(p: dict, kind=None, key: str = "s") -> float:
    """Summed time of the pass's jobs of one kind, or of all its jobs."""
    return sum(j[key] for j in p["jobs"].values() if kind in (None, j["kind"]))


def typical_pass(plain: list, kind=None, key: str = "s") -> float:
    """Each job's median over the passes, summed over the jobs of one kind.

    A job's median drops the passes that a slow phase of the host hit, where
    the median of whole-pass totals keeps every phase inside the middle pass.
    """
    return sum(statistics.median(p["jobs"][name][key] for p in plain)
               for name, j in plain[0]["jobs"].items() if kind in (None, j["kind"]))


def end_to_end(passes, setups, workload_name) -> dict:
    """Metric -> (value, the samples it summarizes, the raw value)."""
    plain = [p for p in passes if not p["traced"]]
    rates = [r for p in plain for r in p["sim_rates"]]
    setup_times = [t["s"] for t in setups]
    who = resource.RUSAGE_CHILDREN if workload_name == "cli_tour" else resource.RUSAGE_SELF
    rss = resource.getrusage(who).ru_maxrss / 1024
    return {
        **{name: (typical_pass(plain, kind), [kind_sum(p, kind) for p in plain],
                  typical_pass(plain, kind, "raw_s"))
           for name, kind in (("run_s", None), ("verify_s", VERIFY), ("build_s", BUILD))},
        "sim_steps_per_s": (statistics.median(rates), rates, None),
        "setup_s": (statistics.median(setup_times), setup_times,
                    statistics.median(t["raw_s"] for t in setups)),
        "peak_rss_mb": (rss, [rss], None),
    }


def scaled_self_times(rec, traced: list) -> tuple[dict, list]:
    """Self time of every span on the nominal machine, and the spans of each pass.

    A span's self time is scaled like the job it belongs to.
    """
    by_run: dict[int, list] = {}
    run_of: dict[int, int] = {}
    for s in sorted(rec.spans, key=lambda s: s.id):
        if s.name == "run":
            by_run[s.id] = []
        run_of[s.id] = s.id if s.parent is None else run_of[s.parent]
    for s in rec.spans:
        by_run[run_of[s.id]].append(s)
    runs = [by_run[k] for k in sorted(by_run)]
    own = self_times(rec.spans)
    for spans, p in zip(runs, traced):
        for s in spans:
            if s.job is not None:
                own[s.id] *= p["jobs"][s.job]["scale"]
    return own, runs


def per_layer(rec, traced: list) -> dict:
    """Per traced pass, each metric summed over its spans; lists over passes."""
    own, runs = scaled_self_times(rec, traced)
    out = {name: [] for name in PER_LAYER}
    for spans in runs:
        for name, (_unit, span_names, key) in PER_LAYER.items():
            mine = [s for s in spans if s.name in span_names]
            out[name].append(sum(own[s.id] for s in mine) if key is None
                             else sum(s.counts.get(key, 0) for s in mine))
    return out


def module_self_times(rec, traced: list) -> dict:
    own, _runs = scaled_self_times(rec, traced)
    totals: dict[str, float] = {}
    for s in rec.spans:
        module = "harness" if s.name == "run" or s.name.startswith("job.") \
            else s.name.split(".")[0]
        totals[module] = totals.get(module, 0.0) + own[s.id]
    return totals


def metadata(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "source_digest": source_digest(SRC / "desctl"),
            "bench_digest": source_digest(Path(__file__).resolve().parent),
            "seed": seed, "sloc_src_desctl": file_lines_of_code(SRC / "desctl"),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED")}


def check_counts_across_runs(workload_name, seed, counts, digest) -> dict[str, str]:
    """Compare this run's counts with an earlier run of the same code and seed.

    ``digest`` identifies the code: desctl's sources and the benchmark's own.
    """
    path = ROOT / ".bench_traces" / f"counts-{workload_name}-seed{seed}.json"
    problems = {}
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier.get("code_digest") == digest:
            for job, c in counts.items():
                if earlier["counts"].get(job) != c:
                    problems[job] = (f"counts differ from an earlier run: "
                                     f"{earlier['counts'].get(job)} != {c}")
    path.write_text(json.dumps({"code_digest": digest, "counts": counts}, indent=1))
    return problems


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        status = status or proc.returncode
    return status


def measure(workload, args, rec, work: Path):
    """Set up, run passes for ``args.seconds``, then run the probes once."""
    inputs = work / "inputs"
    setups = [timed_setup(workload, inputs, args.seed) for _ in range(SETUP_FIRST)]
    ctx = Ctx(src=SRC, inputs=inputs, outputs=work, rec=rec)
    passes: list = []
    first_counts: dict = {}
    t_start = time.perf_counter()
    while True:
        i = len(passes)
        rec.tracing = bool(args.trace) and i % 2 == 1
        ctx.outputs = work / f"pass{i}"
        ctx.outputs.mkdir()
        passes.append(run_pass(workload, ctx, rec, i, first_counts))
        shutil.rmtree(ctx.outputs)
        setups += [timed_setup(workload, work / "setup", args.seed)
                   for _ in range(SETUP_PER_PASS)]
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(p["dur"] for p in passes)
        if len(passes) >= MIN_PASSES + args.trace and elapsed + typical > args.seconds:
            break
    rec.tracing = False

    probe_results = []
    for probe in workload.probes:
        ctx.outputs = work / f"probe-{probe.name}"
        ctx.outputs.mkdir()
        try:
            probe.fn(ctx)
            probe_results.append(f"{probe.name}: ok")
        except Exception as exc:  # a probe reports its failure, never raises
            probe_results.append(f"{probe.name}: FAILS: {type(exc).__name__}: {exc}")
    return setups, passes, first_counts, probe_results


def print_end_to_end(workload, passes, e2e) -> None:
    for name, unit in END_TO_END.items():
        value, samples, raw = e2e[name]
        raw_note = "" if raw is None else f" (raw wall time {raw:.6g})"
        print(f"  {name:18s} [{unit}] value={value:.6g}{raw_note}; "
              f"samples {percentile_line(samples)}")
    scales = [j["scale"] for p in passes for j in p["jobs"].values()]
    print(f"  host speed: nominal/raw time scale median={statistics.median(scales):.4g} "
          f"min={min(scales):.4g} max={max(scales):.4g} n={len(scales)}")
    for job in workload.jobs:
        times = [p["jobs"][job.name]["s"] for p in passes if not p["traced"]]
        print(f"    job {job.name:24s} [s] {percentile_line(times)}")


def report_layers(rec, passes, meta, spans_path: Path) -> dict:
    """Print the traced passes' per-layer figures, write the spans, return the metrics."""
    traced_passes = [p for p in passes if p["traced"]]
    layers = per_layer(rec, traced_passes)
    traced = [kind_sum(p) for p in traced_passes]
    plain = [kind_sum(p) for p in passes if not p["traced"]]
    overhead = statistics.median(traced) - statistics.median(plain)
    print(f"tracing overhead: {overhead:+.4f} s per pass "
          f"({overhead / statistics.median(plain):+.2%} of untraced run_s), "
          f"{len(traced)} traced and {len(plain)} untraced passes")
    for module, t in sorted(module_self_times(rec, traced_passes).items()):
        print(f"  self time {module:10s} {t / len(traced):.6f} s per traced pass")
    for name, (unit, _spans, _key) in PER_LAYER.items():
        print(f"  {name:36s} [{unit}] {percentile_line(layers[name])}")
    spans_path.write_text(json.dumps({"meta": meta, "tracing_overhead_s": overhead,
                                      "spans": span_dicts(rec.spans)}))
    return {name: {"value": statistics.median(layers[name]), "unit": unit}
            for name, (unit, _spans, _key) in PER_LAYER.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    # One CPU for the run and its children, so that the reference loop and
    # the measured work meet the same contention.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = importlib.import_module(args.workload).WORKLOAD
    meta = metadata(args.seed)
    print("meta " + json.dumps(meta, sort_keys=True))
    traces = ROOT / ".bench_traces"
    traces.mkdir(parents=True, exist_ok=True)
    stem = traces / f"{args.workload}-seed{args.seed}"

    rec = Recorder()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setups, passes, first_counts, probe_results = measure(workload, args, rec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Failures by (pass, job); a count that drifted between runs fails pass 0.
    failures = {(p["index"], job): why for p in passes for job, why in p["failures"].items()}
    code = meta["source_digest"] + meta["bench_digest"]
    for job, why in check_counts_across_runs(args.workload, args.seed, first_counts,
                                             code).items():
        failures.setdefault((0, job), why)
    attempted = len(passes) * len(workload.jobs)
    for (i, job), why in sorted(failures.items()):
        print(f"FAILED pass {i} {job}: {why}")
    for r in probe_results:
        print("probe " + r)

    stem.with_suffix(".passes.json").write_text(json.dumps(
        {"meta": meta, "setups": setups, "passes": passes}))
    e2e = end_to_end(passes, setups, args.workload)
    print(f"workload {args.workload}: {len(passes)} passes, failed_ratio="
          f"{len(failures) / attempted:.4g} ({len(failures)}/{attempted} jobs)")
    print_end_to_end(workload, passes, e2e)
    if args.trace:
        metrics = report_layers(rec, passes, meta, stem.with_suffix(".spans.json"))
    else:
        metrics = {name: {"value": e2e[name][0], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
