"""desctl: one executable for all model operations.

Exit codes: 0 = success / property holds, 1 = property fails (with a
witness on stdout), 2 = usage or input-format error.  ``--json`` switches
every verdict to machine-readable JSON; set ``DESCTL_COLOR=0`` to disable
ANSI styling.
"""

from __future__ import annotations

import importlib
import json
import os
import sys

import click

from . import PARTITIONS, InputError, __version__

# Name -> the desctl module that defines it.  Each is imported on first use
# (PEP 562), so a command loads only the layers it calls.
_LAZY = {name: module for module, names in {
    "automata": "Automaton load_automaton save_automaton", "compose": "parallel",
    "control": "check_controllability check_nonconflicting supcon", "dot": "dot",
    "espec": "espec", "fms": "fms", "sim": "sim"}.items() for name in names.split()}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__package__}.{_LAZY[name]}")
    return module if name == _LAZY[name] else getattr(module, name)


# Commands reach those names through the module object at call time, so they
# call whatever a caller has since set on the module.
_lazy = sys.modules[__name__]


def _fail(message: str) -> "SystemExit":
    click.echo(f"desctl: {message}", err=True)
    return SystemExit(2)


def _verdict(message: str, ok: bool) -> None:
    # DESCTL_COLOR=0 turns the styling off; click.secho itself drops it when
    # stdout is not a terminal.
    if os.environ.get("DESCTL_COLOR", "1") != "0":
        click.secho(message, fg="green" if ok else "red")
    else:
        click.echo(message)


def _emit_json(payload: dict) -> None:
    click.echo(json.dumps(payload, indent=2))


class _Desctl(click.Group):
    """The command group, and the one place where input errors become exit 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (InputError, OSError, UnicodeDecodeError) as exc:
            raise _fail(str(exc)) from None


@click.group(cls=_Desctl)
@click.version_option(__version__, prog_name="desctl")
def main():
    """Supervisory-control toolkit for discrete-event systems."""


@main.command("validate")
@click.argument("model", type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "as_json", is_flag=True, help="JSON verdict on stdout.")
def cmd_validate(model, as_json):
    """Check an automaton file against the structural invariants."""
    # The loader rejects, with exit 2, every structural defect of a model.
    _lazy.load_automaton(model)
    if as_json:
        _emit_json({"valid": True, "diagnostics": []})
    else:
        _verdict("ok", True)


@main.command("compose")
@click.argument("models", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
def cmd_compose(models, output):
    """Parallel composition of two or more automaton files.

    Composite state names join the component state names with '|', doubled
    until no component state name contains it.
    """
    product = _lazy.parallel([_lazy.load_automaton(m) for m in models])
    _lazy.save_automaton(product, output)
    click.echo(f"{len(product.states)} states, {len(product.alphabet)} events "
               f"-> {output}")


def _compile_spec_file(path: str, alphabet) -> Automaton:
    """The spec in file ``path``, compiled over ``alphabet`` and named after its stem."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return _lazy.espec.compile_text(text, alphabet,
                                    name=os.path.splitext(os.path.basename(path))[0])


@main.command("compile-spec")
@click.argument("spec", type=click.Path(exists=True, dir_okay=False))
@click.option("--alphabet", "alphabet_model", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Model file whose alphabet the expression is compiled over.")
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
def cmd_compile_spec(spec, alphabet_model, output):
    """Compile a spec expression file to a minimal trim automaton."""
    compiled = _compile_spec_file(spec, _lazy.load_automaton(alphabet_model).alphabet)
    _lazy.save_automaton(compiled, output)
    click.echo(f"{len(compiled.states)} states -> {output}")


@main.command("minimize")
@click.argument("model", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
def cmd_minimize(model, output):
    """Minimize an automaton, preserving generated and marked languages."""
    a = _lazy.espec.minimize(_lazy.load_automaton(model))
    _lazy.save_automaton(a, output)
    click.echo(f"{len(a.states)} states -> {output}")


@main.command("equivalent")
@click.argument("model_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("model_b", type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "as_json", is_flag=True)
def cmd_equivalent(model_a, model_b, as_json):
    """Are two automata language-equivalent (generated and marked)?"""
    eq, witness = _lazy.espec.equivalent(_lazy.load_automaton(model_a),
                                         _lazy.load_automaton(model_b))
    if as_json:
        _emit_json({"equivalent": eq,
                    "distinguishing": None if eq else list(witness)})
    elif eq:
        _verdict("equivalent", True)
    else:
        _verdict(f"not equivalent: {' '.join(witness) if witness else '(empty string)'}",
                 False)
    raise SystemExit(0 if eq else 1)


@main.command("export-dot")
@click.argument("model", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--output", type=click.Path(dir_okay=False),
              help="Output file; stdout when omitted.")
def cmd_export_dot(model, output):
    """Render an automaton as Graphviz DOT."""
    text = _lazy.dot.export_dot(_lazy.load_automaton(model))
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _maybe_partition(a: Automaton, partition: str | None) -> Automaton:
    return a if partition is None else _lazy.fms.apply_partition(a, partition)


@main.command("check-ctrl")
@click.option("--plant", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--sup", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--partition", type=click.Choice(PARTITIONS), default=None,
              help="Re-flag corpus events per a named controllability partition.")
@click.option("--json", "as_json", is_flag=True)
def cmd_check_ctrl(plant, sup, partition, as_json):
    """Verify a supervisor's controllability against a plant."""
    plant_a = _maybe_partition(_lazy.load_automaton(plant), partition)
    sup_a = _maybe_partition(_lazy.load_automaton(sup), partition)
    report = _lazy.check_controllability(plant_a, sup_a)
    if as_json:
        ce = None
        if report.counterexample is not None:
            s, e = report.counterexample
            ce = {"s": list(s), "e": e}
        _emit_json({"controllable": report.controllable, "counterexample": ce,
                    "states_checked": report.states_checked})
    elif report.controllable:
        _verdict("controllable", True)
    else:
        s, e = report.counterexample
        click.echo(" ".join(list(s) + ["|", e]))
    raise SystemExit(0 if report.controllable else 1)


@main.command("check-conflict")
@click.option("--plant", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--sup", "sups", multiple=True, required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "as_json", is_flag=True)
def cmd_check_conflict(plant, sups, as_json):
    """Check that the modular closed loop is nonblocking."""
    report = _lazy.check_nonconflicting(_lazy.load_automaton(plant),
                                        [_lazy.load_automaton(s) for s in sups])
    if as_json:
        _emit_json({"nonconflicting": report.nonconflicting,
                    "counterexample": None if report.nonconflicting
                    else list(report.counterexample),
                    "states_checked": report.states_checked})
    elif report.nonconflicting:
        _verdict("nonconflicting", True)
    else:
        click.echo(" ".join(report.counterexample) or "(empty string)")
    raise SystemExit(0 if report.nonconflicting else 1)


@main.command("synth")
@click.option("--plant", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--spec", "spec_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Spec expression file, compiled over the plant alphabet.")
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
def cmd_synth(plant, spec_path, output):
    """Synthesize the supremal controllable supervisor for a spec."""
    plant_a = _lazy.load_automaton(plant)
    result = _lazy.supcon(plant_a, _compile_spec_file(spec_path, plant_a.alphabet))
    _lazy.save_automaton(result, output)
    note = " (empty: no controllable behavior)" if result.is_empty else ""
    click.echo(f"{len(result.states)} states -> {output}{note}")


@main.command("simulate")
@click.option("--plant", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--sup", "sups", multiple=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--script", "script_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--random", "random_mode", is_flag=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--interactive", "interactive_mode", is_flag=True)
@click.option("--steps", required=True, type=click.IntRange(min=0))
@click.option("--report", "report_path", type=click.Path(dir_okay=False))
def cmd_simulate(plant, sups, script_path, random_mode, interactive_mode,
                 seed, steps, report_path):
    """Run the closed loop under a scripted, random or interactive policy."""
    modes = sum(map(bool, (script_path, random_mode, interactive_mode)))
    if modes != 1:
        raise _fail("choose exactly one of --script, --random, --interactive")
    plant_a = _lazy.load_automaton(plant)
    sup_list = [_lazy.load_automaton(s) for s in sups]
    if script_path:
        with open(script_path, "r", encoding="utf-8") as fh:
            events = []
            for line in fh:
                line = line.split("#", 1)[0]
                events.extend(line.split())
        policy = _lazy.sim.Scripted(tuple(events))
    elif random_mode:
        policy = _lazy.sim.Random(seed)
    else:
        policy = _lazy.sim.Interactive()
    report = _lazy.sim.run(plant_a, sup_list, policy, steps)
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(_lazy.sim.report_to_json(report))
    status = []
    if report.blocked_event is not None:
        status.append(f"blocked on {report.blocked_event}")
    if report.deadlocked:
        status.append("deadlocked")
    counts = " ".join(f"cat{c}={n}" for c, n in report.completions.items())
    click.echo(f"{report.steps_taken} steps, completions {counts}"
               + (f" ({', '.join(status)})" if status else ""))
    raise SystemExit(1 if (report.deadlocked or report.blocked_event is not None) else 0)


@main.group("fms")
def cmd_fms():
    """The shipped flexible-manufacturing reference corpus."""


@cmd_fms.command("emit")
@click.option("-o", "--outdir", required=True, type=click.Path(file_okay=False))
def cmd_fms_emit(outdir):
    """Write every corpus model, spec expression and the event table."""
    written = _lazy.fms.emit(outdir)
    click.echo(f"wrote {len(written)} files to {outdir}")


if __name__ == "__main__":
    main()
