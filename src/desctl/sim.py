"""Step-by-step execution of the modular closed loop.

The simulator steps the plant and each supervisor as separate component
automata, with the step rule that composition uses; it never builds the
composed product.  Random runs use Python's ``random.Random`` (Mersenne
Twister) seeded with the policy seed and pick uniformly over the enabled set
in plant-alphabet declaration order, so a given seed reproduces the same
trace on every platform.  A random run remembers the choices of a state it
revisits, at most one entry per distinct state visited, as the step rule's
list with each choice's trace row built once, so later visits share those
rows and the draws and the trace do not depend on it.  ``replay`` keeps a
revisited state's checked steps alike, firing each once, and compares every
row.  ``report_to_json`` renders each distinct row afresh until its second
use and reuses the text, and ``report_from_dict`` shares each distinct row.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as quoted
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .automata import Automaton, BadQueryError, InputError, check_shape, json_list
from .compose import all_marked, fired, successors
from .control import _require_subalphabet

COMPLETION_EVENTS = {"1": "A.done1", "2": "A.done2"}
# The JSON shape of report_to_dict's output (see automata.check_shape).
_REPORT = {"trace": list, "steps_taken": int, "deadlocked": bool, "completions": {},
           "blocked_event": (str, type(None)), "final_marked": bool}
_ROW = {"event": str, "configuration": {"plant_state": str, "sup_states": [str]}}
# A trace row as report_to_json lays it out, with its sup_states list left open.
_ROW_TEMPLATE = ('{\n      "event": %%s,\n      "configuration": {\n        "plant_state": %%s,'
                 '\n        "sup_states": %s\n      }\n    }')


class ScriptError(InputError):
    """A scripted event is not in the plant alphabet."""


class Configuration(NamedTuple):
    plant_state: str
    sup_states: tuple[str, ...]


@dataclass(frozen=True)
class Scripted:
    events: tuple[str, ...]


@dataclass(frozen=True)
class Random:
    seed: int


@dataclass(frozen=True)
class Interactive:
    """Line-oriented REPL policy; also understands undo / state / quit."""

    read: Callable[[str], str] = input
    write: Callable[[str], None] = print


Policy = Union[Scripted, Random, Interactive]


@dataclass(frozen=True)
class RunReport:
    trace: tuple[tuple[str, Configuration], ...]
    steps_taken: int
    deadlocked: bool
    blocked_event: Optional[str]
    completions: dict[str, int]
    final_marked: bool


def initial_configuration(plant: Automaton, sups: Sequence[Automaton]) -> Configuration:
    sup_list = list(sups)
    for s in sup_list:
        _require_subalphabet(plant, s)
    if plant.initial is None or any(s.initial is None for s in sup_list):
        raise BadQueryError("cannot simulate an empty automaton")
    return Configuration(plant.initial, tuple(s.initial for s in sup_list))


def _configurations(components: list[Automaton]) -> Callable:
    """``configuration(cur)``: the Configuration that names a tuple of component state indices."""
    plant, sups = components[0].states, [s.states for s in components[1:]]
    # What the namedtuple's generated __new__ does, without the Python frame.
    return lambda cur: tuple.__new__(
        Configuration, (plant[cur[0]], tuple(map(tuple.__getitem__, sups, cur[1:]))))


def _count_completions(trace) -> dict[str, int]:
    return {cat: sum(1 for e, _cfg in trace if e == ev)
            for cat, ev in sorted(COMPLETION_EVENTS.items())}


def run(plant: Automaton, sups: Sequence[Automaton],
        policy: Policy, max_steps: int) -> RunReport:
    """Execute the closed loop under a policy for at most ``max_steps`` steps."""
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    sup_list = list(sups)
    initial_configuration(plant, sup_list)
    components = [plant, *sup_list]
    step = successors(components, plant.alphabet)
    events, configuration = plant.alphabet.events, _configurations(components)
    cur = tuple(a.start for a in components)
    trace: list[tuple[str, Configuration]] = []
    blocked_event: Optional[str] = None

    if isinstance(policy, Scripted):
        for e in policy.events:
            if e not in plant.alphabet:
                raise ScriptError(f"scripted event {e!r} is not in the plant alphabet")
        requested = min(len(policy.events), max_steps)
        go = fired(components, events)
        for e in policy.events[:requested]:
            nxt = go(cur, e)
            if nxt is None:
                blocked_event = e
                break
            cur = nxt
            trace.append((e, configuration(cur)))
    elif isinstance(policy, Random):
        rng = random.Random(policy.seed)
        requested = max_steps
        # A state's choices are kept from its second visit on, as (next state,
        # trace row) pairs in step's order, so a revisit appends a row built
        # before, and a run that never comes back (a long chain) stores no
        # list per step.  A state without choices ends the run on its first visit.
        seen: dict = {}
        for _ in range(max_steps):
            rows = seen.get(cur)
            if rows is None:
                seen[cur] = False
                choices = step(cur)
                if not choices:
                    break
                e, cur = choices[rng.randrange(len(choices))]
                trace.append((events[e], configuration(cur)))
                continue
            if rows is False:
                rows = seen[cur] = [(nxt, (events[e], configuration(nxt)))
                                    for e, nxt in step(cur)]
            cur, row = rows[rng.randrange(len(rows))]
            trace.append(row)
    elif isinstance(policy, Interactive):
        requested = max_steps
        history = [cur]
        while len(trace) < max_steps:
            choices = step(cur)
            if not choices:
                policy.write("deadlock: no enabled events")
                break
            for i, (e, _) in enumerate(choices, start=1):
                policy.write(f"  {i}. {events[e]}")
            try:
                line = policy.read("> ").strip()
            except EOFError:
                break
            if line == "quit":
                break
            if line == "state":
                for who, a, q in zip(("plant", *(s.name for s in sup_list)), components, cur):
                    policy.write(f"{who}: {a.states[q]}")
                continue
            if line == "undo":
                if trace:
                    trace.pop()
                    history.pop()
                    cur = history[-1]
                else:
                    policy.write("nothing to undo")
                continue
            try:
                idx = int(line)
            except ValueError:
                idx = 0  # not a number: reprompt below
            if not 1 <= idx <= len(choices):
                policy.write(f"choose 1..{len(choices)}, undo, state or quit")
                continue
            e, cur = choices[idx - 1]
            trace.append((events[e], configuration(cur)))
            history.append(cur)
    else:
        raise TypeError(f"unknown policy {policy!r}")

    steps = len(trace)
    deadlocked = not step(cur) and steps < requested
    return RunReport(
        trace=tuple(trace),
        steps_taken=steps,
        deadlocked=deadlocked,
        blocked_event=blocked_event,
        completions=_count_completions(trace),
        final_marked=all_marked(components)(cur),
    )


def replay(plant: Automaton, sups: Sequence[Automaton], report: RunReport) -> bool:
    """Re-fire the trace and confirm every recorded step, count and verdict."""
    sup_list = list(sups)
    try:
        initial_configuration(plant, sup_list)
    except BadQueryError:
        return False
    components = [plant, *sup_list]
    go, configuration = fired(components, plant.alphabet.events), _configurations(components)
    # A state's checked steps are kept from its second visit on, as {event: (next
    # state, Configuration)}, as run keeps choices, so a revisit fires each event
    # once.  Every row is still compared.  The key is ``here``, the configuration
    # recorded for the state and checked equal to its own: a state visited once
    # keeps no new object alive, which on a long chain the garbage collector
    # would walk over and over.
    cur = tuple(a.start for a in components)
    here, seen = configuration(cur), {}
    for e, recorded in report.trace:
        if (steps := seen.get(here)) is False:
            steps = seen[here] = {}
        if steps is None or (step := steps.get(e)) is None:
            if (nxt := go(cur, e)) is None:
                return False
            step = nxt, configuration(nxt)
            if steps is None:
                seen[here] = False
            else:
                steps[e] = step
        cur, kept = step
        if recorded != kept:
            return False
        here = recorded
    # A deadlock leaves no plant event enabled; a blocked event is one left disabled.
    disabled = [e for e in plant.alphabet.events if go(cur, e) is None]
    return (report.steps_taken == len(report.trace)
            and report.completions == _count_completions(report.trace)
            and report.final_marked == all_marked(components)(cur)
            and not (report.deadlocked and len(disabled) < len(plant.alphabet))
            and report.blocked_event in (None, *disabled))


# -- report serialization -------------------------------------------------

def report_to_dict(report: RunReport) -> dict:
    return {
        "trace": [
            {"event": e,
             "configuration": {"plant_state": c.plant_state,
                               "sup_states": list(c.sup_states)}}
            for e, c in report.trace
        ],
        "steps_taken": report.steps_taken,
        "deadlocked": report.deadlocked,
        "blocked_event": report.blocked_event,
        "completions": report.completions,
        "final_marked": report.final_marked,
    }


def report_to_json(report: RunReport) -> str:
    """The text of ``json.dumps(report_to_dict(report), indent=2)`` and a newline."""
    templates: dict[int, str] = {}
    # Rows are keyed by value.  A row's first occurrence records False and its
    # second keeps its text, as the random run keeps choices, so a report
    # without repeated rows keeps no text.
    texts: dict = {}
    rows = []
    for r in report.trace:
        text = texts.get(r)
        if not text:
            e, c = r
            n = len(c.sup_states)
            if (template := templates.get(n)) is None:
                template = templates[n] = _ROW_TEMPLATE % "".join(json_list(["%s"] * n, 4))
            rendered = template % (quoted(e), quoted(c.plant_state), *map(quoted, c.sup_states))
            texts[r] = text is False and rendered
            text = rendered
        rows.append(text)
    # The trace is the first field, so the first "[]" is the emptied trace.
    head, tail = json.dumps(report_to_dict(replace(report, trace=())), indent=2).split("[]", 1)
    if not rows:
        return f"{head}[]{tail}\n"
    # The head and the tail ride on the first and last rows, so one join copies the text once.
    rows[0] = head + "[\n    " + rows[0]
    rows[-1] += "\n  ]" + tail + "\n"
    return ",\n    ".join(rows)


def report_from_dict(doc: dict) -> RunReport:
    """The report a :func:`report_to_dict` document describes; ModelFormatError, located, if not."""
    check_shape(doc, _REPORT, "report")
    # The rows are checked a column at a time at C speed, and located only on failure.
    try:
        cfgs = [row["configuration"] for row in doc["trace"]]
        events, states = [row["event"] for row in doc["trace"]], [c["plant_state"] for c in cfgs]
        sups = [c["sup_states"] for c in cfgs]
        if not (all(map(isinstance, sups, repeat(list)))
                and all(map(isinstance, chain(events, states, *sups), repeat(str)))):
            raise TypeError("a field of the wrong type")
    except (TypeError, KeyError):
        check_shape(doc["trace"], [_ROW], "report.trace")
    # Rows are made as _configurations makes them, and a repeated value's row is
    # replaced by its first, so equal rows are one object.
    rows: dict = {}
    configs = map(tuple.__new__, repeat(Configuration), zip(states, map(tuple, sups)))
    trace = [rows.setdefault(row, row) for row in zip(events, configs)]
    return RunReport(tuple(trace), doc["steps_taken"], doc["deadlocked"],
                     doc["blocked_event"], dict(doc["completions"]), doc["final_marked"])
