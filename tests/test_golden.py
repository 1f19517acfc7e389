"""Byte-identity goldens: digests of outputs whose exact bytes are a contract.

Each digest was recorded before the composition, analysis, spec and simulator
modules were moved onto one shared step rule and one automaton builder; a
refactor that changes state naming, state or transition order, or a trace
changes the digest.
"""

import hashlib
import json

import pytest

from desctl import espec, fms, sim
from desctl.automata import Alphabet, automaton_to_dict
from desctl.control import supcon


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _model_digest(a) -> str:
    return _digest(json.dumps(automaton_to_dict(a), indent=2))


@pytest.fixture(scope="module")
def plant():
    return fms.build_total()


def test_seeded_random_run_report(plant):
    sups = [fms.build_supervisor(1), fms.build_supervisor(2)]
    report = sim.run(plant, sups, sim.Random(5), 3000)
    assert _digest(sim.report_to_json(report)) == (
        "003eac35597f8e4be38824ecef4a58de0fc5455fccd6baf83e45db0a4f04d4a3")


@pytest.mark.parametrize("category, digest", [
    (1, "1db9f4524396ad6e798ec0095337927d610bc74a86af8bfd518f3c2254dfc426"),
    (2, "5944be4716e9d5524c780c8ec0214fa5c4ec1055b18a8e6f9a8532cec593c4fd"),
])
def test_spec_compiled_over_the_plant_alphabet(plant, category, digest):
    compiled = espec.compile_text(fms.spec_text(category), plant.alphabet)
    assert _model_digest(compiled) == digest


def test_supcon_of_spec_over_its_own_events(plant):
    text = fms.spec_text(1)
    used = set(espec.leaves(espec.parse(text)))
    spec = espec.compile_text(
        text, Alphabet(tuple(x for x in plant.alphabet.entries if x[0] in used)))
    result = supcon(plant, spec)
    assert len(result.states) == 4992
    assert _model_digest(result) == (
        "cbcf7e9fd42fc6e3ec332ae4fe6ed9c49976b0809a02aa02707acbbf54f7be99")
