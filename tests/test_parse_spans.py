"""Every span the parser attaches to what it parses, pinned.

``golden/parse_spans.txt`` lists, per document, each ``span`` reachable
from the parse result with the field path that leads to it: documents,
signatures, structure entries, places, transitions, arcs, every term node
of inscriptions, guards and ``init``, guard atoms, interface elements,
conditions and events.  The documents are every corpus document, a
printed system on ``s0_tiny``, and the printed runs simulated with policy
seed 0 on ``s_1_2`` (100 steps) and ``s_2_2`` (250 steps).  Scripts
(``.steps``) parse to bindings, which carry no spans.

Regenerate, only for a deliberate change of spans, with
``PYTHONPATH=src python tests/test_parse_spans.py > tests/golden/parse_spans.txt``.
"""

from pathlib import Path

from hknet import (bind_structure, compose_all, instantiate, parse,
                   print_run, print_system, random_policy, simulate,
                   structure_to_doc)
from hknet.parser import SystemDoc

from conftest import CORPUS, CORPUS_DOCUMENTS, load
from support import attached_spans, structure_text

GOLDEN = Path(__file__).resolve().parent / "golden" / "parse_spans.txt"

# runs simulated with policy seed 0, as the runcheck benchmark does
SIMULATED = (((1, 2), 100), ((2, 2), 250))


def documents() -> list[tuple[str, str]]:
    """(name, text) of every document whose spans the golden pins."""
    docs = [(name, (CORPUS / name).read_text(encoding="utf-8"))
            for name in CORPUS_DOCUMENTS]
    sigma0 = load("sigma0.hksig").body
    branch = compose_all([load(f).body for f in
                          ("entry.hk", "guest_area.hk", "kitchen.hk")])
    tiny = bind_structure(load("s0_tiny.hks").body, sigma0)
    system = instantiate(branch, tiny, name="branch_tiny")
    docs.append(("branch_tiny.hksys", print_system(SystemDoc(
        system.name, sigma0, structure_to_doc(tiny), branch, system.initial))))
    for (n, k), steps in SIMULATED:
        structure = bind_structure(
            parse(structure_text(n, k), f"s_{n}_{k}.hks").body, sigma0)
        system = instantiate(branch, structure, name=f"branch_s_{n}_{k}")
        run = simulate(system, random_policy(seed=0, steps=steps))
        docs.append((f"s_{n}_{k}_ev{steps}.hkrun", print_run(run)))
    return docs


def golden_lines() -> list[str]:
    lines = []
    for name, text in documents():
        lines.append(f"## {name}")
        lines.extend(attached_spans(parse(text, name)))
    return lines


def test_spans_of_parsed_documents_are_unchanged():
    assert golden_lines() == GOLDEN.read_text(encoding="utf-8").splitlines()


if __name__ == "__main__":
    print("\n".join(golden_lines()))
