from pathlib import Path

import pytest

from hknet import (bind_structure, compose_all, instantiate, parse,
                   parse_script, scripted_policy, simulate)

from support import structure_text

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
# the committed corpus files; the README session writes its outputs into
# corpus/ as well, and no test reads those
CORPUS_FILES = ("a0.hkrun", "a0.steps", "a0_begin.hkrun", "a0_end.hkrun",
                "a0_middle.hkrun", "entry.hk", "guest_area.hk", "kitchen.hk",
                "s0.hks", "s0_small.hks", "s0_tiny.hks", "sigma0.hksig")
# the documents among them: all but the simulation script
CORPUS_DOCUMENTS = tuple(name for name in CORPUS_FILES if not name.endswith(".steps"))


def load(name: str):
    path = CORPUS / name
    return parse(path.read_text(encoding="utf-8"), str(path))


def synthetic(branch, n: int, k: int):
    """The composed branch module instantiated on the synthetic
    structure ``s_n_k`` (``support.structure_text``)."""
    sigma0 = load("sigma0.hksig").body
    structure = bind_structure(parse(structure_text(n, k), f"s_{n}_{k}.hks").body, sigma0)
    return instantiate(branch, structure, name=f"branch_s_{n}_{k}")


@pytest.fixture(scope="session")
def sigma0():
    return load("sigma0.hksig").body


@pytest.fixture(scope="session")
def s0(sigma0):
    return bind_structure(load("s0.hks").body, sigma0)


@pytest.fixture(scope="session")
def s0_small(sigma0):
    return bind_structure(load("s0_small.hks").body, sigma0)


@pytest.fixture(scope="session")
def s0_tiny(sigma0):
    return bind_structure(load("s0_tiny.hks").body, sigma0)


@pytest.fixture(scope="session")
def entry():
    return load("entry.hk").body


@pytest.fixture(scope="session")
def guest_area():
    return load("guest_area.hk").body


@pytest.fixture(scope="session")
def kitchen():
    return load("kitchen.hk").body


@pytest.fixture(scope="session")
def branch(entry, guest_area, kitchen):
    return compose_all([entry, guest_area, kitchen])


@pytest.fixture(scope="session")
def sys0(branch, s0):
    return instantiate(branch, s0, name="branch_s0")


@pytest.fixture(scope="session")
def sys_small(branch, s0_small):
    return instantiate(branch, s0_small, name="branch_small")


@pytest.fixture(scope="session")
def sys_tiny(branch, s0_tiny):
    return instantiate(branch, s0_tiny, name="branch_tiny")


@pytest.fixture(scope="session")
def a0():
    return load("a0.hkrun").body


@pytest.fixture(scope="session")
def a0_segments():
    return tuple(load(f"a0_{part}.hkrun").body for part in ("begin", "middle", "end"))


@pytest.fixture(scope="session")
def a0_script():
    return parse_script((CORPUS / "a0.steps").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def a0_simulated(sys0, a0_script):
    return simulate(sys0, scripted_policy(a0_script))
