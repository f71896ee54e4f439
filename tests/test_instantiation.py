from dataclasses import replace

import pytest

from hknet import (Atom, Ident, Marking, ModelError, Module, Multiset, Place,
                   SchematicNet, SetValue, Signature, SortName, instantiate,
                   make_structure)
from hknet.terms import Elm


def test_free_tables_gets_one_token_per_table(sys0):
    assert sys0.initial.get("free_tables") == Multiset(
        [Atom("t1"), Atom("t2"), Atom("t3"), Atom("t4")])


def test_menu_holds_one_set_valued_token(sys0):
    menu = sys0.initial.get("menu")
    assert menu.total() == 1
    assert menu == Multiset([SetValue([Atom("meat"), Atom("rice"), Atom("salad")])])


def test_all_other_places_start_empty(sys0):
    assert sys0.initial.places() == ("free_tables", "menu")


def test_elm_of_empty_carrier_gives_empty_place():
    sig = Signature("maybe", sets=("E",))
    structure = make_structure("none", sig, {"E": ()})
    module = Module("m", "maybe", SchematicNet(
        places=(Place("pool", SortName("E"), (Elm(Ident("E")),)),)))
    system = instantiate(module, structure)
    assert system.initial == Marking()


def test_elm_inscribed_place_counts_the_carrier(branch, s0, s0_small, s0_tiny):
    for structure in (s0, s0_small, s0_tiny):
        system = instantiate(branch, structure)
        assert system.initial.get("free_tables").total() == \
            len(structure.carrier("Tables"))


def test_reinstantiate_shares_the_schematic_module(branch, s0, s0_small):
    big, small = instantiate(branch, s0), instantiate(branch, s0_small)
    assert big.module is small.module is branch
    assert big.initial.get("free_tables").total() == 4
    assert small.initial.get("free_tables").total() == 2


def test_reinstantiate_with_same_structure_gives_equal_systems(branch, s0):
    one, two = instantiate(branch, s0), instantiate(branch, s0)
    assert one == two


def test_interfaces_survive_instantiation(branch, s0, s0_small):
    big, small = instantiate(branch, s0), instantiate(branch, s0_small)
    assert big.module.left == small.module.left == branch.left
    assert big.module.right == small.module.right == branch.right


def test_instantiation_is_deterministic(branch, s0):
    assert instantiate(branch, s0) == instantiate(branch, s0)


def test_open_init_terms_are_rejected(sigma0, s0):
    module = Module("m", "sigma0", SchematicNet(
        places=(Place("p", SortName("Tables"), (Ident("someVar"),)),)))
    with pytest.raises(ModelError, match="open|someVar"):
        instantiate(module, s0)


def test_invalid_structure_is_rejected(branch, sigma0, s0):
    broken = make_structure("broken", sigma0,
                            {k: v for k, v in s0.carriers.items()
                             if k != "Clients"},
                            s0.functions, s0.constants)
    with pytest.raises(ModelError, match="does not model"):
        instantiate(branch, broken)


def test_signature_name_mismatch_is_rejected(branch):
    other = Signature("different", sets=("A",))
    s = make_structure("s", other, {"A": (Atom("a"),)})
    with pytest.raises(ModelError, match="signature"):
        instantiate(branch, s)


def test_initial_tokens_outside_their_place_sort_are_rejected(entry, s0_tiny):
    # free_tables holds Tables, but is filled with the clients
    places = tuple(replace(p, init=(Elm(Ident("Clients")),)) if p.name == "free_tables"
                   else p for p in entry.inner.places)
    module = Module(entry.name, entry.sig, replace(entry.inner, places=places),
                    entry.left, entry.right)
    with pytest.raises(ModelError, match=r"token-sort\] token Alice on 'free_tables'"):
        instantiate(module, s0_tiny)
