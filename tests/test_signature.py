import pytest

from hknet import (Atom, PowSort, SetValue, Signature, SortName, SortError,
                   TupleValue, carrier_of, make_structure, validate_structure,
                   value_in_sort)
from hknet.signature import TupleSort, sorts_compatible


def test_corpus_structure_is_a_model(sigma0, s0):
    assert validate_structure(sigma0, s0) == []


def test_missing_table_entry_is_one_totality_violation(sigma0, s0):
    broken_f = {args: v for args, v in s0.functions["f"].items()
                if args != (Atom("rice"),)}
    broken = make_structure(s0.name, sigma0, s0.carriers,
                            {"f": broken_f, "g": s0.functions["g"]},
                            s0.constants)
    report = validate_structure(sigma0, broken)
    assert [v.code for v in report] == ["non-total-function"]
    assert "rice" in report[0].message


def test_empty_signature_empty_structure():
    sig = Signature("empty")
    s = make_structure("nothing", sig, {})
    assert validate_structure(sig, s) == []


def test_missing_carrier_reported(sigma0, s0):
    carriers = {k: v for k, v in s0.carriers.items() if k != "Tables"}
    broken = make_structure(s0.name, sigma0, carriers, s0.functions, s0.constants)
    codes = [v.code for v in validate_structure(sigma0, broken)]
    assert "missing-carrier" in codes


def test_codomain_violation_reported(sigma0, s0):
    bad_f = dict(s0.functions["f"])
    bad_f[(Atom("rice"),)] = Atom("pizza")
    broken = make_structure(s0.name, sigma0, s0.carriers,
                            {"f": bad_f, "g": s0.functions["g"]}, s0.constants)
    codes = [v.code for v in validate_structure(sigma0, broken)]
    assert "codomain" in codes


def test_subset_carrier_must_be_sets_of_base(sigma0, s0):
    carriers = dict(s0.carriers)
    carriers["Orders"] = (SetValue([Atom("pizza")]),)
    broken = make_structure(s0.name, sigma0, carriers, s0.functions, s0.constants)
    codes = [v.code for v in validate_structure(sigma0, broken)]
    assert "subset" in codes


def test_duplicate_symbol_names_rejected():
    with pytest.raises(SortError):
        Signature("bad", sets=("A", "A"))
    with pytest.raises(SortError):
        Signature("bad", sets=("A",), constants=(("A", SortName("A")),))


def test_undeclared_sort_rejected():
    with pytest.raises(SortError):
        Signature("bad", sets=("A",), constants=(("k", SortName("B")),))


def test_carrier_of_base_sort(s0):
    assert carrier_of(SortName("Tables"), s0) == (
        Atom("t1"), Atom("t2"), Atom("t3"), Atom("t4"))


def test_carrier_of_powerset_is_all_subsets(s0):
    # oracle: independent subset enumeration via bitmasks
    base = s0.carrier("Menu")
    expected = set()
    for mask in range(2 ** len(base)):
        expected.add(SetValue(v for i, v in enumerate(base) if mask >> i & 1))
    got = carrier_of(PowSort("Menu"), s0)
    assert set(got) == expected
    assert len(got) == 8
    assert list(got) == sorted(got, key=lambda v: v.key())


def test_powerset_cap_enforced(sigma0):
    big = make_structure(
        "big", Signature("wide", sets=("W",)),
        {"W": tuple(Atom(f"w{i}") for i in range(17))})
    with pytest.raises(Exception, match="cap"):
        carrier_of(PowSort("W"), big)


def test_value_in_sort_checks_structure(s0):
    assert value_in_sort(Atom("t1"), SortName("Tables"), s0)
    assert not value_in_sort(Atom("pizza"), SortName("Tables"), s0)
    assert value_in_sort(SetValue([Atom("rice")]), PowSort("Menu"), s0)
    order = TupleValue([Atom("t1"), SetValue([Atom("rice")])])
    from hknet import TupleSort
    assert value_in_sort(order, TupleSort((SortName("Tables"), PowSort("Menu"))), s0)


def test_validate_structure_reports_each_finding_in_order():
    # B and U have no carrier; T is carved out of U; S breaks its base A;
    # j and g have no interpretation, k lies outside A and f fails in
    # three ways; m and h, whose sorts mention B, are not checked further
    a, b, z = Atom("a"), Atom("b"), Atom("z")
    sig = Signature("v", sets=("A", "B", "U"), subsets=(("S", "A"), ("T", "U"), ("W", "A")),
                    constants=(("j", SortName("A")), ("k", SortName("A")), ("m", SortName("B"))),
                    functions=(("f", (SortName("A"),), SortName("A")),
                               ("g", (SortName("A"),), SortName("A")),
                               ("h", (SortName("B"),), SortName("A"))))
    s = make_structure("bad", sig, {"A": (a, b), "S": (a, SetValue([z])), "T": ()},
                       {"f": {a: z, z: a}, "h": {}}, {"k": z, "m": a})
    assert [(v.code, v.message) for v in validate_structure(sig, s)] == [
        ("missing-carrier", "set symbol 'B' has no carrier"),
        ("missing-carrier", "set symbol 'U' has no carrier"),
        ("subset", "'S' contains non-set value a"),
        ("subset", "'S' contains {z}, not a subset of 'A'"),
        ("missing-carrier", "subset symbol 'W' has no carrier"),
        ("missing-constant", "constant 'j' has no value"),
        ("constant-sort", "constant 'k' = z is outside sort A"),
        ("non-total-function", "function 'f' is undefined on (b)"),
        ("codomain", "function 'f' maps into z, outside A"),
        ("function-domain", "function 'f' has an entry outside its domain: (z)"),
        ("missing-function", "function 'g' has no table")]


@pytest.mark.parametrize("left, right, compatible", [
    ((SortName("Orders"), SortName("Menu")), (PowSort("Menu"), SortName("Menu")), True),
    ((SortName("Orders"), SortName("Menu")), (SortName("Menu"), SortName("Menu")), False),
    ((SortName("Menu"),) * 2, (SortName("Menu"),) * 3, False),
    ((SortName("Menu"),) * 2, SortName("Menu"), False),
])
def test_tuple_sorts_are_compatible_component_by_component(left, right, compatible):
    sig = Signature("shop", sets=("Menu",), subsets=(("Orders", "Menu"),))
    as_sort = (lambda s: TupleSort(s) if isinstance(s, tuple) else s)
    assert sorts_compatible(as_sort(left), as_sort(right), sig) is compatible
    assert sorts_compatible(as_sort(right), as_sort(left), sig) is compatible
