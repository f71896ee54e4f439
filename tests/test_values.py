import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hknet import Atom, Marking, Multiset, SetValue, TupleValue, render_value

from support import ReferenceMultiset

values = st.recursive(
    st.sampled_from("abcxyz").map(Atom),
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(TupleValue),
        st.lists(inner, max_size=3).map(SetValue),
    ),
    max_leaves=6,
)


def test_atoms_compare_by_name():
    assert Atom("a") < Atom("b")
    assert Atom("a") == Atom("a")
    assert Atom("a") != Atom("b")


def test_sets_are_deduplicated_and_sorted():
    s = SetValue([Atom("b"), Atom("a"), Atom("b")])
    assert s.elements == (Atom("a"), Atom("b"))
    assert s == SetValue([Atom("a"), Atom("b"), Atom("a")])


def test_tuples_are_ordered_and_fixed():
    assert TupleValue([Atom("a"), Atom("b")]) != TupleValue([Atom("b"), Atom("a")])


@given(values, values)
def test_order_is_total_and_consistent(u, v):
    assert (u.key() < v.key()) or (v.key() < u.key()) or u == v
    if u == v:
        assert u.key() == v.key()
        assert hash(u) == hash(v)


@given(values, values, values)
def test_order_is_transitive(u, v, w):
    items = sorted([u, v, w], key=lambda x: x.key())
    assert items[0].key() <= items[1].key() <= items[2].key()


def test_render_nested():
    v = TupleValue([Atom("t1"), SetValue([Atom("rice"), Atom("meat")])])
    assert render_value(v) == "(t1, {meat, rice})"


@given(st.lists(values, max_size=6), st.lists(values, max_size=6))
def test_multiset_union_counts(xs, ys):
    total = Multiset(xs) + Multiset(ys)
    for v in xs + ys:
        assert total.count(v) == xs.count(v) + ys.count(v)
    assert total.total() == len(xs) + len(ys)


@given(st.lists(values, max_size=6), st.lists(values, max_size=4))
def test_multiset_difference_inverts_union(xs, ys):
    assert (Multiset(xs) + Multiset(ys)) - Multiset(ys) == Multiset(xs)


def test_multiset_subtraction_requires_containment():
    with pytest.raises(ValueError):
        Multiset([Atom("a")]) - Multiset([Atom("a"), Atom("a")])


def test_multiset_containment():
    big = Multiset([Atom("a"), Atom("a"), Atom("b")])
    assert Multiset([Atom("a"), Atom("b")]) <= big
    assert not big <= Multiset([Atom("a"), Atom("b")])


def test_multiset_keeps_equal_values_apart_by_count():
    two_rice = Multiset([Atom("rice"), Atom("rice")])
    assert two_rice.count(Atom("rice")) == 2
    assert list(two_rice) == [Atom("rice"), Atom("rice")]


def _difference(a, b):
    try:
        return (a - b).pairs()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=200)
@given(st.lists(values, max_size=8), st.lists(values, max_size=8), values)
def test_multiset_matches_the_sorted_pair_reference(xs, ys, probe):
    a, b = Multiset(xs), Multiset(ys)
    ra, rb = ReferenceMultiset(xs), ReferenceMultiset(ys)
    for m, r in ((a, ra), (b, rb), (a + b, ra + rb), (b + a, rb + ra)):
        assert m.pairs() == r.pairs()
        assert list(m) == list(r)
        assert m.distinct() == r.distinct()
        assert (m.total(), len(m), bool(m)) == (r.total(), len(r), bool(r))
        assert repr(m) == repr(r)
        for v in xs + ys + [probe]:
            assert m.count(v) == r.count(v)
    assert _difference(a, b) == _difference(ra, rb)
    assert _difference(b, a) == _difference(rb, ra)
    assert _difference(a + b, b) == _difference(ra + rb, rb)
    assert (a <= b, b <= a) == (ra <= rb, rb <= ra)
    assert (a == b) == (ra == rb)
    if a == b:
        assert hash(a) == hash(b)
    # equal multisets built along different paths hash alike
    for same in ((a + b) - b, Multiset(reversed(xs)), Multiset(list(a))):
        assert same == a and hash(same) == hash(a)
    assert a != ra and a != list(a)


def test_set_membership_and_subsets():
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    ab = SetValue([b, a])
    assert a in ab and c not in ab and TupleValue([a, b]) not in ab
    assert SetValue([a]).issubset(ab) and SetValue().issubset(ab)
    assert not ab.issubset(SetValue([a, c]))
    assert SetValue([SetValue([a])]).issubset(SetValue([SetValue([a]), ab]))


def test_pickled_values_and_markings_hash_like_fresh_ones():
    # hashes are cached at construction; a pickle made under another
    # hash seed must not carry them over
    built = ("Marking({'p': [Atom('a'), TupleValue([Atom('a'), SetValue([Atom('b')])])],"
             " 'q': [SetValue([Atom('a'), Atom('c')])] * 2})")
    code = ("import pickle, sys; from hknet import *; "
            f"sys.stdout.buffer.write(pickle.dumps({built}))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    dumped = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, check=True).stdout
    loaded, fresh = pickle.loads(dumped), eval(built)
    assert loaded == fresh and hash(loaded) == hash(fresh) and loaded in {fresh}
    for place in ("p", "q"):
        assert hash(loaded.get(place)) == hash(fresh.get(place))
        assert [hash(v) for v in loaded.get(place)] == [hash(v) for v in fresh.get(place)]
