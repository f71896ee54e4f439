import random

import pytest

from hknet import (Atom, Binding, Marking, Multiset, ParseError, SetValue,
                   bind_structure, parse, parse_predicate, parse_script,
                   print_document, print_structure, structure_to_doc)

from hknet.parser import MAX_NESTING

from conftest import CORPUS, CORPUS_DOCUMENTS
from support import random_document

def test_signature_file_declares_the_expected_symbols(sigma0):
    assert len(sigma0.sets) == 4
    assert len(sigma0.subsets) == 2
    assert len(sigma0.functions) == 2
    assert sigma0.sets == ("Clients", "Meal_items", "Menu", "Tables")
    assert dict(sigma0.subsets) == {"Orders": "Menu", "Meals": "Meal_items"}


def test_empty_input_reports_expected_document_kind():
    with pytest.raises(ParseError, match="expected document kind"):
        parse("")
    with pytest.raises(ParseError, match="expected document kind"):
        parse("   # only a comment\n")


@pytest.mark.parametrize("name", CORPUS_DOCUMENTS)
def test_round_trip_over_corpus(name):
    text = (CORPUS / name).read_text(encoding="utf-8")
    doc = parse(text, name)
    assert parse(print_document(doc), name) == doc


def test_parse_normalizes_declaration_order():
    a = parse("signature s { sets B, A; }")
    b = parse("signature s { sets A; sets B; }")
    assert a == b
    m1 = parse("module m { places { q; p; } trans { t; } arcs { p -> t : x; } }")
    m2 = parse("module m { places { p; q; } trans { t; } arcs { p -> t : x; } }")
    assert m1 == m2


def test_interface_order_is_preserved():
    text = """module m { right { place b = p; place a = q; }
               places { p; q; } }"""
    doc = parse(text)
    assert [e.label for e in doc.body.right] == ["b", "a"]


def test_error_spans_point_inside_the_offending_token():
    source = "signature s {\n  sets A;\n  sets A;\n}"
    with pytest.raises(ParseError) as err:
        parse(source, "bad.hksig")
    span = err.value.span
    assert span is not None
    assert span.line == 3
    line = source.splitlines()[span.line - 1]
    assert line[span.col - 1:span.end_col - 1] == "A"


def test_document_spans_nest_over_entity_spans():
    text = (CORPUS / "guest_area.hk").read_text(encoding="utf-8")
    doc = parse(text, "guest_area.hk")
    module = doc.body
    assert doc.span.contains(module.span)
    for p in module.inner.places:
        assert module.span.contains(p.span)
    for t in module.inner.transitions:
        assert module.span.contains(t.span)
    for a in module.inner.arcs:
        assert module.span.contains(a.span)


def test_duplicate_element_names_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse("module m { places { p; p; } }")
    with pytest.raises(ParseError, match="duplicate"):
        parse("module m { places { p; } trans { p; } }")


def test_duplicate_interface_labels_rejected_at_parse_time():
    with pytest.raises(ParseError, match="duplicate"):
        parse("module m { left { place x = p; place x = q; } places { p; q; } }")


def test_interface_must_reference_existing_elements():
    with pytest.raises(ParseError, match="unknown element"):
        parse("module m { left { place x = ghost; } places { p; } }")


def test_arcs_must_connect_place_and_transition():
    with pytest.raises(ParseError, match="place and"):
        parse("module m { places { p; q; } arcs { p -> q : x; } }")


def test_tuple_sorts_need_two_components():
    with pytest.raises(ParseError, match="at least two"):
        parse("module m { places { p : (A); } }")


def test_unterminated_input_has_span():
    with pytest.raises(ParseError) as err:
        parse("module m { places { p; }")
    assert err.value.span is not None


def test_quoted_labels_round_trip():
    text = ('module m { left { place "a label with spaces" = p; '
            'trans "weird\\"quote" = t; } places { p; } trans { t; } }')
    doc = parse(text)
    labels = [e.label for e in doc.body.left]
    assert labels == ['a label with spaces', 'weird"quote']
    assert parse(print_document(doc)) == doc


def test_value_syntax_in_structures():
    doc = parse("""structure s of sig {
      A = {x, y};
      pairfn = {(x, y) -> {x}, (y, x) -> {}};
      k = (x, {y});
    }""")
    entries = {e.symbol: e for e in doc.body.entries}
    assert entries["A"].value == SetValue([Atom("x"), Atom("y")])
    assert entries["pairfn"].kind == "table"
    assert entries["k"].kind == "value"


def test_function_declarations_with_multiple_arguments():
    sig = parse("signature s { sets A, B; fns f: A, B -> A, g: B -> B; }").body
    assert [name for name, _, _ in sig.functions] == ["f", "g"]
    assert len(sig.functions[0][1]) == 2


@pytest.mark.parametrize("subset", ["A", "C"])
def test_a_subset_binds_whether_it_sorts_before_or_after_its_base(subset):
    # entries are kept sorted by symbol: A = pow(B) comes before B = ...;
    # a missing base is a row of test_parse_fuzz.HAND_WRITTEN
    sig = parse(f"signature s {{ sets B; subsets {subset} of pow(B); }}").body
    text = f"structure t of s {{ B = {{b1, b2}}; {subset} = pow(B); }}"
    s = bind_structure(parse(text).body, sig)
    b1, b2 = Atom("b1"), Atom("b2")
    assert set(s.carriers[subset]) == {SetValue(), SetValue([b1]), SetValue([b2]),
                                       SetValue([b1, b2])}


def test_two_argument_tables_and_constants_bind_and_round_trip():
    sig = parse("signature sg { sets A, B; consts k: A; fns h: A, B -> B; }").body
    a1, a2, b = Atom("a1"), Atom("a2"), Atom("b")
    text = """structure st of sg {
      A = {a1, a2};
      B = {b};
      h = {(a1, b) -> b, (a2, b) -> b};
      k = a2;
    }"""
    s = bind_structure(parse(text).body, sig)
    assert s.functions["h"] == {(a1, b): b, (a2, b): b}
    assert s.constants == {"k": a2}
    printed = print_structure(structure_to_doc(s))
    assert bind_structure(parse(printed).body, sig) == s
    for key in ("a2", "(a2, b, b)"):
        with pytest.raises(ParseError, match="table key for 'h' must be a 2-tuple"):
            bind_structure(parse(text.replace("(a2, b)", key)).body, sig)


def test_empty_module_prints_valid_text():
    doc = parse("module hollow { }")
    assert parse(print_document(doc)) == doc


def test_round_trip_on_500_random_documents():
    rng = random.Random(20220301)
    for i in range(500):
        doc = random_document(rng)
        text = print_document(doc)
        first = parse(text, f"gen{i}")
        assert parse(print_document(first), f"gen{i}") == first


def test_parse_script_lines(tmp_path):
    steps = parse_script("offer_table t=t1\nenter c=Alice t=t1 # choose Alice\n")
    assert steps == [("offer_table", Binding({"t": Atom("t1")})),
                     ("enter", Binding({"c": Atom("Alice"), "t": Atom("t1")}))]


def test_a_script_line_ends_at_a_newline_only():
    # str.splitlines would also break at U+2028, U+000C and the like
    for brk in ("\u2028", "\x0c", "\x0b", "\x1c", "\x85", "\u2029"):
        steps = parse_script(f"offer_table t=t1 # note{brk}enter c=Alice\n")
        assert steps == [("offer_table", Binding({"t": Atom("t1")}))]
    with pytest.raises(ParseError) as err:
        parse_script("offer_table t=t1\n# a\x0cb\nleave c=x y\n", "steps")
    assert str(err.value) == "steps:3:12: expected '=', found 'end of input'"
    steps = parse_script("offer_table t=t1\r\nenter c=Alice\rleave c=Alice")
    assert [name for name, _ in steps] == ["offer_table", "enter", "leave"]



def _parse_error(text: str) -> str:
    with pytest.raises(ParseError) as err:
        parse(text, "x.hksig")
    return str(err.value)


@pytest.mark.parametrize("nl", ["\n", "\r\n", "\r"])
def test_a_document_line_ends_at_any_newline(nl):
    # spans count lines as spans.source_lines splits them
    assert _parse_error(f"signature s {{{nl}  sets A, ;{nl}}}{nl}") == \
        "x.hksig:2:11: expected set symbol, found ';'"
    # the end of the input after a comment is at the comment's '#'
    assert _parse_error(f"signature s {{{nl}  sets A;{nl}# c") == \
        "x.hksig:3:1: expected sets, subsets, consts, or fns"


@pytest.mark.parametrize("nl", ["\n", "\r\n", "\r"])
def test_a_comment_or_quoted_label_ends_at_any_newline(nl):
    assert _parse_error(f"signature s {{ # c{nl}  sets A, ;{nl}}}{nl}") == \
        "x.hksig:2:11: expected set symbol, found ';'"
    assert _parse_error(f'signature s {{ sets A; }}{nl}structure "a{nl}b"') == \
        "x.hksig:2:11: unterminated string"

def test_parse_script_with_set_values():
    steps = parse_script("select X={meat, rice} c=Alice\n")
    assert steps[0][1]["X"] == SetValue([Atom("meat"), Atom("rice")])


def test_predicates_evaluate_on_markings():
    pred = parse_predicate("contains(eating, (Alice, t1)) or count(menu) >= 2")
    from hknet import TupleValue
    hit = Marking({"eating": Multiset([TupleValue([Atom("Alice"), Atom("t1")])])})
    miss = Marking({"menu": Multiset([Atom("x")])})
    assert pred(hit)
    assert not pred(miss)
    both = Marking({"menu": Multiset([Atom("x"), Atom("y")])})
    assert pred(both)


def test_predicate_connectives_and_tokens():
    pred = parse_predicate("not tokens(p, a) = 0 and count(p) <= 3")
    assert pred(Marking({"p": Multiset([Atom("a")])}))
    assert not pred(Marking({"p": Multiset([Atom("b")])}))
    assert not pred(Marking({"p": Multiset([Atom("a")] * 4)}))


def test_parentheses_group_a_predicate():
    grouped = parse_predicate("contains(p, a) and (count(p) = 0 or count(q) = 1)")
    flat = parse_predicate("contains(p, a) and count(p) = 0 or count(q) = 1")
    only_q = Marking({"q": Multiset([Atom("b")])})
    assert not grouped(only_q) and flat(only_q)
    assert grouped(Marking()) is flat(Marking()) is False


def test_a_predicate_chain_mixes_and_or_not_and_parentheses():
    # ``and`` binds tighter than ``or``, ``not`` tighter than both
    pred = parse_predicate("not contains(p, a) and count(q) >= 1 or "
                           "(count(p) = 2 or not tokens(q, b) = 0) and not count(r) > 0")
    a, b = Atom("a"), Atom("b")
    for p in ([], [a], [b, b], [a, a]):
        for q in ([], [a], [b]):
            for r in ([], [a]):
                m = Marking({name: Multiset(tokens) for name, tokens
                             in (("p", p), ("q", q), ("r", r)) if tokens})
                expected = ((a not in p and len(q) >= 1)
                            or ((len(p) == 2 or q.count(b) != 0) and not len(r) > 0))
                assert pred(m) is expected, (p, q, r)


def test_predicate_syntax_errors_carry_spans():
    with pytest.raises(ParseError) as err:
        parse_predicate("count(p) >=")
    assert err.value.span is not None


def test_a_predicate_given_the_places_rejects_any_other_at_its_name():
    text = "count(p) >= 1 or contains(q, a)"
    assert parse_predicate(text, places=("p", "q"))(Marking({"q": Multiset([Atom("a")])}))
    with pytest.raises(ParseError) as err:
        parse_predicate(text, places=("p",))
    assert err.value.message == "unknown place 'q'"
    span = err.value.span
    assert (span.line, span.col, span.end_line, span.end_col) == (1, 27, 1, 28)
    # without places any name is read, and a missing place holds nothing
    assert not parse_predicate(text)(Marking())


def test_system_documents_embed_everything(branch, s0, sys0):
    from hknet.parser import SystemDoc
    from hknet import print_system
    doc = SystemDoc(sys0.name, s0.signature, structure_to_doc(s0),
                    branch, sys0.initial)
    text = print_system(doc)
    again = parse(text, "roundtrip.hksys")
    assert again.kind == "system"
    assert again.body == doc


def test_unknown_sort_symbol_error_points_at_declaration():
    source = "signature s {\n  sets A;\n  fns f: Bogus -> A;\n}"
    with pytest.raises(ParseError) as err:
        parse(source, "x.hksig")
    span = err.value.span
    assert (span.line, span.col) == (3, 10)
    line = source.splitlines()[span.line - 1]
    assert line[span.col - 1:].startswith("Bogus")


def test_value_rendering_parses_back():
    import random as rnd
    from hknet import render_value
    from support import _random_value

    rng = rnd.Random(31337)
    for _ in range(200):
        value = _random_value(rng)
        doc = parse(f"structure s of x {{ k = {render_value(value)}; }}")
        entry = doc.body.entries[0]
        assert entry.value == value


def test_binding_rendering_parses_back_in_scripts():
    import random as rnd
    from hknet import render_binding
    from support import _random_value

    rng = rnd.Random(4711)
    for _ in range(100):
        binding = Binding({f"v{i}": _random_value(rng)
                           for i in range(rng.randrange(3))})
        inner = render_binding(binding)[1:-1]
        steps = parse_script(f"fire {inner}")
        assert steps == [("fire", binding)]


def test_non_decimal_digits_start_no_token():
    for text, col in (("count(p) = ²", 12), ("count(p) = 1²", 13)):
        with pytest.raises(ParseError) as err:
            parse_predicate(text)
        assert err.value.message == "unexpected character '²'"
        span = err.value.span
        assert (span.line, span.col, span.end_line, span.end_col) == (1, col, 1, col + 1)
    pred = parse_predicate("count(p) = 12")
    assert pred(Marking({"p": Multiset([Atom(f"a{i}") for i in range(12)])}))


def test_backslash_newline_in_a_quoted_label_is_unterminated():
    escaped = 'module m { left { place "a\\\nb" = p; } places { p; } }'
    plain = 'module m { left { place "ax\nb" = p; } places { p; } }'
    spans = []
    for text in (escaped, plain):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.message == "unterminated string"
        spans.append(err.value.span)
    assert spans[0] == spans[1]
    assert (spans[0].line, spans[0].col, spans[0].end_col) == (1, 25, 28)


def test_script_lexer_errors_report_their_own_line():
    with pytest.raises(ParseError) as err:
        parse_script("offer_table t=t1\n\nenter c=@\n", "steps")
    assert str(err.value) == "steps:3:9: unexpected character '@'"


def test_script_columns_count_from_the_start_of_an_indented_line():
    with pytest.raises(ParseError) as err:
        parse_script("  fire x=@")
    assert str(err.value) == "<script>:1:10: unexpected character '@'"
    with pytest.raises(ParseError) as err:
        parse_script("offer_table t=t1\n\tenter c=\n", "steps")
    assert str(err.value) == "steps:2:10: expected a term"


@pytest.mark.parametrize("second", ["B", "A"])
def test_a_free_variable_declared_twice_is_a_parse_error(second):
    # with two sorts or with one: either way the second name is reported
    text = f"module m {{ trans {{ t free x: A, x: {second}; }} }}"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.message == "duplicate free variable 'x'"
    span = err.value.span
    assert (span.line, span.col, span.end_line, span.end_col) == (1, 33, 1, 34)
    assert text[span.col - 1] == "x"


def test_distinct_free_variables_are_kept_sorted_by_name():
    doc = parse("module m { trans { t free y: B, x: A; } }")
    assert [name for name, _ in doc.body.inner.transitions[0].free] == ["x", "y"]


# a text nesting ``depth`` brackets of each kind the parser reads
NESTINGS = {
    "term": lambda depth: parse(
        "module m of s { places { p; } trans { t; } arcs { t -> p : "
        + "f(" * depth + "x" + ")" * depth + "; } }"),
    "value": lambda depth: parse(
        "structure st of s { k = " + "(a, " * depth + "a" + ")" * depth + "; }"),
    "sort": lambda depth: parse(
        "module m of s { places { p : " + "(A, " * depth + "A" + ")" * depth + "; } }"),
    "predicate": lambda depth: parse_predicate(
        "not " * (depth // 2) + "(" * (depth - depth // 2) + "count(p) >= 0"
        + ")" * (depth - depth // 2)),
    "predicate value": lambda depth: parse_predicate(
        "(" * (depth // 2) + "contains(p, " + "{" * (depth - depth // 2) + "a"
        + "}" * (depth - depth // 2) + ")" + ")" * (depth // 2)),
}


@pytest.mark.parametrize("kind", NESTINGS)
def test_nesting_is_read_up_to_its_limit(kind):
    NESTINGS[kind](MAX_NESTING)
    with pytest.raises(ParseError, match=f": nested more than {MAX_NESTING} deep$"):
        NESTINGS[kind](MAX_NESTING + 1)


# clauses that depend on the marking; together they hold at some marking
# and fail at another, and so does any one of them
DEPENDENT = ("count(p) >= 2", "tokens(p, a) >= 1", "contains(q, a)", "count(p) = 3")
CHAIN_MARKINGS = [Marking({"p": Multiset([Atom("a")] * n), "q": Multiset(q)})
                  for n in range(5) for q in ([], [Atom("a")])]


@pytest.mark.parametrize("seed", range(3))
def test_a_long_chain_of_ands_or_ors_evaluates_as_all_or_any_of_its_parts(seed):
    rng = random.Random(seed)
    for joiner, neutral, fold in (("and", "count(p) >= 0", all), ("or", "count(p) < 0", any)):
        clauses = [neutral] * 1500
        for i in rng.sample(range(1500), 4):
            clauses[i] = rng.choice(DEPENDENT)
        chain = parse_predicate(f" {joiner} ".join(clauses))
        parts = [parse_predicate(clause) for clause in clauses]
        verdicts = [chain(m) for m in CHAIN_MARKINGS]
        assert verdicts == [fold(part(m) for part in parts) for m in CHAIN_MARKINGS]
        assert len(set(verdicts)) == 2


@pytest.mark.parametrize("seed", range(3))
def test_a_long_mixed_chain_binds_and_tighter_than_or(seed):
    # 1 500 clauses in and-groups of one to three joined by or, about
    # 1 100 groups, more than Python's default recursion limit; each
    # group holds one clause that depends on the marking or is false
    rng = random.Random(seed)
    text, groups = [], []
    while sum(map(len, groups)) < 1500:
        size = min(rng.choice((1, 1, 1, 1, 1, 1, 2, 3)), 1500 - sum(map(len, groups)))
        group = ["count(p) >= 0"] * size
        group[rng.randrange(size)] = rng.choice([*DEPENDENT, "count(p) < 0"])
        text.append(" and ".join(group))
        groups.append([parse_predicate(clause) for clause in group])
    chain = parse_predicate(" or ".join(text))
    verdicts = [chain(m) for m in CHAIN_MARKINGS]
    assert verdicts == [any(all(part(m) for part in group) for group in groups)
                        for m in CHAIN_MARKINGS]
    assert len(set(verdicts)) == 2
