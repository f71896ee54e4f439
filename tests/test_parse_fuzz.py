"""Malformed input ends in a ``ParseError`` with a span, never a traceback.

``golden/parse_mutants.txt`` pins what the parser makes of about 400
seeded mutants of every corpus file and of the four reach predicates of
the benchmark: the ``ParseError`` text and the end of its span, or
``ok`` plus digests of the printed document and of every span the parser
attaches (for a predicate, its verdicts on the reachable markings of
``sys_tiny``; for a script, its steps).  ``HAND_WRITTEN`` does the same
for one input per error the parser can report, and its ``structure``
rows for one per error ``bind_structure`` can report.  The mutants avoid
the two inputs whose lexing was fixed on purpose (see
``test_lexer.py``): digits that are not decimal, and a backslash before
a newline.

Regenerate, only for a deliberate change of parse results, with
``PYTHONPATH=src python tests/test_parse_fuzz.py > tests/golden/parse_mutants.txt``.
"""

import functools
import random
import string
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hknet import (ParseError, bind_structure, compose_all, explore,
                   instantiate, parse, parse_predicate, parse_script,
                   print_document, print_structure, structure_to_doc)
from hknet.cli import main

from conftest import CORPUS, load
from support import attached_spans, digest, mutate_source

GOLDEN = Path(__file__).resolve().parent / "golden" / "parse_mutants.txt"
ALPHABET = string.punctuation + "\t\n" + string.ascii_letters + \
    string.digits + "éⅫ"
PREDICATES = (
    "contains(eating, (Alice, t1))",
    "count(free_tables) = 0 and count(orders) >= 1",
    "tokens(cooked, rice) >= 1 or not contains(offered_tables, t1)",
    "count(waiting) >= 2",
)
PER_FILE, PER_PREDICATE = 24, 28
# what the 'structure' rows below are bound against
STRUCTURE_SIGNATURE = ("signature g { sets A, B; subsets S of pow(B); "
                       "consts k: A; fns f: A -> A; }")
HAND_WRITTEN = [
    ('document', '',
     'error m.hk:1:1: expected document kind (to 1:2)'),
    ('document', 'frob x',
     'error m.hk:1:1: expected document kind (signature, structure, module, system, or run) (to 1:5)'),
    ('document', 'signature s { } extra',
     "error m.hk:1:17: expected end of document, found 'extra' (to 1:22)"),
    ('document', 'signature s { sets A, A; }',
     "error m.hk:1:23: duplicate symbol name 'A' (to 1:24)"),
    ('document', 'signature s { sets A; consts A: A; }',
     "error m.hk:1:30: duplicate symbol name 'A' (to 1:31)"),
    ('document', 'signature s { bogus }',
     'error m.hk:1:15: expected sets, subsets, consts, or fns (to 1:20)'),
    ('document', 'signature s { subsets S of pow(B); }',
     "error m.hk:1:23: subset base 'B' is not a declared set symbol (to 1:24)"),
    ('document', 'signature s { sets A; consts k: (A, Nope); }',
     "error m.hk:1:33: unknown sort symbol 'Nope' (to 1:34)"),
    ('document', 'signature s { sets A; fns f: A, B -> A; }',
     "error m.hk:1:30: unknown sort symbol 'B' (to 1:31)"),
    ('document', 'signature s { sets A; fns f: A, pow(Q) -> A, g: A -> A; }',
     "error m.hk:1:30: unknown sort symbol 'Q' (to 1:31)"),
    ('document', 'signature s { sets A; consts k: (A); }',
     'error m.hk:1:36: a tuple sort needs at least two components (to 1:37)'),
    ('document', 'signature s { sets A; subsets S pow(A); }',
     "error m.hk:1:33: expected keyword 'of', found 'pow' (to 1:36)"),
    ('document', 'structure s of g { A = {x}; A = {y}; }',
     "error m.hk:1:29: duplicate entry for 'A' (to 1:30)"),
    ('document', 'structure s of g { k = f(x); }',
     'error m.hk:1:24: expected a ground value, found f(x) (to 1:28)'),
    ('document', 'structure s of g { f = {x -> y, z}; }',
     "error m.hk:1:34: expected '->', found '}' (to 1:35)"),
    ('document', 'structure s of g { k = (x); }',
     'error m.hk:1:24: a tuple needs at least two components (to 1:27)'),
    ('document', 'structure s of g { k = ; }',
     'error m.hk:1:24: expected a term (to 1:25)'),
    ('document', 'module m { places { p init elm(a, b); } }',
     'error m.hk:1:28: elm takes exactly one argument (to 1:37)'),
    ('document', 'module m { trans { t guard x < y; } }',
     "error m.hk:1:30: expected '=', 'in', or 'sub' (to 1:31)"),
    ('document', 'module m { trans { t guard x = y and z; } }',
     "error m.hk:1:39: expected '=', 'in', or 'sub' (to 1:40)"),
    ('document', 'module m { bogus { } }',
     "error m.hk:1:12: unknown module section 'bogus' (to 1:17)"),
    ('document', 'module m { 42 }',
     "error m.hk:1:12: expected a module section (left, right, places, trans, arcs), found '42' (to 1:14)"),
    ('document', 'module m { left { } left { } }',
     'error m.hk:1:21: duplicate left section (to 1:25)'),
    ('document', 'module m { right { } right { } }',
     'error m.hk:1:22: duplicate right section (to 1:27)'),
    ('document', 'module m { places { } places { } }',
     'error m.hk:1:23: duplicate places section (to 1:29)'),
    ('document', 'module m { trans { } trans { } }',
     'error m.hk:1:22: duplicate trans section (to 1:27)'),
    ('document', 'module m { arcs { } arcs { } }',
     'error m.hk:1:21: duplicate arcs section (to 1:25)'),
    ('document', 'module m { left { node x = p; } }',
     "error m.hk:1:19: expected 'place' or 'trans' (to 1:23)"),
    ('document', 'module m { left { place "" = p; } places { p; } }',
     'error m.hk:1:25: left interface has an empty label (to 1:26)'),
    ('document', 'module m { left { place x = p; place x = q; } places { p; q; } }',
     "error m.hk:1:38: duplicate place label 'x' in left interface (to 1:39)"),
    ('document', 'module m { left { place x = p; trans x = t; } places { p; } trans { t; } }',
     'ok print=14a4abb7359f2177 spans=db0cc77e7d653186'),
    ('document', 'module m { left { place x = p; place y = p; } places { p; } }',
     "error m.hk:1:38: element 'p' appears twice in the left interface (to 1:39)"),
    ('document', 'module m { places { p; p; } }',
     "error m.hk:1:24: duplicate element name 'p' (to 1:25)"),
    ('document', 'module m { places { p; } trans { p; } }',
     "error m.hk:1:34: duplicate element name 'p' (to 1:35)"),
    ('document', 'module m { trans { t; t; } }',
     "error m.hk:1:23: duplicate element name 't' (to 1:24)"),
    ('document', 'module m { places { p; q; } arcs { p -> q : x; } }',
     'error m.hk:1:36: arc p -> q must connect a place and a transition (to 1:37)'),
    ('document', 'module m { trans { t; } arcs { ghost -> t : x; } }',
     'error m.hk:1:32: arc ghost -> t must connect a place and a transition (to 1:37)'),
    ('document', 'module m { left { place x = ghost; } places { p; } }',
     "error m.hk:1:25: left interface exposes unknown element 'ghost' (to 1:26)"),
    ('document', 'module m { right { trans x = p; } places { p; } }',
     "error m.hk:1:26: right interface exposes 'p' as transition, but it is a place (to 1:27)"),
    ('document', 'module m { left { place x = t; } trans { t; } }',
     "error m.hk:1:25: left interface exposes 't' as place, but it is a transition (to 1:26)"),
    ('document', 'module m { right { place x = p; trans y = ghost; } places { p; } left { place z = q; } }',
     "error m.hk:1:79: left interface exposes unknown element 'q' (to 1:80)"),
    ('document', 'module m { places { p : (A, B) init (a, b), c; q : pow(A); } trans { t free x: A, y: pow(B); } }',
     'ok print=97736f9579385bba spans=db90a3c840d6eed4'),
    ('document', 'module m of s { places { p } }',
     "error m.hk:1:28: expected ';', found '}' (to 1:29)"),
    ('document', 'system y { signature s { sets A; } structure t of s { A = {a}; } module m { places { p; } } marking { p: a; p: a; } }',
     "error m.hk:1:109: duplicate marking entry for 'p' (to 1:110)"),
    ('document', 'system y { signature s { sets A; } structure t of s { A = {a}; } module m { places { p; } } markin { } }',
     "error m.hk:1:93: expected keyword 'marking', found 'markin' (to 1:99)"),
    ('document', 'run r { conditions { } conditions { } }',
     'error m.hk:1:24: duplicate conditions section (to 1:34)'),
    ('document', 'run r { events { } events { } }',
     'error m.hk:1:20: duplicate events section (to 1:26)'),
    ('document', 'run r { flow { } flow { } }',
     'error m.hk:1:18: duplicate flow section (to 1:22)'),
    ('document', 'run r { left { } left { } }',
     'error m.hk:1:18: duplicate left section (to 1:22)'),
    ('document', 'run r { right { } right { } }',
     'error m.hk:1:19: duplicate right section (to 1:24)'),
    ('document', 'run r { bogus { } }',
     "error m.hk:1:9: unknown run section 'bogus' (to 1:14)"),
    ('document', 'run r { conditions { b1 = p a; b1 = p a; } }',
     "error m.hk:1:32: duplicate condition id 'b1' (to 1:34)"),
    ('document', 'run r { events { e1 = t []; e1 = t []; } }',
     "error m.hk:1:29: duplicate event id 'e1' (to 1:31)"),
    ('document', 'run r { events { e1 = t [x=a, x=b]; } }',
     "error m.hk:1:31: duplicate binding for 'x' (to 1:32)"),
    ('document', 'run r { events { e1 = t [x=a y=b]; } }',
     'ok print=fa5bef92517b4e67 spans=774e8348f257b4ed'),
    ('document', 'run r { events { e1 = t [x=a,, y=b]; } }',
     "error m.hk:1:30: expected variable name, found ',' (to 1:31)"),
    ('document', 'run r { events { e1 = t; } }',
     "error m.hk:1:24: expected '[', found ';' (to 1:25)"),
    ('document', 'run r { conditions { b1 = p a; } events { b1 = t []; } }',
     'error m.hk:1:1: condition and event ids overlap (to 1:57)'),
    ('document', 'run r { conditions { b1 = p a; } flow { b1 -> e9; } }',
     "error m.hk:1:1: flow mentions unknown node 'e9' (to 1:54)"),
    ('document', 'run r { conditions { b1 = p a; } left { place x = b2; } }',
     "error m.hk:1:47: left interface exposes unknown element 'b2' (to 1:48)"),
    ('document', 'run r { conditions { b1 = p a; } right { trans x = b1; } }',
     "error m.hk:1:48: right interface exposes 'b1' as transition, but it is a place (to 1:49)"),
    ('document', 'run r of sys { conditions { b1 = p (a, {b, c}); } events { e1 = t [x=a]; } flow { b1 -> e1; } left { place "in put" = b1; } }',
     'ok print=071313ba011007ef spans=eaa4132011c61e29'),
    ('document', 'module m { left { place "a\\"b" = p; } places { p; } }',
     'ok print=44db62d9007959d2 spans=0b2b18835a29b662'),
    ('document', 'module m { left { place "unterminated = p; } }',
     'error m.hk:1:25: unterminated string (to 1:47)'),
    ('document', 'module m { places { p @ } }',
     "error m.hk:1:23: unexpected character '@' (to 1:24)"),
    ('structure', 'structure s of h { }',
     "error m.hk:1:1: structure 's' interprets 'h', not 'g' (to 1:21)"),
    ('structure', 'structure s of g { Z = {a}; }',
     "error m.hk:1:20: unknown symbol 'Z' in structure (to 1:21)"),
    ('structure', 'structure s of g { A = {a}; S = pow(A); }',
     "error m.hk:1:29: 'S' is declared as a subset of pow(B), not pow(A) (to 1:30)"),
    ('structure', 'structure s of g { B = {b}; A = pow(B); }',
     "error m.hk:1:29: 'A' is declared as a set, not a subset of pow(B) (to 1:30)"),
    ('structure', 'structure s of g { S = pow(B); }',
     "error m.hk:1:20: structure 's' gives no carrier of 'B' for 'S' = pow(B) (to 1:21)"),
    ('structure', 'structure s of g { A = a; }',
     "error m.hk:1:20: carrier of 'A' must be a set (to 1:21)"),
    ('structure', 'structure s of g { f = a; }',
     "error m.hk:1:20: 'f' is a function symbol and needs a table {a -> x, ...} (to 1:21)"),
    ('structure', 'structure s of g { f = {a -> a, a -> b}; }',
     "error m.hk:1:20: duplicate table entry for 'f' (to 1:21)"),
    ('structure', 'structure s of g { k = {a -> a}; }',
     "error m.hk:1:20: 'k' is a constant and needs a value (to 1:21)"),
    ('structure', 'structure s of g { A = {a}; B = {b}; S = pow(B); f = {a -> a}; k = a; }',
     'ok print=062072d7bfa3b3ff'),
    ('predicate', '',
     "error m.hk:1:1: expected contains, count, or tokens, found 'end of input' (to 1:2)"),
    ('predicate', 'count(p) >=',
     "error m.hk:1:12: expected a number, found 'end of input' (to 1:13)"),
    ('predicate', 'count(p) >= x',
     "error m.hk:1:13: expected a number, found 'x' (to 1:14)"),
    ('predicate', 'count(p) ~ 1',
     "error m.hk:1:10: unexpected character '~' (to 1:11)"),
    ('predicate', 'bogus(p)',
     'error m.hk:1:1: expected contains, count, or tokens (to 1:6)'),
    ('predicate', 'contains(p, a) extra',
     "error m.hk:1:16: expected end of predicate, found 'extra' (to 1:21)"),
    ('predicate', '(contains(p, a)',
     "error m.hk:1:16: expected ')', found 'end of input' (to 1:17)"),
    ('predicate', 'tokens(p) = 1',
     "error m.hk:1:9: expected ',', found ')' (to 1:10)"),
    ('predicate', 'not not count(p) != 3 or tokens(q, (a, b)) < 2 and contains(r, {a})',
     'ok verdicts=111111111'),
    ('script', 'fire x=\n',
     'error m.hk:1:8: expected a term (to 1:9)'),
    ('script', 'fire x=a x=b\n',
     "error m.hk:1:10: duplicate binding for 'x' (to 1:11)"),
    ('script', '# c\n\nfire x=a, y=b\n  go\n',
     'ok steps=f6f834f1d1baea4f'),
    ('script', 'fire x=a @\n',
     "error m.hk:1:10: unexpected character '@' (to 1:11)"),
    ('script', '"x\n',
     'error m.hk:1:1: unterminated string (to 1:3)'),
    ('script', 'fire (a)\n',
     "error m.hk:1:6: expected variable name, found '(' (to 1:7)"),
]


def sources() -> list[tuple[str, str, str]]:
    """(name, kind, text) of every source that is mutated."""
    out = []
    for path in sorted(CORPUS.iterdir()):
        kind = "script" if path.suffix == ".steps" else "document"
        out.append((path.name, kind, path.read_text(encoding="utf-8")))
    out += [(f"pred{i}", "predicate", p) for i, p in enumerate(PREDICATES)]
    return out


def mutants(name: str, text: str, count: int) -> list[str]:
    rng = random.Random(name)
    out: list[str] = []
    while len(out) < count:
        mutant = mutate_source(text, rng, ALPHABET)
        if "\\\n" not in mutant:
            out.append(mutant)
    return out


def parse_as(kind: str, text: str, name: str):
    if kind == "predicate":
        return parse_predicate(text, name)
    if kind == "script":
        return parse_script(text, name)
    if kind == "structure":
        return bind_structure(parse(text, name).body, parse(STRUCTURE_SIGNATURE).body)
    return parse(text, name)


def outcome(kind: str, text: str, name: str, markings) -> str:
    try:
        result = parse_as(kind, text, name)
    except ParseError as exc:
        if exc.span is None:
            return f"error {exc} (no span)"
        return f"error {exc} (to {exc.span.end_line}:{exc.span.end_col})"
    if kind == "predicate":
        return "ok verdicts=" + "".join("1" if result(m) else "0" for m in markings)
    if kind == "script":
        return f"ok steps={digest(repr(result))}"
    if kind == "structure":
        return f"ok print={digest(print_structure(structure_to_doc(result)))}"
    spans = "\n".join(attached_spans(result))
    return f"ok print={digest(print_document(result))} spans={digest(spans)}"


def golden_lines(markings) -> list[str]:
    lines = []
    for name, kind, text in sources():
        count = PER_PREDICATE if kind == "predicate" else PER_FILE
        for i, mutant in enumerate(mutants(name, text, count)):
            lines.append(f"{name}#{i}: {outcome(kind, mutant, name, markings)}")
    return lines


@functools.cache
def tiny_markings():
    sig = load("sigma0.hksig").body
    structure = bind_structure(load("s0_tiny.hks").body, sig)
    branch = compose_all([load(f).body for f in
                          ("entry.hk", "guest_area.hk", "kitchen.hk")])
    return explore(instantiate(branch, structure)).markings


def test_parse_results_of_seeded_mutants_are_unchanged():
    lines = golden_lines(tiny_markings())
    assert not [line for line in lines if line.endswith("(no span)")]
    assert lines == GOLDEN.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("kind, text, expected", HAND_WRITTEN)
def test_hand_written_inputs_parse_as_recorded(kind, text, expected):
    assert outcome(kind, text, "m.hk", tiny_markings()) == expected


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sources()), st.randoms(use_true_random=False))
def test_mutated_sources_parse_or_fail_with_a_span(source, rng):
    name, kind, text = source
    try:
        parse_as(kind, mutate_source(text, rng, ALPHABET + "²"), name)
    except ParseError as exc:
        assert exc.span is not None


def test_cli_reports_parse_errors_of_mutants_with_exit_2(tmp_path, capsys):
    checked = 0
    for name, kind, text in sources():
        if kind != "document":
            continue
        for mutant in mutants(name, text, PER_FILE):
            try:
                parse(mutant, name)
            except ParseError:
                path = tmp_path / name
                path.write_text(mutant, encoding="utf-8")
                assert main(["check", str(path)]) == 2
                assert capsys.readouterr().err.startswith(f"error: {path}:")
                checked += 1
                break
    assert checked == 11


if __name__ == "__main__":
    print("\n".join(golden_lines(tiny_markings())))
