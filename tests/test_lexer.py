"""The parser's lexer against the scanner it replaced.

``support.reference_lex`` is the character-by-character scanner the
parser used before; the lexer must give the same ``(type, text, line,
col)`` tokens, or a ``ParseError`` with the same text, except where one
of two deliberate fixes applies: a digit that is not decimal (``²``)
starts no token, and a backslash does not escape a newline inside a
quoted label.
"""

import string

import pytest
from hypothesis import given, settings, strategies as st

from hknet import ParseError
from hknet.parser import _lex

from conftest import CORPUS
from support import reference_lex

CORPUS_TEXTS = {p.name: p.read_text(encoding="utf-8")
                for p in sorted(CORPUS.iterdir())}
# string.punctuation holds '"', '\\', '#' and '_'
ALPHABET = string.punctuation + "\t\n" + string.ascii_letters + \
    string.digits + "é²Ⅻ"


def _outcome(lex, text: str):
    try:
        return [(t.type, t.text, t.line, t.col) for t in lex(text, "f")]
    except ParseError as exc:
        return str(exc)


def _offset(text: str, line: int, col: int) -> int:
    return sum(len(row) + 1 for row in text.split("\n")[:line - 1]) + col - 1


def _fixed_case_at(text: str) -> int | None:
    """Offset of the character where the lexer stops on one of the two
    fixes, or None if it does not stop on either."""
    try:
        _lex(text, "f")
    except ParseError as exc:
        span = exc.span
        if exc.message.startswith("unexpected character"):
            at = _offset(text, span.line, span.col)
            if text[at].isdigit() and not text[at].isdecimal():
                return at
        if exc.message == "unterminated string":
            at = _offset(text, span.end_line, span.end_col)
            if text[at - 1:at + 1] == "\\\n":
                return at
    return None


def _apply(text: str, edits) -> str:
    for pos, edit in edits:
        i = pos % (len(text) + 1)
        if isinstance(edit, int):
            text = text[:i] + text[i + edit:]
        else:
            text = text[:i] + edit + text[i:]
    return text


def check_against_reference(text: str) -> None:
    new, ref = _outcome(_lex, text), _outcome(reference_lex, text)
    if new == ref:
        return
    at = _fixed_case_at(text)
    assert at is not None, (text, new, ref)
    # up to the fixed character both lexers agree
    assert _outcome(_lex, text[:at]) == _outcome(reference_lex, text[:at])


_EDITS = st.lists(
    st.tuples(st.integers(0, 10 ** 5),
              st.one_of(st.integers(1, 4),
                        st.text(alphabet=ALPHABET, min_size=1, max_size=4))),
    max_size=8)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(CORPUS_TEXTS)), _EDITS)
def test_lexer_agrees_with_the_reference_scanner(name, edits):
    check_against_reference(_apply(CORPUS_TEXTS[name], edits))


@pytest.mark.parametrize("text", [
    "", "   \t\r", "# only a comment", "a # c\nb", "aⅫ a² _x é9 x_1",
    "1a 12 007", "Ⅻ", "->-<=>=!=!", "{}()[],;:=<>", '"a\\"b" "\\\\" "é"',
    '"a\\', '"ab', '"a\nb"', '""', "a\r\nb", "a\x0bb", "x - y", "@",
])
def test_lexer_edge_cases_agree_with_the_reference_scanner(text):
    check_against_reference(text)


def test_lexer_agrees_on_every_corpus_file():
    for text in CORPUS_TEXTS.values():
        assert _outcome(_lex, text) == _outcome(reference_lex, text)
