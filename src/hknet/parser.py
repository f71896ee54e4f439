"""Text formats for signatures, structures, modules, systems, and runs.

Grammar (line-oriented, UTF-8, ``#`` comments; labels with spaces are
written with underscores and mapped back for display):

    signature <name> {
      sets A, B, ...;
      subsets S of pow(T);
      consts k: <sort>, ...;
      fns f: <sort> [, <sort>]* -> <sort>, ...;
    }

    structure <name> of <sig> {
      <S> = {a, b, ...};            # carrier
      <S> = pow(T);                 # subset carrier shorthand
      <f> = {a -> x, (a, b) -> y};  # function table
      <k> = <value>;                # constant
    }

    module <name> of <sig> {
      left  { place <label> = <inner>; trans <label> = <inner>; }
      right { ... }
      places { <p> [: <sort>] [init <term> [, <term>]*]; }
      trans  { <t> [guard <atom> [and <atom>]*] [free x: <sort>, ...]; }
      arcs   { <p> -> <t> : <term> [, <term>]*; <t> -> <p> : ...; }
    }

    system <name> { <signature> <structure> <module> marking { <p>: <value>, ...; } }

    run <name> of <system> {
      conditions { b1 = <place> <value>; ... }
      events     { e1 = <transition> [x=<value>, ...]; ... }
      flow       { b1 -> e1; e1 -> b2; ... }
      left  { place <label> = b1; ... }
      right { ... }
    }

Sorts are ``<name>``, ``pow(<name>)``, or tuples ``(<sort>, <sort>, ...)``.
Terms are identifiers, applications ``f(x)``, tuples ``(a, b)``, set
literals ``{a, b}``, and top-level ``elm(...)``.  Guard atoms are
``true``, ``t = t``, ``t in t``, or ``t sub t``.

Lexically, an identifier is a letter or ``_`` followed by letters, digits
and ``_`` (``str.isalpha``, ``str.isalnum``); an integer is a run of
decimal digits (``str.isdecimal``); a quoted label ``"..."`` holds any
characters but a newline, a backslash taking the next character
literally (``\\"``, ``\\\\``); ``#`` starts a comment that runs to the end
of the line; blanks are space, tab, carriage return and newline; and
the punctuation is ``-> <= >= != { } ( ) [ ] , ; : = < >``.  Any other
character, a digit that is not decimal among them, is an ``unexpected
character``.

The lexer makes one regular-expression match per token, blanks and
comments included, into ``(type, text, offset)`` tuples; a line and
column are worked out only where a span is built, by bisection over the
offsets where lines start.

Parsing normalizes entry order (sorted by name or id) everywhere except
interfaces, which keep declaration order; together with the canonical
printer this makes parse/print round-trips stable.  Every parse error
carries a span pointing into the offending token.
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_right
from collections.abc import Collection
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from .errors import EvalError, ParseError
from .modules import InterfaceElement, Module, PLACE, TRANSITION, \
    interface_violations
from .nets import Arc, Condition, Event, Marking, OccurrenceNet, Place, \
    SchematicNet, Transition, arc_endpoint_violations, name_violations
from .signature import PowSort, Signature, Sort, SortName, Structure, \
    TupleSort, make_structure, powerset, sort_symbols
from .spans import SourceSpan
from .terms import App, Binding, Elm, Guard, GuardAtom, Ident, SetTerm, Term, \
    TupleTerm, canonical_guard, canonical_terms, render_term
from .values import Atom, Multiset, SetValue, TupleValue, Value

T = TypeVar("T")


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructureEntry:
    symbol: str
    kind: str  # "value" | "table" | "pow"
    value: Value | None = None
    table: tuple[tuple[Value, Value], ...] = ()
    pow_of: str = ""
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class StructureDoc:
    name: str
    sig_name: str
    entries: tuple[StructureEntry, ...]
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SystemDoc:
    name: str
    signature: Signature
    structure: StructureDoc
    module: Module
    marking: Marking
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ModelDocument:
    kind: str  # signature | structure | module | system | run
    body: Signature | StructureDoc | Module | SystemDoc
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# One match per token, its prefix taking the blanks and comments before it.
# A comment runs to the end of its line and some alternative (at worst
# ``other`` or ``EOF``) matches after the prefix, so it never backtracks.
_TOKEN_RE = re.compile(r"""
    [ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*
    (?: (?P<IDENT>[A-Za-z_]\w*)
      | (?P<punctuation>->|<=|>=|!=|[{}()\[\],;:=<>])
      | (?P<INT>\d+)
      | (?P<STRING>"(?:[^"\\\n]|\\.)*")
      | (?P<word>\w+)
      | (?P<unterminated>"(?:[^"\\\n]|\\.)*\\?)
      | (?P<EOF>\Z)
      | (?P<other>.))
""", re.VERBOSE)
_ESCAPE_RE = re.compile(r"\\(.)")

# (type, text, offset): type IDENT, STRING (text unescaped), INT, EOF or punctuation
_Token = tuple[str, str, int]


class _Lines:
    """Spans from source offsets: one scan finds where the lines start, a
    bisection which line holds an offset.  ``first`` numbers the first line."""

    def __init__(self, source: str, first: int = 1):
        self.starts = [0, *(m.end() for m in re.finditer("\n", source))]
        self.first = first

    def span(self, filename: str, start: int, end: int, width: int) -> SourceSpan:
        """From offset ``start`` to ``width`` characters past offset ``end``."""
        starts = self.starts
        i, j = bisect_right(starts, start) - 1, bisect_right(starts, end) - 1
        line = self.first + i  # one int object for both ends of a one-line span
        return SourceSpan(filename, line, start - starts[i] + 1,
                          line if i == j else self.first + j, end - starts[j] + 1 + width)


def _lex(source: str, filename: str, line: int = 1) -> list[_Token]:
    tokens: list[_Token] = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        text = m[kind]
        at = m.start(kind)
        if kind == "IDENT" or kind == "INT":
            append((kind, text, at))
        elif kind == "punctuation":
            append((text, text, at))
        elif kind == "STRING":
            append((kind, _ESCAPE_RE.sub(r"\1", text[1:-1]), at))
        elif kind == "word" and text[0].isalpha():  # a letter beyond ASCII
            append(("IDENT", text, at))
        elif kind == "EOF":
            break
        elif kind == "unterminated":
            raise ParseError("unterminated string",
                             _Lines(source, line).span(filename, at, at, len(text)))
        else:  # \w also matches digits that are not decimal
            raise ParseError(f"unexpected character {text[0]!r}",
                             _Lines(source, line).span(filename, at, at, 1))
    # a comment that ends the input leaves the end position at its '#'
    comment = source.find("#", max(source.rfind("\n", 0, at) + 1, m.start()))
    append(("EOF", "", at if comment < 0 else comment))
    return tokens


def is_identifier(text: str) -> bool:
    """Whether the lexer reads ``text`` back as exactly one identifier."""
    try:
        return [tok[:2] for tok in _lex(text, "<name>")] == [("IDENT", text), ("EOF", "")]
    except ParseError:
        return False


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _NotGround(Exception):
    """An application (its token index) where ``_Parser.term`` reads a value."""


def _table_key(pair: tuple[Value, Value]) -> tuple:
    return (pair[0].key(), pair[1].key())


class _Parser:
    """Recursive descent over the tokens.  The paths that read most of a
    printed run (values, bindings, blocks) index ``tokens[pos]`` directly."""

    def __init__(self, source: str, filename: str, line: int = 1):
        self.filename = filename
        self.tokens = _lex(source, filename, line)
        self.lines = _Lines(source, line)
        self.pos = 0

    # token plumbing -------------------------------------------------------

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def accept(self, type_: str, text: str | None = None) -> _Token | None:
        tok = self.tokens[self.pos]
        if tok[0] != type_ or (text is not None and tok[1] != text):
            return None
        self.pos += 1
        return tok

    def expect(self, type_: str, text: str | None = None,
               what: str | None = None) -> _Token:
        tok = self.tokens[self.pos]
        if tok[0] != type_ or (text is not None and tok[1] != text):
            wanted = what if what is not None else repr(text or type_)
            found = tok[1] if tok[0] != "EOF" else "end of input"
            raise self.error(f"expected {wanted}, found {found!r}")
        self.pos += 1
        return tok

    def expect_keyword(self, word: str) -> _Token:
        return self.expect("IDENT", word, what=f"keyword {word!r}")

    def error(self, message: str, token: _Token | None = None) -> ParseError:
        return ParseError(message, self.span(token or self.peek()))

    def span(self, tok: _Token) -> SourceSpan:
        return self.lines.span(self.filename, tok[2], tok[2], max(len(tok[1]), 1))

    def span_from(self, start: _Token) -> SourceSpan:
        end = self.tokens[max(self.pos - 1, 0)]
        return self.lines.span(self.filename, start[2], end[2], max(len(end[1]), 1))

    # grammar helpers ------------------------------------------------------

    def comma_list(self, item: Callable[[], T], first: T | None = None,
                   stop: Callable[[], bool] | None = None) -> list[T]:
        """``item (, item)*``.  ``first`` is an item the caller already
        parsed; ``stop`` is asked before each comma is taken."""
        items = [item() if first is None else first]
        while self.tokens[self.pos][0] == "," and not (stop and stop()):
            self.pos += 1
            items.append(item())
        return items

    def block(self, item: Callable[[], T]) -> list[T]:
        """``{ item* }``."""
        self.expect("{")
        tokens = self.tokens
        items = []
        while tokens[self.pos][0] != "}":
            items.append(item())
        self.pos += 1
        return items

    def named_block(self, what: str, duplicate: str,
                    item: Callable[[_Token], T]) -> list[T]:
        """``{ (<name> item)* }`` with every name at most once; ``item``
        parses what follows the name."""
        seen: set[str] = set()

        def entry() -> T:
            tok = self.expect("IDENT", what=what)
            if tok[1] in seen:
                raise self.error(f"{duplicate} {tok[1]!r}", tok)
            seen.add(tok[1])
            return item(tok)
        return self.block(entry)

    def sections(self, owner: str, parsers: dict[str, Callable[[], list]]
                 ) -> dict[str, list]:
        """``{ (<section> ...)* }`` where each section name is one of
        ``parsers`` and appears at most once."""
        found: dict[str, list] = {}

        def section() -> None:
            tok = self.expect("IDENT", what=f"a {owner} section "
                              f"({', '.join(parsers)})")
            if tok[1] not in parsers:
                raise self.error(f"unknown {owner} section {tok[1]!r}", tok)
            if tok[1] in found:
                raise self.error(f"duplicate {tok[1]} section", tok)
            found[tok[1]] = parsers[tok[1]]()
        self.block(section)
        return found

    def of_name(self, what: str) -> str:
        """An optional ``of <name>``."""
        if self.accept("IDENT", "of"):
            return self.expect("IDENT", what=what)[1]
        return ""

    # entry point ----------------------------------------------------------

    def document(self) -> ModelDocument:
        tok = self.peek()
        if tok[0] == "EOF":
            raise self.error("expected document kind")
        kinds = {"signature": self.signature_doc, "structure": self.structure_doc,
                 "module": self.module_doc, "system": self.system_doc,
                 "run": self.run_doc}
        kind = tok[1] if tok[0] == "IDENT" else ""
        if kind not in kinds:
            raise self.error("expected document kind (signature, structure, "
                             "module, system, or run)")
        body = kinds[kind]()
        self.expect("EOF", what="end of document")
        return ModelDocument(kind, body, body.span)

    # signatures -----------------------------------------------------------

    def signature_doc(self) -> Signature:
        start = self.expect_keyword("signature")
        name = self.expect("IDENT", what="signature name")[1]
        sets: list[str] = []
        subsets: list[tuple[str, str]] = []
        consts: list[tuple[str, Sort]] = []
        fns: list[tuple[str, tuple[Sort, ...], Sort]] = []
        declared: dict[str, _Token] = {}
        sort_starts: dict[str, _Token] = {}

        def declare(what: str) -> str:
            tok = self.expect("IDENT", what=what)
            if tok[1] in declared:
                raise self.error(f"duplicate symbol name {tok[1]!r}", tok)
            declared[tok[1]] = tok
            return tok[1]

        def typed(what: str) -> str:
            sym = declare(what)
            self.expect(":")
            sort_starts[sym] = self.peek()
            return sym

        def next_is_declaration() -> bool:
            return self.peek(1)[0] == "IDENT" and self.peek(2)[0] == ":"

        def function() -> tuple[str, tuple[Sort, ...], Sort]:
            sym = typed("function symbol")
            args = self.comma_list(self.sort, stop=next_is_declaration)
            self.expect("->")
            return (sym, tuple(args), self.sort())

        def declaration() -> None:
            if self.accept("IDENT", "sets"):
                sets.extend(self.comma_list(lambda: declare("set symbol")))
            elif self.accept("IDENT", "subsets"):
                sym = declare("subset symbol")
                self.expect_keyword("of")
                self.expect_keyword("pow")
                self.expect("(")
                subsets.append(
                    (sym, self.expect("IDENT", what="base set symbol")[1]))
                self.expect(")")
            elif self.accept("IDENT", "consts"):
                consts.extend(self.comma_list(
                    lambda: (typed("constant symbol"), self.sort())))
            elif self.accept("IDENT", "fns"):
                fns.extend(self.comma_list(function))
            else:
                raise self.error("expected sets, subsets, consts, or fns")
            self.expect(";")

        self.block(declaration)
        for sym, base in subsets:
            if base not in sets:
                raise self.error(f"subset base {base!r} is not a declared set "
                                 "symbol", declared[sym])
        carriers = set(sets) | {n for n, _ in subsets}
        for sym, sort in [*consts, *((n, s) for n, args, res in fns
                                     for s in (*args, res))]:
            for symbol in sort_symbols(sort):
                if symbol not in carriers:
                    raise self.error(f"unknown sort symbol {symbol!r}",
                                     sort_starts[sym])
        return Signature(
            name,
            sets=tuple(sorted(sets)),
            subsets=tuple(sorted(subsets)),
            constants=tuple(sorted(consts)),
            functions=tuple(sorted(fns)),
            span=self.span_from(start),
        )

    def sort(self) -> Sort:
        if self.accept("IDENT", "pow"):
            self.expect("(")
            base = self.expect("IDENT", what="sort symbol")[1]
            self.expect(")")
            return PowSort(base)
        if self.accept("("):
            components = self.comma_list(self.sort)
            self.expect(")")
            if len(components) < 2:
                raise self.error("a tuple sort needs at least two components")
            return TupleSort(tuple(components))
        return SortName(self.expect("IDENT", what="sort")[1])

    # structures -----------------------------------------------------------

    def structure_doc(self) -> StructureDoc:
        start = self.expect_keyword("structure")
        name = self.expect("IDENT", what="structure name")[1]
        self.expect_keyword("of")
        sig_name = self.expect("IDENT", what="signature name")[1]

        def entry(sym_tok: _Token) -> StructureEntry:
            self.expect("=")
            rhs = self._structure_rhs(sym_tok[1], self.span(sym_tok))
            self.expect(";")
            return rhs
        entries = self.named_block("symbol name", "duplicate entry for", entry)
        return StructureDoc(name, sig_name,
                            tuple(sorted(entries, key=lambda e: e.symbol)),
                            span=self.span_from(start))

    def _structure_rhs(self, symbol: str, span: SourceSpan) -> StructureEntry:
        if self.peek()[:2] == ("IDENT", "pow") and self.peek(1)[0] == "(":
            self.pos += 2
            base = self.expect("IDENT", what="set symbol")[1]
            self.expect(")")
            return StructureEntry(symbol, "pow", pow_of=base, span=span)
        if not self.accept("{"):
            return StructureEntry(symbol, "value", value=self.value(), span=span)
        if self.accept("}"):
            return StructureEntry(symbol, "value", value=SetValue(), span=span)
        first = self.value()
        if self.accept("->"):
            pairs = self.comma_list(self._table_pair, first=(first, self.value()))
            self.expect("}")
            return StructureEntry(symbol, "table",
                                  table=tuple(sorted(pairs, key=_table_key)),
                                  span=span)
        elements = self.comma_list(self.value, first=first)
        self.expect("}")
        return StructureEntry(symbol, "value", value=SetValue(elements), span=span)

    def _table_pair(self) -> tuple[Value, Value]:
        key = self.value()
        self.expect("->")
        return (key, self.value())

    def value(self) -> Value:
        start = self.pos
        try:
            return self.term(ground=True)
        except _NotGround as exc:
            app_at = exc.args[0]
        # an error anywhere in the whole term comes first; else its first
        # application is what makes it no ground value
        self.pos = start
        self.term()
        self.pos = app_at
        app = self.term()
        raise ParseError(f"expected a ground value, found {render_term(app)}", app.span)

    # terms ----------------------------------------------------------------

    def term(self, ground: bool = False) -> Term | Value:
        """A term.  With ``ground``, the value of a ground term, built
        without terms or spans; ``_NotGround`` at an application."""
        tokens = self.tokens
        tok = tokens[self.pos]
        kind = tok[0]
        if kind == "IDENT":
            self.pos += 1
            if tokens[self.pos][0] != "(":
                return Atom(tok[1]) if ground else Ident(tok[1], self.span(tok))
            if ground:
                raise _NotGround(self.pos - 1)
            self.pos += 1
            args = self.comma_list(self.term)
            self.expect(")")
            span = self.span_from(tok)
            if tok[1] == "elm":
                if len(args) != 1:
                    raise ParseError("elm takes exactly one argument", span)
                return Elm(args[0], span)
            return App(tok[1], tuple(args), span)
        if kind != "(" and kind != "{":
            raise self.error("expected a term")
        self.pos += 1
        part = (lambda: self.term(True)) if ground else self.term
        items = [] if kind == "{" and tokens[self.pos][0] == "}" else self.comma_list(part)
        if kind == "{":
            self.expect("}")
            return SetValue(items) if ground else SetTerm(tuple(items), self.span_from(tok))
        self.expect(")")
        if len(items) < 2:
            raise ParseError("a tuple needs at least two components",
                             self.span_from(tok))
        return TupleValue(items) if ground else TupleTerm(tuple(items), self.span_from(tok))

    def guard(self) -> Guard:
        start = self.peek()
        atoms: list[GuardAtom] = []
        while True:
            if not self.accept("IDENT", "true"):
                left = self.term()
                op_tok = self.peek()
                if not (self.accept("=") or self.accept("IDENT", "in")
                        or self.accept("IDENT", "sub")):
                    raise self.error("expected '=', 'in', or 'sub'", op_tok)
                atoms.append(GuardAtom(op_tok[1], left, self.term(),
                                       self.span(op_tok)))
            if not self.accept("IDENT", "and"):
                return canonical_guard(atoms, self.span(start))

    # modules --------------------------------------------------------------

    def module_doc(self) -> Module:
        start = self.expect_keyword("module")
        name = self.expect("IDENT", what="module name")[1]
        sig_name = self.of_name("signature name")
        found = self.sections("module", {
            "left": self.interface_items, "right": self.interface_items,
            "places": lambda: self.block(self.place_item),
            "trans": lambda: self.block(self.trans_item),
            "arcs": self.arc_items})
        net = SchematicNet(
            places=tuple(sorted(found.get("places", ()), key=lambda p: p.name)),
            transitions=tuple(sorted(found.get("trans", ()), key=lambda t: t.name)),
            arcs=tuple(sorted(found.get("arcs", ()),
                              key=lambda a: (a.source, a.target))),
        )
        module = Module(name, sig_name, net, tuple(found.get("left", ())),
                        tuple(found.get("right", ())), span=self.span_from(start))
        _check_module(module, net)
        return module

    def interface_items(self) -> list[InterfaceElement]:
        def item() -> InterfaceElement:
            kind_tok = self.expect("IDENT", what="'place' or 'trans'")
            kinds = {"place": PLACE, "trans": TRANSITION}
            if kind_tok[1] not in kinds:
                raise self.error("expected 'place' or 'trans'", kind_tok)
            label_tok = self.peek()
            if not self.accept("STRING"):
                self.expect("IDENT", what="interface label")
            self.expect("=")
            ref = self.expect("IDENT", what="inner element name")[1]
            self.expect(";")
            return InterfaceElement(kinds[kind_tok[1]], label_tok[1], ref,
                                    self.span(label_tok))
        return self.block(item)

    def place_item(self) -> Place:
        name_tok = self.expect("IDENT", what="place name")
        sort = self.sort() if self.accept(":") else None
        init: tuple[Term, ...] = ()
        if self.accept("IDENT", "init"):
            init = canonical_terms(self.comma_list(self.term))
        self.expect(";")
        return Place(name_tok[1], sort, init, span=self.span(name_tok))

    def trans_item(self) -> Transition:
        name_tok = self.expect("IDENT", what="transition name")
        guard = self.guard() if self.accept("IDENT", "guard") else Guard()
        free: dict[str, Sort] = {}
        if self.accept("IDENT", "free"):
            self.comma_list(lambda: self._free_variable(free))
        self.expect(";")
        return Transition(name_tok[1], guard, tuple(sorted(free.items())),
                          span=self.span(name_tok))

    def _free_variable(self, free: dict[str, Sort]) -> None:
        var_tok = self.expect("IDENT", what="variable name")
        if var_tok[1] in free:
            raise self.error(f"duplicate free variable {var_tok[1]!r}", var_tok)
        self.expect(":")
        free[var_tok[1]] = self.sort()

    def arc_items(self) -> list[Arc]:
        merged: dict[tuple[str, str], Arc] = {}

        def item() -> None:
            src_tok = self.expect("IDENT", what="arc source")
            self.expect("->")
            tgt = self.expect("IDENT", what="arc target")[1]
            self.expect(":")
            inscription = tuple(self.comma_list(self.term))
            self.expect(";")
            key = (src_tok[1], tgt)
            if key in merged:
                inscription = merged[key].inscription + inscription
            merged[key] = Arc(src_tok[1], tgt, canonical_terms(inscription),
                              span=self.span(src_tok))
        self.block(item)
        return list(merged.values())

    # systems ----------------------------------------------------------------

    def system_doc(self) -> SystemDoc:
        start = self.expect_keyword("system")
        name = self.expect("IDENT", what="system name")[1]
        self.expect("{")
        signature = self.signature_doc()
        structure = self.structure_doc()
        module = self.module_doc()
        self.expect_keyword("marking")

        def entry(place_tok: _Token) -> tuple[str, Multiset]:
            self.expect(":")
            tokens = self.comma_list(self.value)
            self.expect(";")
            return (place_tok[1], Multiset(tokens))
        marking = Marking(dict(self.named_block(
            "place name", "duplicate marking entry for", entry)))
        self.expect("}")
        return SystemDoc(name, signature, structure, module, marking,
                         span=self.span_from(start))

    # runs -------------------------------------------------------------------

    def run_doc(self) -> Module:
        start = self.expect_keyword("run")
        name = self.expect("IDENT", what="run name")[1]
        of_name = self.of_name("system name")
        found = self.sections("run", {
            "conditions": lambda: self.named_block(
                "condition id", "duplicate condition id", self.condition_item),
            "events": lambda: self.named_block(
                "event id", "duplicate event id", self.event_item),
            "flow": lambda: self.block(self.flow_item),
            "left": self.interface_items, "right": self.interface_items})
        # ids sort by length, then text: b2 before b10
        net = OccurrenceNet(
            conditions=tuple(sorted(found.get("conditions", ()),
                                    key=lambda c: (len(c.id), c.id))),
            events=tuple(sorted(found.get("events", ()),
                                key=lambda e: (len(e.id), e.id))),
            flow=tuple(sorted(set(found.get("flow", ())),
                              key=lambda f: (len(f[0]), f[0], len(f[1]), f[1]))),
        )
        run = Module(name, of_name, net, tuple(found.get("left", ())),
                     tuple(found.get("right", ())), span=self.span_from(start))
        _check_run(run, net)
        return run

    def condition_item(self, id_tok: _Token) -> Condition:
        self.expect("=")
        place = self.expect("IDENT", what="place name")[1]
        value = self.value()
        self.expect(";")
        return Condition(id_tok[1], place, value, span=self.span(id_tok))

    def event_item(self, id_tok: _Token) -> Event:
        self.expect("=")
        transition = self.expect("IDENT", what="transition name")[1]
        self.expect("[")
        binding = self.binding_pairs(closing="]")
        self.expect("]")
        self.expect(";")
        return Event(id_tok[1], transition, binding,
                     span=self.span(id_tok))

    def binding_pairs(self, closing: str) -> Binding:
        tokens = self.tokens
        pairs: dict[str, Value] = {}
        while tokens[self.pos][0] != closing:
            name_tok = self.expect("IDENT", what="variable name")
            if name_tok[1] in pairs:
                raise self.error(f"duplicate binding for {name_tok[1]!r}",
                                 name_tok)
            self.expect("=")
            pairs[name_tok[1]] = self.value()
            if tokens[self.pos][0] == ",":
                self.pos += 1
        return Binding(pairs)

    def flow_item(self) -> tuple[str, str]:
        src = self.expect("IDENT", what="flow source")[1]
        self.expect("->")
        tgt = self.expect("IDENT", what="flow target")[1]
        self.expect(";")
        return (src, tgt)


def _check_module(module: Module, net: SchematicNet) -> None:
    for v in (*name_violations(net), *arc_endpoint_violations(net),
              *interface_violations(module)):
        raise ParseError(v.message, v.span)


def _check_run(run: Module, net: OccurrenceNet) -> None:
    ids = {c.id for c in net.conditions} | {e.id for e in net.events}
    if len(ids) != len(net.conditions) + len(net.events):
        raise ParseError("condition and event ids overlap", run.span)
    for node in (node for arc in net.flow for node in arc):
        if node not in ids:
            raise ParseError(f"flow mentions unknown node {node!r}", run.span)
    for v in interface_violations(run):
        raise ParseError(v.message, v.span)


def parse(text: str, filename: str = "<input>") -> ModelDocument:
    return _Parser(text, filename).document()


# ---------------------------------------------------------------------------
# Binding documents to semantic objects
# ---------------------------------------------------------------------------

def bind_structure(doc: StructureDoc, sig: Signature) -> Structure:
    """Turn a parsed structure document into a Structure over ``sig``.

    Entry kinds are classified by the symbol's declaration: carriers for
    set and subset symbols (``pow(S)`` expands to the full powerset,
    capped as in :func:`signature.powerset`), tables for function
    symbols, plain values for constants.
    """
    if doc.sig_name != sig.name:
        raise ParseError(
            f"structure {doc.name!r} interprets {doc.sig_name!r}, "
            f"not {sig.name!r}", doc.span)
    carriers: dict[str, list[Value]] = {}
    functions: dict[str, dict[tuple[Value, ...], Value]] = {}
    constants: dict[str, Value] = {}
    # the pow entries last: the base of a subset is a set, given as a value
    for entry in sorted(doc.entries, key=lambda e: e.kind == "pow"):
        kind = sig.symbol_kind(entry.symbol)
        if kind is None:
            raise ParseError(f"unknown symbol {entry.symbol!r} in structure",
                             entry.span)
        if kind in ("set", "subset"):
            if entry.kind == "pow":
                base_symbol = entry.pow_of
                declared_base = sig.subset_base(entry.symbol)
                if declared_base != base_symbol:
                    declared = ("a set, not a subset of" if declared_base is None
                                else f"a subset of pow({declared_base}), not")
                    raise ParseError(f"{entry.symbol!r} is declared as {declared} "
                                     f"pow({base_symbol})", entry.span)
                base = carriers.get(base_symbol)
                if base is None:
                    raise ParseError(
                        f"structure {doc.name!r} gives no carrier of {base_symbol!r} "
                        f"for {entry.symbol!r} = pow({base_symbol})", entry.span)
                try:
                    carriers[entry.symbol] = list(powerset(base_symbol, base))
                except EvalError as exc:
                    raise ParseError(exc.message, entry.span) from None
            elif entry.kind == "value" and isinstance(entry.value, SetValue):
                carriers[entry.symbol] = list(entry.value.elements)
            else:
                raise ParseError(
                    f"carrier of {entry.symbol!r} must be a set", entry.span)
        elif kind == "function":
            if entry.kind != "table":
                if entry.kind == "value" and entry.value == SetValue():
                    functions[entry.symbol] = {}
                    continue
                raise ParseError(
                    f"{entry.symbol!r} is a function symbol and needs a "
                    "table {a -> x, ...}", entry.span)
            arg_sorts, _ = sig.function_signature(entry.symbol)
            table: dict[tuple[Value, ...], Value] = {}
            for key, result in entry.table:
                if len(arg_sorts) == 1:
                    args = (key,)
                elif isinstance(key, TupleValue) and len(key.items) == len(arg_sorts):
                    args = key.items
                else:
                    raise ParseError(
                        f"table key for {entry.symbol!r} must be a "
                        f"{len(arg_sorts)}-tuple", entry.span)
                if args in table:
                    raise ParseError(
                        f"duplicate table entry for {entry.symbol!r}", entry.span)
                table[args] = result
            functions[entry.symbol] = table
        else:  # constant
            if entry.kind != "value" or entry.value is None:
                raise ParseError(
                    f"{entry.symbol!r} is a constant and needs a value", entry.span)
            constants[entry.symbol] = entry.value
    return make_structure(doc.name, sig, carriers, functions, constants)


# ---------------------------------------------------------------------------
# Scripts and predicates
# ---------------------------------------------------------------------------

def parse_script(text: str, filename: str = "<script>") -> list[tuple[str, Binding]]:
    """A simulation script: one ``transition [name=value ...]`` per line."""
    steps: list[tuple[str, Binding]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        p = _Parser(line, filename, lineno)
        if p.peek()[0] != "EOF":
            name = p.expect("IDENT", what="transition name")[1]
            steps.append((name, p.binding_pairs(closing="EOF")))
    return steps


def parse_predicate(text: str, filename: str = "<predicate>",
                    places: Collection[str] | None = None):
    """Marking predicates for reachability reports.

    Grammar: ``contains(place, value)``, ``count(place) <cmp> n``,
    ``tokens(place, value) <cmp> n`` combined with ``and``, ``or``,
    ``not``, and parentheses.  Returns a ``Marking -> bool`` callable.
    Given ``places``, a place name outside them is a ParseError at the
    name; without, any name is read.
    """
    p = _Parser(text, filename)
    pred = _parse_pred_or(p, places)
    p.expect("EOF", what="end of predicate")
    return pred


_CMP = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _parse_pred_or(p: _Parser, places: Collection[str] | None):
    left = _parse_pred_and(p, places)
    while p.accept("IDENT", "or"):
        right = _parse_pred_and(p, places)
        left = (lambda f, g: lambda m: f(m) or g(m))(left, right)
    return left


def _parse_pred_and(p: _Parser, places: Collection[str] | None):
    left = _parse_pred_unary(p, places)
    while p.accept("IDENT", "and"):
        right = _parse_pred_unary(p, places)
        left = (lambda f, g: lambda m: f(m) and g(m))(left, right)
    return left


def _parse_pred_unary(p: _Parser, places: Collection[str] | None):
    if p.accept("IDENT", "not"):
        inner = _parse_pred_unary(p, places)
        return lambda m: not inner(m)
    if p.accept("("):
        inner = _parse_pred_or(p, places)
        p.expect(")")
        return inner
    head = p.expect("IDENT", what="contains, count, or tokens")
    if head[1] not in ("contains", "count", "tokens"):
        raise p.error("expected contains, count, or tokens", head)
    p.expect("(")
    name = p.expect("IDENT", what="place name")
    place = name[1]
    if places is not None and place not in places:
        raise p.error(f"unknown place {place!r}", name)
    if head[1] != "count":
        p.expect(",")
        value = p.value()
    p.expect(")")
    if head[1] == "contains":
        return lambda m: m.get(place).count(value) > 0
    op = _CMP.get(p.peek()[0])
    if op is None:
        raise p.error("expected a comparison operator")
    p.pos += 1
    number = p.expect("INT", what="a number")
    try:
        n = int(number[1])
    except ValueError:  # more digits than int() converts
        raise p.error(f"number too long: {len(number[1])} digits", number) from None
    if head[1] == "count":
        return lambda m: op(m.get(place).total(), n)
    return lambda m: op(m.get(place).count(value), n)
