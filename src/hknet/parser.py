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

Parsing normalizes entry order (sorted by name or id) everywhere except
interfaces, which keep declaration order; together with the canonical
printer this makes parse/print round-trips stable.  Every parse error
carries a span pointing into the offending token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, TypeVar

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

_TOKEN_RE = re.compile(r"""
    (?P<newline>\n)
  | (?P<comment>\#[^\n]*)
  | [ \t\r]+
  | (?P<STRING>"(?:[^"\\\n]|\\.)*")
  | (?P<unterminated>"(?:[^"\\\n]|\\.)*\\?)
  | (?P<INT>\d+)
  | (?P<IDENT>\w+)
  | (?P<punctuation>->|<=|>=|!=|[{}()\[\],;:=<>])
  | (?P<other>.)
""", re.VERBOSE)
_ESCAPE_RE = re.compile(r"\\(.)")


class _Token(NamedTuple):
    type: str  # IDENT | STRING | INT | punctuation text | EOF
    text: str
    line: int
    col: int

    @property
    def end_col(self) -> int:
        return self.col + max(len(self.text), 1)

    def span(self, filename: str) -> SourceSpan:
        return SourceSpan(filename, self.line, self.col, self.line, self.end_col)


def _lex(source: str, filename: str, line: int = 1) -> list[_Token]:
    tokens: list[_Token] = []
    line_start = 0
    comment_at: int | None = None
    for m in _TOKEN_RE.finditer(source):
        kind, text = m.lastgroup, m.group()
        col = m.start() - line_start + 1
        if kind == "IDENT" and not (text[0].isalpha() or text[0] == "_"):
            kind = "other"  # \w also matches digits that are not decimal
        if kind is None:
            continue
        if kind == "newline":
            line += 1
            line_start = m.end()
            comment_at = None
        elif kind == "comment":
            comment_at = m.start()
        elif kind in ("IDENT", "INT"):
            tokens.append(_Token(kind, text, line, col))
        elif kind == "punctuation":
            tokens.append(_Token(text, text, line, col))
        elif kind == "STRING":
            tokens.append(_Token(kind, _ESCAPE_RE.sub(r"\1", text[1:-1]), line, col))
        elif kind == "unterminated":
            raise ParseError("unterminated string", SourceSpan(
                filename, line, col, line, col + len(text)))
        else:
            raise ParseError(f"unexpected character {text[0]!r}",
                             SourceSpan(filename, line, col, line, col + 1))
    # a comment that ends the input leaves the end position at its '#'
    end = len(source) if comment_at is None else comment_at
    tokens.append(_Token("EOF", "", line, end - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _id_key(node_id: str) -> tuple[int, str]:
    return (len(node_id), node_id)


def _table_key(pair: tuple[Value, Value]) -> tuple:
    return (pair[0].key(), pair[1].key())


class _Parser:
    def __init__(self, source: str, filename: str, line: int = 1):
        self.filename = filename
        self.tokens = _lex(source, filename, line)
        self.pos = 0

    # token plumbing -------------------------------------------------------

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.type != "EOF":
            self.pos += 1
        return tok

    def at(self, type_: str, text: str | None = None) -> bool:
        tok = self.tokens[self.pos]
        return tok.type == type_ and (text is None or tok.text == text)

    def accept(self, type_: str, text: str | None = None) -> _Token | None:
        if self.at(type_, text):
            return self.next()
        return None

    def expect(self, type_: str, text: str | None = None,
               what: str | None = None) -> _Token:
        if not self.at(type_, text):
            tok = self.tokens[self.pos]
            wanted = what if what is not None else repr(text or type_)
            found = tok.text if tok.type != "EOF" else "end of input"
            raise self.error(f"expected {wanted}, found {found!r}")
        return self.next()

    def expect_keyword(self, word: str) -> _Token:
        return self.expect("IDENT", word, what=f"keyword {word!r}")

    def error(self, message: str, token: _Token | None = None) -> ParseError:
        tok = token or self.peek()
        return ParseError(message, tok.span(self.filename))

    def span_from(self, start: _Token) -> SourceSpan:
        end = self.tokens[max(self.pos - 1, 0)]
        return SourceSpan(self.filename, start.line, start.col,
                          end.line, end.end_col)

    # grammar helpers ------------------------------------------------------

    def comma_list(self, item: Callable[[], T], first: T | None = None,
                   stop: Callable[[], bool] | None = None) -> list[T]:
        """``item (, item)*``.  ``first`` is an item the caller already
        parsed; ``stop`` is asked before each comma is taken."""
        items = [item() if first is None else first]
        while self.at(",") and not (stop and stop()):
            self.next()
            items.append(item())
        return items

    def block(self, item: Callable[[], T]) -> list[T]:
        """``{ item* }``."""
        self.expect("{")
        items = []
        while not self.at("}"):
            items.append(item())
        self.expect("}")
        return items

    def named_block(self, what: str, duplicate: str,
                    item: Callable[[_Token], T]) -> list[T]:
        """``{ (<name> item)* }`` with every name at most once; ``item``
        parses what follows the name."""
        seen: set[str] = set()

        def entry() -> T:
            tok = self.expect("IDENT", what=what)
            if tok.text in seen:
                raise self.error(f"{duplicate} {tok.text!r}", tok)
            seen.add(tok.text)
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
            if tok.text not in parsers:
                raise self.error(f"unknown {owner} section {tok.text!r}", tok)
            if tok.text in found:
                raise self.error(f"duplicate {tok.text} section", tok)
            found[tok.text] = parsers[tok.text]()
        self.block(section)
        return found

    def of_name(self, what: str) -> str:
        """An optional ``of <name>``."""
        if self.accept("IDENT", "of"):
            return self.expect("IDENT", what=what).text
        return ""

    # entry point ----------------------------------------------------------

    def document(self) -> ModelDocument:
        if self.at("EOF"):
            raise self.error("expected document kind")
        kinds = {"signature": self.signature_doc, "structure": self.structure_doc,
                 "module": self.module_doc, "system": self.system_doc,
                 "run": self.run_doc}
        kind = self.peek().text if self.at("IDENT") else ""
        if kind not in kinds:
            raise self.error("expected document kind (signature, structure, "
                             "module, system, or run)")
        body = kinds[kind]()
        self.expect("EOF", what="end of document")
        return ModelDocument(kind, body, body.span)

    # signatures -----------------------------------------------------------

    def signature_doc(self) -> Signature:
        start = self.expect_keyword("signature")
        name = self.expect("IDENT", what="signature name").text
        sets: list[str] = []
        subsets: list[tuple[str, str]] = []
        consts: list[tuple[str, Sort]] = []
        fns: list[tuple[str, tuple[Sort, ...], Sort]] = []
        declared: dict[str, _Token] = {}
        sort_starts: dict[str, _Token] = {}

        def declare(what: str) -> str:
            tok = self.expect("IDENT", what=what)
            if tok.text in declared:
                raise self.error(f"duplicate symbol name {tok.text!r}", tok)
            declared[tok.text] = tok
            return tok.text

        def typed(what: str) -> str:
            sym = declare(what)
            self.expect(":")
            sort_starts[sym] = self.peek()
            return sym

        def next_is_declaration() -> bool:
            return self.peek(1).type == "IDENT" and self.peek(2).type == ":"

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
                    (sym, self.expect("IDENT", what="base set symbol").text))
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
            base = self.expect("IDENT", what="sort symbol").text
            self.expect(")")
            return PowSort(base)
        if self.accept("("):
            components = self.comma_list(self.sort)
            self.expect(")")
            if len(components) < 2:
                raise self.error("a tuple sort needs at least two components")
            return TupleSort(tuple(components))
        return SortName(self.expect("IDENT", what="sort").text)

    # structures -----------------------------------------------------------

    def structure_doc(self) -> StructureDoc:
        start = self.expect_keyword("structure")
        name = self.expect("IDENT", what="structure name").text
        self.expect_keyword("of")
        sig_name = self.expect("IDENT", what="signature name").text

        def entry(sym_tok: _Token) -> StructureEntry:
            self.expect("=")
            rhs = self._structure_rhs(sym_tok.text, sym_tok.span(self.filename))
            self.expect(";")
            return rhs
        entries = self.named_block("symbol name", "duplicate entry for", entry)
        return StructureDoc(name, sig_name,
                            tuple(sorted(entries, key=lambda e: e.symbol)),
                            span=self.span_from(start))

    def _structure_rhs(self, symbol: str, span: SourceSpan) -> StructureEntry:
        if self.at("IDENT", "pow") and self.peek(1).type == "(":
            self.next()
            self.expect("(")
            base = self.expect("IDENT", what="set symbol").text
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
        return self._term_to_value(self.term())

    def _term_to_value(self, term: Term) -> Value:
        if isinstance(term, Ident):
            return Atom(term.name)
        if isinstance(term, TupleTerm):
            return TupleValue(self._term_to_value(t) for t in term.items)
        if isinstance(term, SetTerm):
            return SetValue(self._term_to_value(t) for t in term.elements)
        raise ParseError(f"expected a ground value, found {render_term(term)}",
                         getattr(term, "span", None))

    # terms ----------------------------------------------------------------

    def term(self) -> Term:
        tok = self.peek()
        if tok.type == "IDENT" and self.peek(1).type == "(":
            self.next()
            self.expect("(")
            args = self.comma_list(self.term)
            self.expect(")")
            span = self.span_from(tok)
            if tok.text == "elm":
                if len(args) != 1:
                    raise ParseError("elm takes exactly one argument", span)
                return Elm(args[0], span)
            return App(tok.text, tuple(args), span)
        if self.accept("IDENT"):
            return Ident(tok.text, tok.span(self.filename))
        if self.accept("("):
            items = self.comma_list(self.term)
            self.expect(")")
            if len(items) < 2:
                raise ParseError("a tuple needs at least two components",
                                 self.span_from(tok))
            return TupleTerm(tuple(items), self.span_from(tok))
        if self.accept("{"):
            elements = [] if self.at("}") else self.comma_list(self.term)
            self.expect("}")
            return SetTerm(tuple(elements), self.span_from(tok))
        raise self.error("expected a term")

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
                atoms.append(GuardAtom(op_tok.text, left, self.term(),
                                       op_tok.span(self.filename)))
            if not self.accept("IDENT", "and"):
                return canonical_guard(atoms, start.span(self.filename))

    # modules --------------------------------------------------------------

    def module_doc(self) -> Module:
        start = self.expect_keyword("module")
        name = self.expect("IDENT", what="module name").text
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
        seen: set[tuple[str, str]] = set()
        seen_refs: set[str] = set()

        def item() -> InterfaceElement:
            kind_tok = self.expect("IDENT", what="'place' or 'trans'")
            kinds = {"place": PLACE, "trans": TRANSITION}
            if kind_tok.text not in kinds:
                raise self.error("expected 'place' or 'trans'", kind_tok)
            kind = kinds[kind_tok.text]
            label_tok = self.peek()
            if self.accept("STRING"):
                if not label_tok.text:
                    raise self.error("interface labels must be non-empty",
                                     label_tok)
            else:
                self.expect("IDENT", what="interface label")
            if (kind, label_tok.text) in seen:
                raise self.error(f"duplicate {kind} label {label_tok.text!r} "
                                 "in interface", label_tok)
            seen.add((kind, label_tok.text))
            self.expect("=")
            ref_tok = self.expect("IDENT", what="inner element name")
            if ref_tok.text in seen_refs:
                raise self.error(f"element {ref_tok.text!r} appears twice in "
                                 "this interface", ref_tok)
            seen_refs.add(ref_tok.text)
            self.expect(";")
            return InterfaceElement(kind, label_tok.text, ref_tok.text,
                                    label_tok.span(self.filename))
        return self.block(item)

    def place_item(self) -> Place:
        name_tok = self.expect("IDENT", what="place name")
        sort = self.sort() if self.accept(":") else None
        init: tuple[Term, ...] = ()
        if self.accept("IDENT", "init"):
            init = canonical_terms(self.comma_list(self.term))
        self.expect(";")
        return Place(name_tok.text, sort, init, span=name_tok.span(self.filename))

    def trans_item(self) -> Transition:
        name_tok = self.expect("IDENT", what="transition name")
        guard = self.guard() if self.accept("IDENT", "guard") else Guard()
        free: dict[str, Sort] = {}
        if self.accept("IDENT", "free"):
            self.comma_list(lambda: self._free_variable(free))
        self.expect(";")
        return Transition(name_tok.text, guard, tuple(sorted(free.items())),
                          span=name_tok.span(self.filename))

    def _free_variable(self, free: dict[str, Sort]) -> None:
        var_tok = self.expect("IDENT", what="variable name")
        if var_tok.text in free:
            raise self.error(f"duplicate free variable {var_tok.text!r}", var_tok)
        self.expect(":")
        free[var_tok.text] = self.sort()

    def arc_items(self) -> list[Arc]:
        merged: dict[tuple[str, str], Arc] = {}

        def item() -> None:
            src_tok = self.expect("IDENT", what="arc source")
            self.expect("->")
            tgt = self.expect("IDENT", what="arc target").text
            self.expect(":")
            inscription = tuple(self.comma_list(self.term))
            self.expect(";")
            key = (src_tok.text, tgt)
            if key in merged:
                inscription = merged[key].inscription + inscription
            merged[key] = Arc(src_tok.text, tgt, canonical_terms(inscription),
                              span=src_tok.span(self.filename))
        self.block(item)
        return list(merged.values())

    # systems ----------------------------------------------------------------

    def system_doc(self) -> SystemDoc:
        start = self.expect_keyword("system")
        name = self.expect("IDENT", what="system name").text
        self.expect("{")
        signature = self.signature_doc()
        structure = self.structure_doc()
        module = self.module_doc()
        self.expect_keyword("marking")

        def entry(place_tok: _Token) -> tuple[str, Multiset]:
            self.expect(":")
            tokens = self.comma_list(self.value)
            self.expect(";")
            return (place_tok.text, Multiset(tokens))
        marking = Marking(dict(self.named_block(
            "place name", "duplicate marking entry for", entry)))
        self.expect("}")
        return SystemDoc(name, signature, structure, module, marking,
                         span=self.span_from(start))

    # runs -------------------------------------------------------------------

    def run_doc(self) -> Module:
        start = self.expect_keyword("run")
        name = self.expect("IDENT", what="run name").text
        of_name = self.of_name("system name")
        found = self.sections("run", {
            "conditions": lambda: self.named_block(
                "condition id", "duplicate condition id", self.condition_item),
            "events": lambda: self.named_block(
                "event id", "duplicate event id", self.event_item),
            "flow": lambda: self.block(self.flow_item),
            "left": self.interface_items, "right": self.interface_items})
        net = OccurrenceNet(
            conditions=tuple(sorted(found.get("conditions", ()),
                                    key=lambda c: _id_key(c.id))),
            events=tuple(sorted(found.get("events", ()),
                                key=lambda e: _id_key(e.id))),
            flow=tuple(sorted(set(found.get("flow", ())),
                              key=lambda f: (_id_key(f[0]), _id_key(f[1])))),
        )
        run = Module(name, of_name, net, tuple(found.get("left", ())),
                     tuple(found.get("right", ())), span=self.span_from(start))
        _check_run(run, net)
        return run

    def condition_item(self, id_tok: _Token) -> Condition:
        self.expect("=")
        place = self.expect("IDENT", what="place name").text
        value = self.value()
        self.expect(";")
        return Condition(id_tok.text, place, value, span=id_tok.span(self.filename))

    def event_item(self, id_tok: _Token) -> Event:
        self.expect("=")
        transition = self.expect("IDENT", what="transition name").text
        self.expect("[")
        binding = self.binding_pairs(closing="]")
        self.expect("]")
        self.expect(";")
        return Event(id_tok.text, transition, binding,
                     span=id_tok.span(self.filename))

    def binding_pairs(self, closing: str) -> Binding:
        pairs: dict[str, Value] = {}
        while not self.at(closing):
            name_tok = self.expect("IDENT", what="variable name")
            if name_tok.text in pairs:
                raise self.error(f"duplicate binding for {name_tok.text!r}",
                                 name_tok)
            self.expect("=")
            pairs[name_tok.text] = self.value()
            self.accept(",")
        return Binding(pairs)

    def flow_item(self) -> tuple[str, str]:
        src = self.expect("IDENT", what="flow source").text
        self.expect("->")
        tgt = self.expect("IDENT", what="flow target").text
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
    for side_name, side in (("left", run.left), ("right", run.right)):
        for e in side:
            if e.ref not in ids:
                raise ParseError(
                    f"{side_name} interface exposes unknown node {e.ref!r}",
                    e.span)
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
    for entry in doc.entries:
        kind = sig.symbol_kind(entry.symbol)
        if kind is None:
            raise ParseError(f"unknown symbol {entry.symbol!r} in structure",
                             entry.span)
        if kind in ("set", "subset"):
            if entry.kind == "pow":
                base_symbol = entry.pow_of
                declared_base = sig.subset_base(entry.symbol)
                if declared_base != base_symbol:
                    raise ParseError(
                        f"{entry.symbol!r} is declared as a subset of "
                        f"pow({declared_base}), not pow({base_symbol})", entry.span)
                base = carriers.get(base_symbol)
                if base is None:
                    raise ParseError(
                        f"carrier of {base_symbol!r} must be given before "
                        f"{entry.symbol!r} = pow({base_symbol})", entry.span)
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


def structure_to_doc(s: Structure) -> StructureDoc:
    """Inverse of :func:`bind_structure`, used when printing systems."""
    entries: list[StructureEntry] = []
    for sym in s.carriers:
        entries.append(StructureEntry(sym, "value",
                                      value=SetValue(s.carriers[sym])))
    for sym, table in s.functions.items():
        pairs = [(args[0] if len(args) == 1 else TupleValue(args), result)
                 for args, result in table.items()]
        entries.append(StructureEntry(sym, "table",
                                      table=tuple(sorted(pairs, key=_table_key))))
    for sym, value in s.constants.items():
        entries.append(StructureEntry(sym, "value", value=value))
    entries.sort(key=lambda e: e.symbol)
    return StructureDoc(s.name, s.signature.name, tuple(entries))


# ---------------------------------------------------------------------------
# Scripts and predicates
# ---------------------------------------------------------------------------

def parse_script(text: str, filename: str = "<script>") -> list[tuple[str, Binding]]:
    """A simulation script: one ``transition [name=value ...]`` per line."""
    steps: list[tuple[str, Binding]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        p = _Parser(line, filename, lineno)
        if not p.at("EOF"):
            name = p.expect("IDENT", what="transition name").text
            steps.append((name, p.binding_pairs(closing="EOF")))
    return steps


def parse_predicate(text: str, filename: str = "<predicate>"):
    """Marking predicates for reachability reports.

    Grammar: ``contains(place, value)``, ``count(place) <cmp> n``,
    ``tokens(place, value) <cmp> n`` combined with ``and``, ``or``,
    ``not``, and parentheses.  Returns a ``Marking -> bool`` callable.
    """
    p = _Parser(text, filename)
    pred = _parse_pred_or(p)
    p.expect("EOF", what="end of predicate")
    return pred


_CMP = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _parse_pred_or(p: _Parser):
    left = _parse_pred_and(p)
    while p.accept("IDENT", "or"):
        right = _parse_pred_and(p)
        left = (lambda f, g: lambda m: f(m) or g(m))(left, right)
    return left


def _parse_pred_and(p: _Parser):
    left = _parse_pred_unary(p)
    while p.accept("IDENT", "and"):
        right = _parse_pred_unary(p)
        left = (lambda f, g: lambda m: f(m) and g(m))(left, right)
    return left


def _parse_pred_unary(p: _Parser):
    if p.accept("IDENT", "not"):
        inner = _parse_pred_unary(p)
        return lambda m: not inner(m)
    if p.accept("("):
        inner = _parse_pred_or(p)
        p.expect(")")
        return inner
    head = p.expect("IDENT", what="contains, count, or tokens")
    if head.text not in ("contains", "count", "tokens"):
        raise p.error("expected contains, count, or tokens", head)
    p.expect("(")
    place = p.expect("IDENT", what="place name").text
    if head.text != "count":
        p.expect(",")
        value = p.value()
    p.expect(")")
    if head.text == "contains":
        return lambda m: m.get(place).count(value) > 0
    op = _parse_cmp(p)
    n = int(p.expect("INT", what="a number").text)
    if head.text == "count":
        return lambda m: op(m.get(place).total(), n)
    return lambda m: op(m.get(place).count(value), n)


def _parse_cmp(p: _Parser):
    for text in ("<=", ">=", "!=", "=", "<", ">"):
        if p.accept(text):
            return _CMP[text]
    raise p.error("expected a comparison operator")
