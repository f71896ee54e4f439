"""Canonical text rendering of model documents.

Printing is deterministic: parse normalizes entry order, so
``parse(print(parse(x)))`` equals ``parse(x)`` for every valid input.
"""

from __future__ import annotations

import re

from .modules import Module
from .nets import OccurrenceNet, SchematicNet
from .parser import ModelDocument, StructureDoc, SystemDoc
from .signature import Signature, render_sort
from .terms import Binding, Guard, render_term
from .values import render_value

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _label(text: str) -> str:
    if _IDENT_RE.match(text):
        return text
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def render_binding_text(b: Binding) -> str:
    return "[" + ", ".join(f"{n}={render_value(v)}" for n, v in b.pairs()) + "]"


def print_document(doc: ModelDocument) -> str:
    if doc.kind == "signature":
        return print_signature(doc.body)  # type: ignore[arg-type]
    if doc.kind == "structure":
        return print_structure(doc.body)  # type: ignore[arg-type]
    if doc.kind == "module":
        return print_module(doc.body)  # type: ignore[arg-type]
    if doc.kind == "system":
        return print_system(doc.body)  # type: ignore[arg-type]
    if doc.kind == "run":
        return print_run(doc.body)  # type: ignore[arg-type]
    raise ValueError(f"unknown document kind {doc.kind!r}")


def print_signature(sig: Signature, indent: str = "") -> str:
    lines = [f"{indent}signature {sig.name} {{"]
    inner = indent + "  "
    if sig.sets:
        lines.append(f"{inner}sets " + ", ".join(sig.sets) + ";")
    for sym, base in sig.subsets:
        lines.append(f"{inner}subsets {sym} of pow({base});")
    if sig.constants:
        decls = ", ".join(f"{n}: {render_sort(s)}" for n, s in sig.constants)
        lines.append(f"{inner}consts {decls};")
    if sig.functions:
        decls = ", ".join(
            f"{n}: " + ", ".join(render_sort(a) for a in args)
            + f" -> {render_sort(res)}"
            for n, args, res in sig.functions)
        lines.append(f"{inner}fns {decls};")
    lines.append(f"{indent}}}")
    return "\n".join(lines) + ("\n" if not indent else "")


def print_structure(doc: StructureDoc, indent: str = "") -> str:
    lines = [f"{indent}structure {doc.name} of {doc.sig_name} {{"]
    inner = indent + "  "
    for entry in doc.entries:
        if entry.kind == "pow":
            rhs = f"pow({entry.pow_of})"
        elif entry.kind == "table":
            rhs = "{" + ", ".join(
                f"{render_value(k)} -> {render_value(v)}" for k, v in entry.table) + "}"
        else:
            rhs = render_value(entry.value)  # type: ignore[arg-type]
        lines.append(f"{inner}{entry.symbol} = {rhs};")
    lines.append(f"{indent}}}")
    return "\n".join(lines) + ("\n" if not indent else "")


def _print_interface(side_name: str, elements, indent: str) -> list[str]:
    if not elements:
        return []
    lines = [f"{indent}{side_name} {{"]
    for e in elements:
        kind = "place" if e.kind == "place" else "trans"
        lines.append(f"{indent}  {kind} {_label(e.label)} = {e.ref};")
    lines.append(f"{indent}}}")
    return lines


def print_module(module: Module, indent: str = "") -> str:
    inner_net = module.inner
    if not isinstance(inner_net, SchematicNet):
        return print_run(module, indent)
    of = f" of {module.sig}" if module.sig else ""
    lines = [f"{indent}module {module.name}{of} {{"]
    body = indent + "  "
    lines += _print_interface("left", module.left, body)
    lines += _print_interface("right", module.right, body)
    if inner_net.places:
        lines.append(f"{body}places {{")
        for p in inner_net.places:
            text = p.name
            if p.sort is not None:
                text += f" : {render_sort(p.sort)}"
            if p.init:
                text += " init " + ", ".join(render_term(t) for t in p.init)
            lines.append(f"{body}  {text};")
        lines.append(f"{body}}}")
    if inner_net.transitions:
        lines.append(f"{body}trans {{")
        for t in inner_net.transitions:
            text = t.name
            if not t.guard.is_true():
                text += " guard " + _render_guard(t.guard)
            if t.free:
                text += " free " + ", ".join(
                    f"{n}: {render_sort(s)}" for n, s in t.free)
            lines.append(f"{body}  {text};")
        lines.append(f"{body}}}")
    if inner_net.arcs:
        lines.append(f"{body}arcs {{")
        for a in inner_net.arcs:
            terms = ", ".join(render_term(t) for t in a.inscription)
            lines.append(f"{body}  {a.source} -> {a.target} : {terms};")
        lines.append(f"{body}}}")
    lines.append(f"{indent}}}")
    return "\n".join(lines) + ("\n" if not indent else "")


def _render_guard(g: Guard) -> str:
    if g.is_true():
        return "true"
    return " and ".join(
        f"{render_term(a.left)} {a.op} {render_term(a.right)}" for a in g.atoms)


def print_marking_block(marking, indent: str) -> list[str]:
    return [f"{indent}marking {{",
            *(f"{indent}  {entry};" for entry in marking.rendered_entries()),
            f"{indent}}}"]


def print_system(doc: SystemDoc, indent: str = "") -> str:
    body = indent + "  "
    lines = [f"{indent}system {doc.name} {{"]
    lines.append(print_signature(doc.signature, body))
    lines.append(print_structure(doc.structure, body))
    lines.append(print_module(doc.module, body))
    lines += print_marking_block(doc.marking, body)
    lines.append(f"{indent}}}")
    return "\n".join(lines) + ("\n" if not indent else "")


def print_run(run: Module, indent: str = "") -> str:
    inner = run.inner
    if not isinstance(inner, OccurrenceNet):
        raise ValueError(f"module {run.name!r} is not a run")
    of = f" of {run.sig}" if run.sig else ""
    lines = [f"{indent}run {run.name}{of} {{"]
    body = indent + "  "
    if inner.conditions:
        lines.append(f"{body}conditions {{")
        for c in inner.conditions:
            lines.append(f"{body}  {c.id} = {c.place} {render_value(c.value)};")
        lines.append(f"{body}}}")
    if inner.events:
        lines.append(f"{body}events {{")
        for e in inner.events:
            lines.append(f"{body}  {e.id} = {e.transition} "
                         f"{render_binding_text(e.binding)};")
        lines.append(f"{body}}}")
    if inner.flow:
        lines.append(f"{body}flow {{")
        for src, tgt in inner.flow:
            lines.append(f"{body}  {src} -> {tgt};")
        lines.append(f"{body}}}")
    lines += _print_interface("left", run.left, body)
    lines += _print_interface("right", run.right, body)
    lines.append(f"{indent}}}")
    return "\n".join(lines) + ("\n" if not indent else "")
