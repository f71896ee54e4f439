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
from .terms import render_binding, render_guard, render_term
from .values import render_value

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _label(text: str) -> str:
    if _IDENT_RE.match(text):
        return text
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _block(head: str, entries, indent: str, always: bool = False) -> list[str]:
    """``head {``, one ``entry;`` per line, ``}``; nothing for no entries
    unless ``always``."""
    lines = [f"{indent}  {e};" for e in entries]
    if not (lines or always):
        return []
    return [f"{indent}{head} {{", *lines, f"{indent}}}"]


def _finish(lines: list[str], indent: str) -> str:
    """A nested document is a piece of its parent; a top-level one ends
    with a newline."""
    return "\n".join(lines) + ("\n" if not indent else "")


def print_document(doc: ModelDocument) -> str:
    printers = {"signature": print_signature, "structure": print_structure,
                "module": print_module, "system": print_system, "run": print_run}
    if doc.kind not in printers:
        raise ValueError(f"unknown document kind {doc.kind!r}")
    return printers[doc.kind](doc.body)  # type: ignore[operator]


def print_signature(sig: Signature, indent: str = "") -> str:
    entries = [f"sets {', '.join(sig.sets)}"] if sig.sets else []
    entries += [f"subsets {sym} of pow({base})" for sym, base in sig.subsets]
    if sig.constants:
        entries.append("consts " + ", ".join(
            f"{n}: {render_sort(s)}" for n, s in sig.constants))
    if sig.functions:
        entries.append("fns " + ", ".join(
            f"{n}: " + ", ".join(render_sort(a) for a in args)
            + f" -> {render_sort(res)}"
            for n, args, res in sig.functions))
    return _finish(_block(f"signature {sig.name}", entries, indent, always=True),
                   indent)


def _structure_rhs(entry) -> str:
    if entry.kind == "pow":
        return f"pow({entry.pow_of})"
    if entry.kind == "table":
        return "{" + ", ".join(f"{render_value(k)} -> {render_value(v)}"
                               for k, v in entry.table) + "}"
    return render_value(entry.value)


def print_structure(doc: StructureDoc, indent: str = "") -> str:
    return _finish(_block(
        f"structure {doc.name} of {doc.sig_name}",
        (f"{e.symbol} = {_structure_rhs(e)}" for e in doc.entries),
        indent, always=True), indent)


def _print_interface(side_name: str, elements, indent: str) -> list[str]:
    return _block(side_name, (
        f"{'place' if e.kind == 'place' else 'trans'} {_label(e.label)} = {e.ref}"
        for e in elements), indent)


def _place_text(p) -> str:
    text = p.name
    if p.sort is not None:
        text += f" : {render_sort(p.sort)}"
    if p.init:
        text += " init " + ", ".join(render_term(t) for t in p.init)
    return text


def _transition_text(t) -> str:
    text = t.name
    if not t.guard.is_true():
        text += " guard " + render_guard(t.guard)
    if t.free:
        text += " free " + ", ".join(f"{n}: {render_sort(s)}" for n, s in t.free)
    return text


def print_module(module: Module, indent: str = "") -> str:
    inner_net = module.inner
    if not isinstance(inner_net, SchematicNet):
        return print_run(module, indent)
    of = f" of {module.sig}" if module.sig else ""
    body = indent + "  "
    return _finish([
        f"{indent}module {module.name}{of} {{",
        *_print_interface("left", module.left, body),
        *_print_interface("right", module.right, body),
        *_block("places", map(_place_text, inner_net.places), body),
        *_block("trans", map(_transition_text, inner_net.transitions), body),
        *_block("arcs", (f"{a.source} -> {a.target} : "
                         + ", ".join(render_term(t) for t in a.inscription)
                         for a in inner_net.arcs), body),
        f"{indent}}}"], indent)


def print_system(doc: SystemDoc, indent: str = "") -> str:
    body = indent + "  "
    return _finish([
        f"{indent}system {doc.name} {{",
        print_signature(doc.signature, body),
        print_structure(doc.structure, body),
        print_module(doc.module, body),
        *_block("marking", doc.marking.rendered_entries(), body, always=True),
        f"{indent}}}"], indent)


def print_run(run: Module, indent: str = "") -> str:
    inner = run.inner
    if not isinstance(inner, OccurrenceNet):
        raise ValueError(f"module {run.name!r} is not a run")
    of = f" of {run.sig}" if run.sig else ""
    body = indent + "  "
    return _finish([
        f"{indent}run {run.name}{of} {{",
        *_block("conditions", (f"{c.id} = {c.place} {render_value(c.value)}"
                               for c in inner.conditions), body),
        *_block("events", (f"{e.id} = {e.transition} {render_binding(e.binding)}"
                           for e in inner.events), body),
        *_block("flow", (f"{src} -> {tgt}" for src, tgt in inner.flow), body),
        *_print_interface("left", run.left, body),
        *_print_interface("right", run.right, body),
        f"{indent}}}"], indent)
