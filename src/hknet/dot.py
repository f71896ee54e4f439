"""GraphViz DOT export of modules, systems, and runs.

Places and run conditions are ellipses, transitions and events boxes.
Interface elements sit on the left/right rank boundary of the cluster
and are drawn with a thicker border.  Output is deterministic.
"""

from __future__ import annotations

from .modules import Module
from .nets import OccurrenceNet, SchematicNet
from .systems import System
from .terms import render_binding, render_term
from .values import render_value


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(entity: Module | System) -> str:
    if isinstance(entity, System):
        return _module_dot(entity.module, marking=entity.initial,
                           title=entity.name)
    if isinstance(entity, Module):
        return _module_dot(entity, marking=None, title=entity.name)
    raise TypeError(f"cannot export {entity!r} to DOT")


def _module_dot(module: Module, marking, title: str) -> str:
    inner = module.inner
    lines = ["digraph model {", "  rankdir=LR;",
             f"  subgraph cluster_module {{", f"    label={_quote(title)};"]
    boundary = {e.ref: side for side, elems in
                (("left", module.left), ("right", module.right))
                for e in elems}

    def node_attrs(node_id: str, shape: str, label: str) -> str:
        attrs = [f"shape={shape}", f"label={_quote(label)}"]
        if node_id in boundary:
            attrs.append("penwidth=2")
        return f"    {_quote(node_id)} [{', '.join(attrs)}];"

    if isinstance(inner, SchematicNet):
        for p in inner.places:
            label = p.display
            if marking is not None:
                tokens = marking.get(p.name)
                if tokens:
                    label += "\\n" + ", ".join(render_value(v) for v in tokens)
            elif p.init:
                label += "\\n" + ", ".join(render_term(t) for t in p.init)
            lines.append(node_attrs(p.name, "ellipse", label))
        for t in inner.transitions:
            lines.append(node_attrs(t.name, "box", t.display))
        for a in inner.arcs:
            inscription = ", ".join(render_term(t) for t in a.inscription)
            lines.append(f"    {_quote(a.source)} -> {_quote(a.target)} "
                         f"[label={_quote(inscription)}];")
    elif isinstance(inner, OccurrenceNet):
        for c in inner.conditions:
            label = f"{c.place}\\n{render_value(c.value)}"
            lines.append(node_attrs(c.id, "ellipse", label))
        for e in inner.events:
            label = f"{e.transition}\\n{render_binding(e.binding)}"
            lines.append(node_attrs(e.id, "box", label))
        for src, tgt in inner.flow:
            lines.append(f"    {_quote(src)} -> {_quote(tgt)};")
    else:
        raise TypeError(f"unknown inner net {inner!r}")

    right_refs = sorted({e.ref for e in module.right})
    left_refs = sorted({e.ref for e in module.left} - set(right_refs))
    for rank, refs in (("min", left_refs), ("max", right_refs)):
        if refs:
            lines.append(f"    {{ rank={rank}; "
                         + " ".join(f"{_quote(r)};" for r in refs) + " }")
    lines += ["  }", "}"]
    return "\n".join(lines) + "\n"
