"""``python -O`` drops ``assert`` statements, so the library must not use
them for checks; CI also runs the suite under ``-O``."""

import ast
import importlib
from pathlib import Path

import hknet


def test_library_has_no_assert_statements():
    package = Path(hknet.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


# ---------------------------------------------------------------------------
# Dead code: unused imports and unreferenced private definitions
# ---------------------------------------------------------------------------

PACKAGE = Path(hknet.__file__).resolve().parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def annotation_names(node: ast.AST) -> list[str]:
    """Names inside a quoted annotation such as ``-> "Marking"``."""
    annotations = [getattr(node, "annotation", None), getattr(node, "returns", None)]
    return [inner.id for a in annotations
            if isinstance(a, ast.Constant) and isinstance(a.value, str)
            for inner in ast.walk(ast.parse(a.value, mode="eval"))
            if isinstance(inner, ast.Name)]


def references(tree: ast.Module, attributes: bool) -> list[tuple[str, str | None]]:
    """Each name a module reads, as ``(name, owner)``: a loaded name, a
    name in a quoted annotation and, if ``attributes``, an attribute;
    ``owner`` is the top-level function or class it occurs in, if any."""
    out = []
    for top in tree.body:
        owner = top.name if isinstance(top, DEFINITIONS) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                out.append((node.id, owner))
            elif isinstance(node, ast.Attribute) and attributes:
                out.append((node.attr, owner))
            out += [(name, owner) for name in annotation_names(node)]
    return out


def imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def private_definitions(tree: ast.Module) -> list[str]:
    names = []
    for top in tree.body:
        if isinstance(top, DEFINITIONS):
            names.append(top.name)
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.endswith("__")]


def test_library_imports_only_names_it_uses():
    unused = []
    for name, tree in modules().items():
        if name != "__init__.py":
            read = {ref for ref, _ in references(tree, attributes=False)}
            unused += [f"{name}: {imported}" for imported in imported_names(tree)
                       if imported not in read]
    assert unused == []


def test_library_references_every_private_definition():
    trees = modules()
    read = {(name, ref, owner) for name, tree in trees.items()
            for ref, owner in references(tree, attributes=True)}
    unused = [f"{name}: {private}" for name, tree in trees.items()
              for private in private_definitions(tree)
              if not any(ref == private and (module != name or owner != private)
                         for module, ref, owner in read)]
    assert unused == []


# ---------------------------------------------------------------------------
# Benchmark tracer targets
# ---------------------------------------------------------------------------

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_targets() -> tuple:
    """``perfbench/tracer.py``'s ``TARGETS``, read from its source without
    importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets
                                             if isinstance(t, ast.Name)] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise LookupError(f"no TARGETS in {TRACER}")


def test_every_tracer_target_resolves():
    # a renamed layer function would otherwise drop out of the traced
    # metrics, or stop the traced benchmark, without a test failing
    targets = tracer_targets()
    assert targets
    missing = []
    for prefix, module_name, path, mode, _ in targets:
        owner = importlib.import_module(module_name)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        # the tracer patches a method in its class's own dict
        found = (attr in vars(owner) if isinstance(owner, type)
                 else callable(getattr(owner, attr, None)))
        if not (module_name.startswith("hknet.") and found
                and mode in ("timed", "counted")):
            missing.append(f"{prefix}: {module_name}.{path} ({mode})")
    assert missing == []
