"""Command line toolchain.

Exit codes: 0 success, 1 validation failure, 2 usage or parse error.
All output is deterministic given the inputs, flags, and seed.

The ``of <name>`` reference in a structure file is resolved to the file
``<name>.hksig`` next to it unless ``--sig`` points elsewhere.
"""

from __future__ import annotations

import argparse
import sys
from functools import reduce
from pathlib import Path
from typing import Any

from .analysis import explore, ground, place_invariants, transition_invariants
from .dot import export_dot
from .errors import ModelError, ParseError
from .modules import Module, compose_all
from .nets import SchematicNet, check_net
from .parser import (ModelDocument, SystemDoc, bind_structure, is_identifier,
                     parse, parse_predicate, parse_script)
from .printer import print_module, print_run, print_system, structure_to_doc
from .runs import compose_runs, random_policy, scripted_policy, simulate, \
    validate_run
from .signature import Signature, validate_structure
from .spans import SourceSpan
from .systems import System, instantiate

USAGE_ERROR = 2
VALIDATION_ERROR = 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (OSError, ModelError) as exc:
        return _report(exc)


def _report(exc: OSError | ModelError) -> int:
    """Print ``exc`` as an ``error:`` line, with caret lines under the span
    of a parse error, and return its exit code."""
    print(f"error: {exc}", file=sys.stderr)
    if isinstance(exc, ParseError):
        for line in _caret_lines(exc):
            print(line, file=sys.stderr)
    return USAGE_ERROR if isinstance(exc, (OSError, ParseError)) else VALIDATION_ERROR


def _caret_lines(exc: ParseError) -> list[str]:
    span = exc.span
    if span is None:
        return []
    try:
        source_line = Path(span.file).read_text(
            encoding="utf-8").splitlines()[span.line - 1]
    except (OSError, IndexError, UnicodeDecodeError):
        return []
    width = max(span.end_col - span.col, 1) if span.end_line == span.line else 1
    return ["  " + source_line,
            "  " + " " * (span.col - 1) + "^" + "~" * (width - 1)]


def count(text: str) -> int:
    """A command-line count: an integer that is not negative."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def positive(text: str) -> int:
    """A command-line count of at least 1."""
    value = count(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {value}")
    return value


def identifier(text: str) -> str:
    """A document name: text the parser reads back as one identifier."""
    if not is_identifier(text):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an identifier: a letter or _, then letters, digits and _")
    return text


def named_output(text: str) -> str:
    """An output file whose stem, which names the document, is an identifier."""
    identifier(Path(text).stem)
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hknet",
        description="Composable high-level Petri net toolchain")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and validate model files")
    p.add_argument("files", nargs="+")
    p.add_argument("--sig", help="signature file for structures/modules")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("compose", help="compose module files left to right")
    p.add_argument("files", nargs="+")
    p.add_argument("-o", "--output", type=named_output)
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("instantiate", help="instantiate a module with a structure")
    p.add_argument("module")
    p.add_argument("structure")
    p.add_argument("--sig", help="signature file (default: <name>.hksig "
                   "next to the structure)")
    p.add_argument("--name", type=identifier,
                   help="system name (default: <module>_<structure>)")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_instantiate)

    p = sub.add_parser("simulate", help="simulate a system into a run")
    p.add_argument("system")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=count, default=10)
    p.add_argument("--script", help="script file: one 'transition x=v ...' per line")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("validate-run", help="validate a run against a system")
    p.add_argument("run")
    p.add_argument("system")
    p.set_defaults(handler=_cmd_validate_run)

    p = sub.add_parser("compose-runs", help="compose run files left to right")
    p.add_argument("files", nargs="+")
    p.add_argument("-o", "--output", type=named_output)
    p.set_defaults(handler=_cmd_compose_runs)

    p = sub.add_parser("invariants", help="place/transition invariants of a system")
    p.add_argument("system")
    p.add_argument("--transitions", action="store_true",
                   help="also print transition invariants")
    p.set_defaults(handler=_cmd_invariants)

    p = sub.add_parser("reach", help="bounded reachability exploration")
    p.add_argument("system")
    p.add_argument("--max-nodes", type=positive, default=10000)
    p.add_argument("--max-edges", type=count, default=100000)
    p.add_argument("--pred", help="marking predicate, e.g. "
                   "'contains(eating, (Alice, t1)) and count(free_tables) >= 1'")
    p.set_defaults(handler=_cmd_reach)

    p = sub.add_parser("export", help="export a model file")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true", required=True,
                   help="emit GraphViz DOT")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_export)
    return parser


# ---------------------------------------------------------------------------
# Loading helpers
# ---------------------------------------------------------------------------

def _read_source(path: str | Path) -> str:
    """The text of a UTF-8 file with universal newlines, as text mode
    reads it.  A file that is not UTF-8 is a :class:`ParseError` at its
    first undecodable byte."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        line = data.count(b"\n", 0, line_start) + 1
        col = len(data[line_start:exc.start].decode("utf-8")) + 1
        raise ParseError(f"not UTF-8 text: cannot decode byte 0x{data[exc.start]:02x}",
                         SourceSpan(str(path), line, col, line, col + 1)) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_document(path: str | Path) -> ModelDocument:
    return parse(_read_source(path), str(path))


def _load(path: str | Path, kind: str) -> Any:
    """The body of the document at ``path``, which must be a ``kind`` document."""
    doc = load_document(path)
    if doc.kind != kind:
        raise ModelError(f"{path}: expected a {kind} document, found {doc.kind}")
    return doc.body


def _find_signature(sig_name: str, near: Path, explicit: str | None) -> Signature:
    if explicit:
        return _load(explicit, "signature")
    candidate = near.parent / f"{sig_name}.hksig"
    if not candidate.exists():
        raise FileNotFoundError(
            f"cannot resolve signature {sig_name!r}: no {candidate} "
            "(use --sig to point at the signature file)")
    return _load(candidate, "signature")


def load_system_file(path: str | Path) -> System:
    return _system_of(_load(path, "system"), path)


def _system_of(body: SystemDoc, path: str | Path) -> System:
    """The system a parsed system document at ``path`` describes."""
    structure = bind_structure(body.structure, body.signature)
    system = instantiate(body.module, structure, name=body.name)
    if system.initial != body.marking:
        raise ModelError(
            f"{path}: the marking block does not match the evaluated "
            "initial inscriptions")
    return system


def _system_to_doc(system: System) -> SystemDoc:
    return SystemDoc(system.name, system.structure.signature,
                     structure_to_doc(system.structure), system.module,
                     system.initial)


def _write_output(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_check(args) -> int:
    """Check every file; exit 2 if one could not be read or parsed, else 1
    if one failed validation."""
    status = 0
    for name in args.files:
        try:
            code = _check_file(name, args.sig)
        except (OSError, ModelError) as exc:
            code = _report(exc)
        status = max(status, code)
    return status


def _check_file(name: str, explicit_sig: str | None) -> int:
    doc = load_document(name)
    problems = []
    if doc.kind == "structure":
        body = doc.body
        sig = _find_signature(body.sig_name, Path(name), explicit_sig)
        structure = bind_structure(body, sig)
        problems = validate_structure(sig, structure)
    elif doc.kind == "module":
        module = doc.body
        if module.sig:
            try:
                sig = _find_signature(module.sig, Path(name), explicit_sig)
            except FileNotFoundError:
                sig = None
                print(f"{name}: note: signature {module.sig!r} not found "
                      "nearby, syntactic check only")
            if sig is not None and isinstance(module.inner, SchematicNet):
                problems += check_net(module.inner, sig)
    elif doc.kind == "system":
        _system_of(doc.body, name)
    for v in problems:
        print(f"{name}: {v}")
    if problems:
        return VALIDATION_ERROR
    print(f"{name}: ok ({doc.kind})")
    return 0


def _cmd_compose(args) -> int:
    modules = [_load(name, "module") for name in args.files]
    result = compose_all(modules)
    if args.output:
        result = Module(Path(args.output).stem, result.sig, result.inner,
                        result.left, result.right)
    _write_output(print_module(result), args.output)
    if args.output:
        left = ", ".join(f"{k} {lbl}" for k, lbl in
                         [(e.kind, e.label) for e in result.left]) or "(empty)"
        right = ", ".join(f"{k} {lbl}" for k, lbl in
                          [(e.kind, e.label) for e in result.right]) or "(empty)"
        print(f"composed {len(modules)} modules into {result.name}")
        print(f"left interface: {left}")
        print(f"right interface: {right}")
    return 0


def _cmd_instantiate(args) -> int:
    module = _load(args.module, "module")
    body = _load(args.structure, "structure")
    sig = _find_signature(body.sig_name, Path(args.structure), args.sig)
    structure = bind_structure(body, sig)
    system = instantiate(module, structure, name=args.name)
    _write_output(print_system(_system_to_doc(system)), args.output)
    if args.output:
        print(f"instantiated {system.name}: "
              f"{system.initial.total()} initial tokens")
    return 0


def _cmd_simulate(args) -> int:
    system = load_system_file(args.system)
    if args.script:
        steps = parse_script(_read_source(args.script), args.script)
        policy = scripted_policy(steps)
    else:
        policy = random_policy(args.seed, args.steps)
    run = simulate(system, policy)
    _write_output(print_run(run), args.output)
    if args.output:
        inner = run.inner
        print(f"simulated {len(inner.events)} events, "
              f"{len(inner.conditions)} conditions")
    return 0


def _cmd_validate_run(args) -> int:
    run = _load(args.run, "run")
    system = load_system_file(args.system)
    problems = validate_run(run, system)
    if problems:
        for v in problems:
            print(f"{args.run}: {v}")
        return VALIDATION_ERROR
    print(f"{args.run}: valid run of {system.name}")
    return 0


def _cmd_compose_runs(args) -> int:
    runs = [_load(name, "run") for name in args.files]
    result = reduce(compose_runs, runs)
    if args.output:
        result = Module(Path(args.output).stem, result.sig, result.inner,
                        result.left, result.right)
    _write_output(print_run(result), args.output)
    if args.output:
        inner = result.inner
        print(f"composed {len(runs)} runs: {len(inner.events)} events, "
              f"{len(inner.conditions)} conditions")
    return 0


def _cmd_invariants(args) -> int:
    system = load_system_file(args.system)
    grounded = ground(system)
    basis = place_invariants(grounded)
    print(f"grounded net: {len(grounded.places)} places, "
          f"{len(grounded.transitions)} transitions")
    print(f"place invariants: {len(basis)}")
    for vec in basis:
        terms = [f"{'' if c == 1 else str(c) + '*'}{grounded.place_label(i)}"
                 for i, c in enumerate(vec) if c]
        weight = sum(c * m for c, m in zip(vec, grounded.initial))
        print("  " + " + ".join(terms) + f" = {weight}")
    if args.transitions:
        tbasis = transition_invariants(grounded)
        print(f"transition invariants: {len(tbasis)}")
        for vec in tbasis:
            terms = [f"{'' if c == 1 else str(c) + '*'}"
                     f"{grounded.transition_label(i)}"
                     for i, c in enumerate(vec) if c]
            print("  " + " + ".join(terms))
    return 0


def _cmd_reach(args) -> int:
    system = load_system_file(args.system)
    predicate = (parse_predicate(args.pred, places=system.net.index.places)
                 if args.pred else None)
    graph = explore(system, max_nodes=args.max_nodes, max_edges=args.max_edges,
                    predicate=predicate)
    print(f"nodes: {len(graph.markings)}")
    print(f"edges: {len(graph.edges)}")
    print(f"truncated: {'yes' if graph.truncated else 'no'}")
    listed = [("deadlocks", graph.deadlocks)]
    if predicate is not None:
        listed.append(("predicate hits", graph.predicate_hits))
    for title, nodes in listed:
        print(f"{title}: {len(nodes)}")
        for idx in nodes:
            entries = "; ".join(graph.markings[idx].rendered_entries())
            print(f"  #{idx} {{ {entries} }}" if entries else f"  #{idx} {{ }}")
    return 0


def _cmd_export(args) -> int:
    doc = load_document(args.file)
    if doc.kind == "system":
        entity: Module | System = _system_of(doc.body, args.file)
    elif doc.kind in ("module", "run"):
        entity = doc.body  # type: ignore[assignment]
    else:
        raise ModelError(f"{args.file}: cannot export a {doc.kind} document")
    _write_output(export_dot(entity), args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
