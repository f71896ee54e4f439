"""The statement lines of ``src/hknet`` that no tier-1 test executes.

Run from the repository root, with pytest's arguments if any::

    PYTHONPATH=src python tests/line_trace.py -q

The suite runs in this process under ``sys.settrace``.  Only frames whose
code lies in ``src/hknet`` get a line tracer.  Then, per file, the
statements that never reported a line are printed as line ranges, as
Markdown for a CI job summary.  A statement is one of the file's
``ast`` statements whose lines the compiler gives code, so docstrings,
``else:`` and the like do not count.  Lines that only subprocesses run,
such as those of the CLI tests that start a fresh interpreter, count as
missed.  Tracing makes the suite about three times slower.  The exit
status is pytest's.

The file name keeps it out of pytest's collection, and it needs only
the standard library and pytest.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hknet"


def code_lines(code) -> set[int]:
    """The lines to which ``code`` and the code objects nested in it
    attribute bytecode."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(source: str, filename: str) -> dict[int, range]:
    """Each statement of the file that has code, by its first line, with
    the lines it owns: all of a simple statement, the header of a
    compound one."""
    executable = code_lines(compile(source, filename, "exec"))
    out: dict[int, range] = {}
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        owned = range(node.lineno, max(end, node.lineno) + 1)
        if executable.intersection(owned):
            out[node.lineno] = owned
    return out


def ranges(lines: list[int]) -> str:
    """``[1, 2, 3, 7]`` as ``1-3, 7``."""
    parts: list[str] = []
    start = prev = None
    for line in lines + [None]:
        if prev is not None and line == prev + 1:
            prev = line
            continue
        if start is not None:
            parts.append(str(start) if start == prev else f"{start}-{prev}")
        start = prev = line
    return ", ".join(parts)


def main(args: list[str]) -> int:
    import pytest

    hit: dict[str, set[int]] = {}
    ours: dict[str, set[int] | None] = {}  # co_filename -> its hit lines, or None

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        found = ours.get(filename, False)
        if found is False:
            path = Path(filename).resolve()
            found = ours[filename] = (hit.setdefault(str(path), set())
                                      if path.parent == PACKAGE else None)
        return None if found is None else traced

    def traced(frame, event, arg):
        # each frame keeps the set of its own file
        target = ours[frame.f_code.co_filename]
        if event == "line":
            target.add(frame.f_lineno)
        return traced

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]

    print("Statement lines of src/hknet that no tier-1 test executes. Lines "
          "that only subprocesses run (CLI tests, hash-seed tests) count as "
          "missed.\n")
    print("```")
    total = missed_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        owned = statements(source, str(path))
        seen = hit.get(str(path), set())
        missed = sorted(first for first, span in owned.items()
                        if not seen.intersection(span))
        total += len(owned)
        missed_total += len(missed)
        line = f"{path.name}: {len(missed)} of {len(owned)} missed"
        print(f"{line}: {ranges(missed)}" if missed else line)
    print(f"total: {missed_total} of {total} statements missed")
    print("```")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
