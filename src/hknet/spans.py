"""Source positions for parsed entities and diagnostics."""

from __future__ import annotations

import re
from dataclasses import dataclass

NEWLINE = re.compile(r"\r\n|\r|\n")


def source_lines(text: str) -> list[str]:
    """The lines of ``text``, which end at ``\\n``, ``\\r\\n`` or ``\\r``
    only: not at the other breaks :meth:`str.splitlines` knows, such as
    U+000C or U+2028, which a comment or quoted label may hold."""
    return NEWLINE.split(text)


@dataclass(frozen=True)
class SourceSpan:
    """A half-open region of a source file, 1-based lines and columns."""

    file: str
    line: int
    col: int
    end_line: int
    end_col: int

    def contains(self, other: "SourceSpan") -> bool:
        if self.file != other.file:
            return False
        starts_before = (self.line, self.col) <= (other.line, other.col)
        ends_after = (self.end_line, self.end_col) >= (other.end_line, other.end_col)
        return starts_before and ends_after

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"
