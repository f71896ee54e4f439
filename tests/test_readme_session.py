"""The README's "A full session:" block, byte for byte.

Each command of the ``sh`` block under "A full session:" in README.md
runs through ``cli.main`` in a temporary copy of the committed corpus;
``golden/readme_session.txt`` pins each command's exit code and stdout
and a digest of each file it writes or changes.

Regenerate, only for a deliberate change of the session's output, with
``PYTHONPATH=src:tests python tests/test_readme_session.py > tests/golden/readme_session.txt``.
"""

import contextlib
import hashlib
import io
import os
import shlex
import shutil
import tempfile
from pathlib import Path

from hknet.cli import main

from conftest import CORPUS, CORPUS_FILES

README = CORPUS.parent / "README.md"
GOLDEN = Path(__file__).resolve().parent / "golden" / "readme_session.txt"


def session_commands() -> list[list[str]]:
    """The argument lists of the ``sh`` block under "A full session:"."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("A full session:")
    opening = next(i for i in range(start, len(lines)) if lines[i].startswith("```sh"))
    closing = next(i for i in range(opening + 1, len(lines)) if lines[i].startswith("```"))
    return [argv for line in lines[opening + 1:closing]
            if (argv := shlex.split(line, comments=True))]


def _digests(directory: Path) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()[:16]
            for path in sorted(directory.iterdir()) if path.is_file()}


def session_lines(workdir: Path) -> list[str]:
    """Run the session in ``workdir/corpus``, a copy of the committed
    corpus: per command, its line, its exit code, its stdout and the
    digest of each file it wrote or changed."""
    (workdir / "corpus").mkdir()
    for name in CORPUS_FILES:
        shutil.copy(CORPUS / name, workdir / "corpus" / name)
    out: list[str] = []
    before = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in session_commands():
            out.append("$ " + shlex.join(argv))
            if argv[0] == "cd":
                os.chdir(argv[1])
                continue
            assert argv[0] == "hknet", argv
            seen = _digests(Path.cwd())
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv[1:])
            out.append(f"exit {code}")
            out += stdout.getvalue().splitlines()
            out += [f"wrote {name} {d}" for name, d in _digests(Path.cwd()).items()
                    if seen.get(name) != d]
    finally:
        os.chdir(before)
    return out


def test_readme_session_output_is_unchanged(tmp_path):
    lines = session_lines(tmp_path)
    assert {line for line in lines if line.startswith("exit ")} == {"exit 0"}
    assert "\n".join(lines) + "\n" == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        print("\n".join(session_lines(Path(directory))))
