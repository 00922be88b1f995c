"""Documented commands must parse.

Every single-line ``python -m repro ...`` command (no trailing
backslash) inside a fenced block of ``README.md`` / ``docs/*.md`` goes
through the real argument parser, so a flag that is removed or renamed
fails here until the docs follow.  Only parsing is checked: nothing runs.
"""

import pathlib
import shlex

from repro.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parents[2]
PREFIX = "python -m repro "
# Placeholders, elisions, pipelines, shell variables and redirections
# are not argv the parser would ever see.
SKIP_MARKERS = ("<", "...", "|", "$", ">")


def documented_commands():
    commands = []
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        fenced = False
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            line = line.strip()
            if line.startswith("```"):
                fenced = not fenced
            elif fenced and line.startswith(PREFIX) and not line.endswith("\\"):
                if not any(marker in line for marker in SKIP_MARKERS):
                    commands.append((f"{path.relative_to(ROOT)}:{number}", line))
    return commands


def test_documented_commands_parse(capsys):
    # One test, not one per line: ids carrying line numbers would be
    # renamed by every documentation edit.
    commands = documented_commands()
    assert len(commands) >= 25, "the scan lost the docs' command blocks"
    broken = []
    for where, line in commands:
        try:
            build_parser().parse_args(shlex.split(line[len(PREFIX):], comments=True))
        except SystemExit as exit_:  # --help exits 0; a usage error exits 2
            if exit_.code:
                broken.append(f"{where}: {line}")
    capsys.readouterr()  # argparse's usage text; the list below says it better
    assert not broken, "documented commands no longer parse:\n" + "\n".join(broken)
