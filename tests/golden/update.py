"""Rewrite the golden report corpus from the current source.

Each entry of ``commands.json`` is one ``icsim`` command: a ``name``, its
``argv`` and, for a command that reads a config file, the ``config``
document, which is written to a file passed where ``argv`` holds
``CONFIG``.  ``<name>.txt`` holds what the command printed: the command,
its exit status, its stderr and its stdout, byte for byte.
``tests/test_golden.py`` runs every command in process and compares.

Run ``python tests/golden/update.py`` after a change that is meant to alter
reports, and list each changed file with its reason.  Commands write no
``--out`` or ``--csv`` file, whose path would enter the report, and make
no argparse usage error, whose wording depends on the Python version and
the terminal width.
"""

from __future__ import annotations

import contextlib
import io
import json
import shlex
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_commands() -> list:
    return json.loads((HERE / "commands.json").read_text(encoding="utf-8"))


def run(case: dict, workdir: Path) -> str:
    """The golden text of ``case``, run through ``icsim.cli.main``."""
    from icsim.cli import main

    argv = list(case["argv"])
    if "config" in case:
        path = workdir / f"{case['name']}.json"
        path.write_text(json.dumps(case["config"]), encoding="utf-8")
        argv = [str(path) if arg == "CONFIG" else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    text = f"$ icsim {shlex.join(case['argv'])}\n"
    if "config" in case:
        text += f"CONFIG = {json.dumps(case['config'])}\n"
    return (f"{text}exit status {status or 0}\n--- stderr\n{err.getvalue()}"
            f"--- stdout\n{out.getvalue()}")


def main() -> int:
    cases = load_commands()
    names = [case["name"] for case in cases]
    if len(set(names)) != len(names):
        raise SystemExit("commands.json repeats a name")
    # every command runs before any file changes, so a command that raises
    # leaves the corpus as it was
    with tempfile.TemporaryDirectory() as tmp:
        texts = {case["name"]: run(case, Path(tmp)) for case in cases}
    for stale in HERE.glob("*.txt"):
        if stale.stem not in texts:
            stale.unlink()
    for name, text in texts.items():
        (HERE / f"{name}.txt").write_bytes(text.encode("utf-8"))
    print(f"wrote {len(cases)} golden files to {HERE}")
    return 0


if __name__ == "__main__":
    # the corpus is always made from this checkout's source
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    sys.exit(main())
