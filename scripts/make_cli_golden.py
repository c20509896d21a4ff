"""Record the CLI output of the gallery commands as a byte-for-byte golden file.

The commands are the gallery workload of ``perfbench/workloads.py`` (every
shipped scenario through validate, analyze and verify, the classify calls and
the conditional queries), each report command also in its other rendering
(with and without ``--json``).  For each one the file keeps the exit code,
stdout and stderr of ``qhist.cli.main``; ``tests/test_golden.py`` replays
them.  Regenerate only when a change means to alter the output.

Run from the repository root:  PYTHONPATH=src python3 scripts/make_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import gallery  # noqa: E402
from qhist import cli  # noqa: E402

OUT = ROOT / "tests" / "golden" / "gallery_cli.json"
REPORTS = ("analyze", "classify", "conditional")


def command_lines() -> list[tuple[str, str, tuple[str, ...]]]:
    """Each distinct (command, scenario, args) of the workload and its other rendering."""
    _, cmds = gallery(random.Random(0), ROOT)
    lines = set()
    for cmd in cmds:
        lines.add((cmd.kind, cmd.scenario, cmd.args))
        if cmd.kind in REPORTS:
            other = [a for a in cmd.args if a != "--json"]
            if "--json" not in cmd.args:
                other.append("--json")
            lines.add((cmd.kind, cmd.scenario, tuple(other)))
    return sorted(lines)


def record(command: str, scenario: str, args: tuple[str, ...]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, str(ROOT / "scenarios" / f"{scenario}.json"), *args])
    return {"command": command, "scenario": scenario, "args": list(args),
            "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> None:
    entries = [record(*line) for line in command_lines()]
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(entries, indent=1, ensure_ascii=True) + "\n")
    print(f"wrote {len(entries)} command lines to {OUT.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
