"""Print one digest per seed-1 command line of the four benchmark workloads.

For every distinct command line of ``gallery``, ``observers``, ``deep_chain``
and ``wide_dense`` in ``perfbench/workloads.py`` (seed 1), each report command
in both renderings, the script prints the workload, the argv with the
scenario directory stripped, and the sha256 of the exit code, stdout and
stderr of ``qhist.cli.main``.  Commands marked ``known_defect`` are skipped.
Generated scenarios are written to a temporary directory; the gallery reads
the shipped files.  ``perfbench/`` is only read.

Two source trees give the same output exactly when the CLI prints the same
bytes on every one of these command lines:

    diff <(PYTHONPATH=<other tree>/src python3 scripts/cli_digests.py) \\
         <(PYTHONPATH=src python3 scripts/cli_digests.py)
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from make_cli_golden import command_lines, record  # noqa: E402
from perfbench.workloads import generate, write  # noqa: E402

WORKLOADS = ("gallery", "observers", "deep_chain", "wide_dense")
SEED = 1


def digests(workload: str, tmp: pathlib.Path) -> list[str]:
    scenarios, cmds = generate(workload, SEED, ROOT)
    if workload == "gallery":
        paths = {key: ROOT / "scenarios" / f"{key}.json" for key in scenarios}
    else:
        paths = write(scenarios, tmp)
    lines = []
    for command, scenario, args in command_lines([c for c in cmds if not c.known_defect]):
        entry = record(command, scenario, paths[scenario], args)
        blob = json.dumps([entry["exit"], entry["stdout"], entry["stderr"]]).encode()
        argv = " ".join([command, paths[scenario].name, *args])
        lines.append(f"{workload} {argv} {hashlib.sha256(blob).hexdigest()}")
    return lines


def main() -> None:
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory() as tmp:
            for line in digests(workload, pathlib.Path(tmp)):
                print(line, flush=True)


if __name__ == "__main__":
    main()
