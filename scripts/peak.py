"""Peak memory, time and output of one ``qhist`` command line, per source tree.

    python3 scripts/peak.py PARENT_TREE CHANGE_TREE -- analyze chain.json --json

For each tree, in the order given, the script runs ``python3 -m qhist.cli``
with the arguments after ``--`` in a child process whose ``PYTHONPATH`` is
that tree's ``src``, in the caller's environment with
``PYTHONDONTWRITEBYTECODE=1`` and no ``PYTHONPYCACHEPREFIX``: numpy and the
standard library read their installed bytecode, and qhist compiles at every
start unless the tree's ``__pycache__`` holds current bytecode.  ``measure``
runs any interpreter argv this way; given a ``pycache`` directory, it lets
the child read and write bytecode there instead, so that the runs of one
tree that share it compile once.  The child's stdout is read in chunks, of
which only the byte count and the sha256 are kept, so the script never holds
the output; its stderr goes to a temporary file.  The child is waited for
with ``os.wait4``, which gives the peak RSS of that child alone
(``RUSAGE_CHILDREN`` would give the largest of every child waited for so
far).  On Linux that peak also counts the memory of the process that
started the child, up to the child's ``exec`` (with ``subprocess``'s vfork,
that process's own peak so far), so run this script as a small process of
its own, not ``measure`` from inside a large one.

It prints one line per tree: the exit code, the wall time, the child's peak
RSS, the stdout byte count and its sha256, and the last line of stderr if
the code is not 0.  It downloads nothing.  The exit code is 0.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys
import tempfile
import time

READ = 1 << 20  # bytes of stdout read at a time


def measure(tree: pathlib.Path, argv: list[str], pycache: str | None = None) -> dict:
    """Run the interpreter with ``argv`` (``["-m", "qhist.cli", ...]`` for a
    ``qhist`` command) from ``tree``'s ``src`` in a child process; its exit
    code, wall seconds, peak RSS in MB, stdout bytes and sha256, and stderr.

    The child reads and writes bytecode in ``pycache``, even where the
    environment sets ``PYTHONDONTWRITEBYTECODE``; with None, it writes none
    and reads it from ``__pycache__``, even where a prefix is set."""
    with tempfile.TemporaryFile() as err:
        bytecode = {"PYTHONPYCACHEPREFIX": pycache} if pycache else {"PYTHONDONTWRITEBYTECODE": "1"}
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE")}
        env |= {"PYTHONPATH": str(tree.resolve() / "src"), **bytecode}
        digest, size = hashlib.sha256(), 0
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE, stderr=err, env=env)
        with proc.stdout:
            while chunk := proc.stdout.read(READ):
                digest.update(chunk)
                size += len(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return {"code": proc.returncode, "seconds": seconds, "peak_mb": usage.ru_maxrss / 1024,  # KiB on Linux
            "bytes": size, "sha256": digest.hexdigest(), "stderr": stderr}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                usage="%(prog)s TREE [TREE ...] -- QHIST_ARGS ...")
    p.add_argument("trees", nargs="+", type=pathlib.Path, help="source trees, each with a src/qhist")
    split = argv.index("--") if "--" in argv else len(argv)
    args, command = p.parse_args(argv[:split]), argv[split + 1:]
    if not command:
        p.error("give the qhist command line after --")
    for tree in args.trees:
        run = measure(tree, ["-m", "qhist.cli", *command])
        tail = run["stderr"].strip().splitlines()[-1:] if run["code"] else []
        print(f"{tree}: exit {run['code']}, {run['seconds']:.2f} s, {run['peak_mb']:.1f} MB peak, "
              f"{run['bytes']} B out, sha256 {run['sha256']}", *tail, sep="  ", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
