"""qhist benchmark: end-to-end CLI latency and memory, or a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload deep_chain --seed 1 --seconds 25 --trace 0

One client in one process calls ``qhist.cli.main(argv)`` in a closed loop:
each command starts when the previous one has returned.  A pass is the
workload's fixed command list; passes repeat until ``--seconds`` of command
time is spent.  Scenario files are generated from ``--seed`` and qhist sees
only the files.  Every command has an expected exit code and, where it
prints a result, an output check (see ``reference.py``).  A wrong exit
code, a wrong output or an uncaught exception makes the run incorrect.  The
one exception is a command marked ``known_defect`` in ``workloads.py``: it
runs once per run, before the timed passes and outside their metrics, and
its not completing counts only as a failed command.  Each pass is checked as
soon as it ends, outside the timed region, and only its latencies are kept.

On a shared 2-vCPU VM the CPU speed was measured to drift by up to 1.7x
over seconds to minutes, so a median over one run's samples moves with the
machine.  Each command's latency is therefore its best time over the run's
passes (the time it takes when nothing else slows it), and a kind's
``<kind>_ms.p50`` is the median of those over the kind's commands.
``wall_s`` is the sum of the best times: the fixed command list on an idle
machine.

After set-up the process limits its own address space to 4 GiB, so an
oversized allocation raises ``MemoryError`` instead of swapping the host.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes that record spans around qhist's public
functions (``spans.py``), then makes one tracemalloc pass, and reports the
per-layer metrics.  In both modes every pass must print byte-identical
command outputs.  The last line of standard output is the JSON result; the
lines above it are a readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
KINDS = ("validate", "analyze", "classify", "conditional", "verify")
# the keys of workloads.GENERATORS, known before the timed import of qhist
WORKLOADS = ("gallery", "deep_chain", "wide_dense", "observers")
ADDRESS_SPACE_LIMIT = 4 << 30
SETUP_REPEATS = 5  # this process plus four fresh ones


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up: import, generate and write the scenarios, warm up

class Bench:
    """One workload's scenario files, command list and expected results.

    Construction is the timed set-up: import qhist, generate and write the
    scenarios under ``work``, and run the warm-up commands.
    """

    def __init__(self, workload: str, seed: int, work: pathlib.Path):
        started = time.perf_counter()
        sys.path.insert(0, str(ROOT / "src"))
        import qhist.cli  # noqa: F401  (timed: the import is part of set-up)
        import workloads

        self.scenarios, cmds = workloads.generate(workload, seed, ROOT)
        self.cmds = [cmd for cmd in cmds if not cmd.known_defect]
        self.defects = [cmd for cmd in cmds if cmd.known_defect]
        self.paths = workloads.write(self.scenarios, work)
        warm_scenarios, warm_cmds = workloads.warm_up()
        warm_paths = workloads.write(warm_scenarios, work)
        for cmd in warm_cmds:
            run_command(cmd.argv(warm_paths))
        self.argvs = [cmd.argv(self.paths) for cmd in self.cmds]
        self.setup_s = time.perf_counter() - started

    def prepare(self) -> None:
        """Expected exit codes and output checks; not part of set-up time."""
        import reference

        self.refs = {key: reference.ScenarioRef(scn) for key, scn in self.scenarios.items()}
        self.expected = [reference.expect(self.refs[c.scenario], c) for c in self.cmds]
        self.defects_expected = [reference.expect(self.refs[c.scenario], c) for c in self.defects]
        self._verdicts: dict[int, tuple[bytes, str | None]] = {}
        self.attempted = self.failed = self.wrong = 0
        self.problems: dict[str, None] = {}
        self.identical = True

    def describe(self) -> list[str]:
        """d, slots, outcomes per slot, N and Gram bytes of every family."""
        lines = []
        for key, ref in self.refs.items():
            fams = []
            for name in ref.names:
                outcomes = [len(slot) for slot in ref.slots[name]]
                n = math.prod(outcomes)
                fams.append(f"{name} outcomes={'x'.join(map(str, outcomes))} N={n} gram_bytes={16 * n * n}")
            lines.append(f"scenario {key}: d={ref.scn.total_dim} slots={len(ref.scn.times) - 1}; " + "; ".join(fams))
        return lines

    def run_defects(self) -> None:
        """Run and check each known-defect command once."""
        for cmd, expected in zip(self.defects, self.defects_expected):
            oc = run_command(cmd.argv(self.paths))
            verdict = _verdict(cmd, oc, expected)
            self._count(cmd, verdict)
            print(f"known defect: {cmd.kind} {cmd.scenario} {' '.join(cmd.args)} took {oc.seconds:.3f} s")

    def run_pass(self) -> tuple[list[float], float, int]:
        """Run the command list once and check it; (latencies, pass time, stdout bytes)."""
        started = time.perf_counter()
        outcomes = [run_command(argv) for argv in self.argvs]
        wall = time.perf_counter() - started
        self._check(outcomes)
        return [oc.seconds for oc in outcomes], wall, sum(len(oc.out.encode("utf-8")) for oc in outcomes)

    def _check(self, outcomes: list) -> None:
        """Count failed and wrong commands, and note any command whose
        output differs from its first pass."""
        for i, (cmd, oc, expected) in enumerate(zip(self.cmds, outcomes, self.expected)):
            seen = self._verdicts.get(i)
            if seen is not None and seen[0] == oc.digest:
                verdict = seen[1]
            else:
                self.identical = self.identical and seen is None
                verdict = _verdict(cmd, oc, expected)
                self._verdicts[i] = (oc.digest, verdict)
            self._count(cmd, verdict)

    def _count(self, cmd, verdict: str | None) -> None:
        self.attempted += 1
        if verdict is not None:
            self.failed += 1
            self.wrong += verdict.startswith("wrong")
            self.problems[f"{cmd.kind} {cmd.scenario} {' '.join(cmd.args)} -> {verdict}"] = None


def _verdict(cmd, oc, expected) -> str | None:
    """None if the command did what was expected; else "wrong: ..." or, for a
    known defect that did not complete, "failed: ..."."""
    code, check = expected
    if oc.exception is not None or oc.code != code:
        seen = f"uncaught {oc.exception}" if oc.exception is not None else f"exit {oc.code}, expected {code}"
        return f"{'failed' if cmd.known_defect else 'wrong'}: {seen}"
    if check is not None:
        try:
            check(oc.out)
        except Exception as exc:  # a malformed report is a wrong output
            return f"wrong: {type(exc).__name__}: {exc}"
    return None


class Outcome:
    __slots__ = ("code", "out", "exception", "seconds", "digest")

    def __init__(self, code, out, err, exception, seconds):
        self.code, self.out, self.exception, self.seconds = code, out, exception, seconds
        self.digest = hashlib.sha256(f"{code}\0{exception}\0{out}\0{err}".encode()).digest()


def run_command(argv: list[str]) -> Outcome:
    cli = sys.modules["qhist.cli"]  # looked up per call, so a traced ``main`` is used
    out, err = io.StringIO(), io.StringIO()
    code = exception = None
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the command failed; the run goes on
        exception = type(exc).__name__
    seconds = time.perf_counter() - started
    return Outcome(code, out.getvalue(), err.getvalue(), exception, seconds)


def measure_setup(args, first: float) -> list[float]:
    """Set-up time of this process plus that of fresh processes doing the same set-up."""
    samples = [first]
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
             "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def limit_address_space() -> None:
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = ADDRESS_SPACE_LIMIT if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE_LIMIT, hard)
    if soft == resource.RLIM_INFINITY or soft > limit:
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def machine() -> dict:
    import ctypes
    import glob

    import numpy

    blas = None
    for lib in glob.glob(os.path.dirname(numpy.__file__) + ".libs/*openblas*"):
        cdll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(cdll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas = fn()
                break
    mem_kb = None
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {"nproc": os.cpu_count(), "mem_total_kb": mem_kb, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": blas}


# ---------------------------------------------------------------------------
# measurement

def run_for(bench: Bench, seconds: float) -> list[list[float]]:
    """Latencies of each pass, until ``seconds`` of pass time is spent (at least one pass)."""
    passes, spent = [], 0.0
    while not passes or spent < seconds:
        latencies, wall, _ = bench.run_pass()
        passes.append(latencies)
        spent += wall
    return passes


def best_times(passes: list[list[float]]) -> list[float]:
    """Each command's best latency over the passes."""
    return [min(samples) for samples in zip(*passes)]


def end_to_end(bench: Bench, passes: list[list[float]], setup_samples) -> dict:
    best = best_times(passes)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s", len(setup_samples)),
        "wall_s": (sum(best), "s", len(passes)),
    }
    for kind in KINDS:
        best_ms = [b * 1e3 for cmd, b in zip(bench.cmds, best) if cmd.kind == kind]
        metrics[f"{kind}_ms.p50"] = (statistics.median(best_ms), "ms", len(best_ms) * len(passes))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    return metrics


def traced(bench: Bench, seconds: float, spans_path: pathlib.Path) -> dict:
    import tracemalloc

    import spans

    tracer = spans.Tracer()
    plain_passes, traced_passes, per_pass = [], [], []
    spent = 0.0
    # Untraced and traced passes alternate, so that drift in machine speed
    # falls on both sides of the overhead.
    while not traced_passes or spent < seconds:
        latencies, wall, _ = bench.run_pass()
        plain_passes.append(latencies)
        spent += wall
        restore = tracer.install()
        try:
            latencies, wall, stdout_bytes = bench.run_pass()
        finally:
            spans.uninstall(restore)
        recorded = tracer.take()
        layer = spans.layer_metrics(recorded)
        layer["cli.stdout_bytes"] = stdout_bytes
        per_pass.append(layer)
        traced_passes.append(latencies)
        spent += wall
    spans.write_spans(recorded, spans_path)

    probe = spans.MemoryProbe()
    tracemalloc.start()
    restore = probe.install()
    try:
        bench.run_pass()
    finally:
        spans.uninstall(restore)
        tracemalloc.stop()

    # median_low picks a pass's own value, so counts stay whole numbers
    metrics = {name: statistics.median_low(p[name] for p in per_pass) for name in per_pass[0]}
    metrics.update(probe.metrics())
    # traced wall_s minus untraced wall_s, both as sums of best times; below
    # the noise of the machine the difference can come out negative
    metrics["trace.overhead_s"] = sum(best_times(traced_passes)) - sum(best_times(plain_passes))
    once = ("histories.family_bytes_per_history", "histories.consistency_peak_mb")
    return {name: (metrics[name], unit, 1 if name in once else len(per_pass))
            for name, unit in spans.UNITS.items()}


def report(metrics: dict) -> list[str]:
    lines = [f"{'metric':38} {'value':>16} {'unit':6} samples"]
    for name, (value, unit, n) in metrics.items():
        lines.append(f"{name:38} {value:16.6g} {unit:6} {n}")
    return lines


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "qhist" / "cli.py").is_file():
        print(f"error: no qhist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "gallery" and not (ROOT / "scenarios").is_dir():
        print(f"error: no shipped scenarios under {ROOT / 'scenarios'}", file=sys.stderr)
        return 2
    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        if args.setup_only:
            print(repr(bench.setup_s))
            return 0
        setup_samples = [] if args.trace else measure_setup(args, bench.setup_s)
        bench.prepare()
        limit_address_space()
        for line in [f"machine: {json.dumps(machine(), sort_keys=True)}", *bench.describe()]:
            print(line)
        bench.run_defects()
        if args.trace:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans_{args.workload}_seed{args.seed}.jsonl"
            metrics = traced(bench, args.seconds, spans_path)
            print(f"spans of the last traced pass: {spans_path.relative_to(ROOT)}")
        else:
            metrics = end_to_end(bench, run_for(bench, args.seconds), setup_samples)
        fail_ratio = {"fail_ratio": (bench.failed / bench.attempted, "ratio", bench.attempted)}
        for problem in bench.problems:
            print(f"command {problem}")
        if not bench.identical:
            print("error: passes printed different command outputs")
        for line in report({**metrics, **fail_ratio}):
            print(line)
        result = {
            "correct": bench.identical and not bench.wrong,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()


if __name__ == "__main__":
    sys.exit(main())
