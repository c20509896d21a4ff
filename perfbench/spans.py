"""Spans around qhist's public functions, recorded from outside the package.

``install`` wraps each function in ``SPANS`` and rebinds the wrapper in every
qhist module that holds the original, so that calls from inside the package
(``resolve`` calling ``build_family``, ``consistency_check`` calling
``chain_ket``) nest as child spans.  ``uninstall`` puts the originals back.
Spans live in memory; ``layer_metrics`` folds one pass of them into the
per-layer figures.  ``MemoryProbe`` does the same rebinding for the two
tracemalloc figures, in a pass of its own so that its cost stays out of the
span times.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

# span name -> (module that defines the function, attribute)
SPANS = {
    "cli.main": ("qhist.cli", "main"),
    "scenario.parse": ("qhist.scenario", "parse_scenario"),
    "scenario.resolve": ("qhist.scenario", "resolve"),
    "linalg.eigenprojectors": ("qhist.linalg", "hermitian_eigenprojectors"),
    "framework.make_decomposition": ("qhist.framework", "make_decomposition"),
    "framework.compat": ("qhist.framework", "decompositions_compatible"),
    "histories.build_family": ("qhist.histories", "build_family"),
    "histories.chain_ket": ("qhist.histories", "chain_ket"),
    "histories.consistency": ("qhist.histories", "consistency_check"),
    "stablefacts.check_compatibility": ("qhist.stablefacts", "check_compatibility"),
    "stablefacts.combine": ("qhist.stablefacts", "combine"),
    "stablefacts.combine_all": ("qhist.stablefacts", "combine_all"),
    "stablefacts.query": ("qhist.stablefacts", "conditional_probability"),
    "oracle.sequential": ("qhist.oracle", "sequential_probability"),
}

# every per-layer metric and its unit
UNITS = {
    "scenario.parse_s": "s",
    "scenario.resolve_self_s": "s",
    "scenario.input_bytes": "B",
    "linalg.eigenprojectors_s": "s",
    "linalg.eigenprojectors_calls": "count",
    "framework.make_decomposition_s": "s",
    "framework.make_decomposition_calls": "count",
    "framework.compat_s": "s",
    "histories.chain_ket_s": "s",
    "histories.chain_ket_calls": "count",
    "histories.nonzero_ket_ratio": "ratio",
    "histories.build_family_s": "s",
    "histories.histories_built": "count",
    "histories.family_bytes_per_history": "B",
    "histories.consistency_self_s": "s",
    "histories.consistency_calls": "count",
    "histories.gram_bytes_computed": "B",
    "histories.consistency_peak_mb": "MB",
    "stablefacts.compat_self_s": "s",
    "stablefacts.combine_all_s": "s",
    "stablefacts.query_self_s": "s",
    "stablefacts.consistency_per_query": "ratio",
    "oracle.sequential_s": "s",
    "oracle.sequential_calls": "count",
    "cli.self_s": "s",
    "cli.stdout_bytes": "B",
    "trace.overhead_s": "s",
}

MODULES = ("qhist.cli", "qhist.scenario", "qhist.stablefacts", "qhist.oracle",
           "qhist.histories", "qhist.framework", "qhist.linalg")


def _note(name: str, args, result) -> object:
    """The count a span carries, taken from its arguments or result."""
    if name == "cli.main":
        return args[0][0]
    if name == "scenario.parse":
        data = args[0]
        return len(data) if isinstance(data, bytes) else len(data.encode("utf-8"))
    if name == "histories.build_family":
        return len(result.histories)
    if name == "histories.chain_ket":
        return bool(result.any())
    if name == "histories.consistency":
        return len(args[0].histories)
    return None


def _rebind(wrap) -> list:
    """Replace every reference to each target in ``MODULES``; return what to restore."""
    restore = []
    for name, (home, attr) in SPANS.items():
        original = getattr(sys.modules[home], attr)
        wrapper = wrap(name, original)
        if wrapper is None:
            continue
        for modname in MODULES:
            module = sys.modules[modname]
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                restore.append((module, attr, original))
    return restore


def uninstall(restore: list) -> None:
    for module, attr, original in restore:
        setattr(module, attr, original)


@dataclass
class Tracer:
    # one span: [name, parent index or -1, start, end, note]
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    def install(self) -> list:
        return _rebind(self._wrap)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            span[4] = _note(name, args, result)
            return result

        return wrapper

    def take(self) -> list:
        """The spans recorded since the last call."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer totals of one pass: times in seconds, counts, ratios."""
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * n
    root = [0] * n
    for i, s in enumerate(spans):
        if s[1] >= 0:
            child[s[1]] += dur[i]
            root[i] = root[s[1]]
        else:
            root[i] = i
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, s in enumerate(spans):
        total[s[0]] = total.get(s[0], 0.0) + dur[i]
        self_s[s[0]] = self_s.get(s[0], 0.0) + dur[i] - child[i]
        calls[s[0]] = calls.get(s[0], 0) + 1

    def notes(name):
        return [s[4] for s in spans if s[0] == name and s[4] is not None]

    kets = notes("histories.chain_ket")
    sizes = notes("histories.consistency")
    in_conditional = sum(
        1 for i, s in enumerate(spans)
        if s[0] == "histories.consistency" and spans[root[i]][4] == "conditional"
    )
    return {
        "scenario.parse_s": total.get("scenario.parse", 0.0),
        "scenario.resolve_self_s": self_s.get("scenario.resolve", 0.0),
        "scenario.input_bytes": sum(notes("scenario.parse")),
        "linalg.eigenprojectors_s": total.get("linalg.eigenprojectors", 0.0),
        "linalg.eigenprojectors_calls": calls.get("linalg.eigenprojectors", 0),
        "framework.make_decomposition_s": total.get("framework.make_decomposition", 0.0),
        "framework.make_decomposition_calls": calls.get("framework.make_decomposition", 0),
        "framework.compat_s": total.get("framework.compat", 0.0),
        "histories.chain_ket_s": total.get("histories.chain_ket", 0.0),
        "histories.chain_ket_calls": len(kets),
        "histories.nonzero_ket_ratio": sum(kets) / len(kets) if kets else 0.0,
        "histories.build_family_s": total.get("histories.build_family", 0.0),
        "histories.histories_built": sum(notes("histories.build_family")),
        "histories.consistency_self_s": self_s.get("histories.consistency", 0.0),
        "histories.consistency_calls": calls.get("histories.consistency", 0),
        "histories.gram_bytes_computed": sum(16 * m * m for m in sizes),
        "stablefacts.compat_self_s": self_s.get("stablefacts.check_compatibility", 0.0)
        + self_s.get("stablefacts.combine", 0.0),
        "stablefacts.combine_all_s": total.get("stablefacts.combine_all", 0.0),
        "stablefacts.query_self_s": self_s.get("stablefacts.query", 0.0),
        "stablefacts.consistency_per_query": in_conditional / calls["stablefacts.query"]
        if calls.get("stablefacts.query") else 0.0,
        "oracle.sequential_s": total.get("oracle.sequential", 0.0),
        "oracle.sequential_calls": calls.get("oracle.sequential", 0),
        "cli.self_s": self_s.get("cli.main", 0.0),
    }


def write_spans(spans: list, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")


@dataclass
class MemoryProbe:
    """Retained bytes per history built, and the largest tracemalloc peak of a
    consistency check that returned (a failed allocation is not memory used)."""

    family_bytes: int = 0
    histories: int = 0
    consistency_peak: int = 0

    def install(self) -> list:
        return _rebind(self._wrap)

    def _wrap(self, name, fn):
        if name == "histories.build_family":
            def build(*args, **kwargs):
                before = tracemalloc.get_traced_memory()[0]
                family = fn(*args, **kwargs)
                self.family_bytes += tracemalloc.get_traced_memory()[0] - before
                self.histories += len(family.histories)
                return family
            return build
        if name == "histories.consistency":
            def check(*args, **kwargs):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                report = fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1] - before
                self.consistency_peak = max(self.consistency_peak, peak)
                return report
            return check
        return None

    def metrics(self) -> dict[str, float]:
        return {
            "histories.family_bytes_per_history": self.family_bytes / max(self.histories, 1),
            "histories.consistency_peak_mb": self.consistency_peak / 2**20,
        }
