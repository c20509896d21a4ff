"""qhist command line: validate, analyze, classify, conditional, verify.

Exit codes are a stable contract:
  0  success
  1  input error (unreadable file, parse/validation failure, bad flags,
     or out of memory)
  2  inconsistent-family finding (analyze) / zero-probability condition
  3  single-framework-rule refusal (inconsistent family queried, or the
     queried event is not part of the family)
  4  oracle discrepancy (verify)

``main`` alone turns an exception into an exit code and a line on stderr.
``analyze``, ``classify`` and ``conditional`` each build one dict of report
fields, printed as the ``--json`` document or rendered from it as text.  The
rows of an ``analyze`` family are one ``_Rows`` object, the labels of its
slots and its probability array, which writes its rows in chunks in both
renderings, so the memory that writing takes does not grow with the output.

Verdicts themselves ("relative") are results, never failures.  JSON output is
deterministic: identical inputs and flags give byte-identical bytes.  The
document is written by ``_write``, piece by piece: its bytes are those of
``json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=True)``, whose
``indent`` would select json's pure-Python encoder, which holds the whole
document and leaves a reference cycle per call.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
from json.encoder import encode_basestring_ascii as _escape

import numpy as np

from .errors import (
    InconsistentFamilyError,
    NotCompatibleError,
    QHistError,
    UnknownLabelError,
    ZeroProbabilityConditionError,
)
from .histories import DEFAULT_MAX_HISTORIES, consistency_check
from .linalg import Tolerance
from .oracle import sequential_probabilities
from .scenario import COMBINED_FAMILY, effective_tolerance, parse_scenario, resolve
from .stablefacts import (
    FactQuery,
    ObserverRecord,
    Verdict,
    check_compatibility,
    combine_all,
    conditional_probability,
)

REPORT_VERSION = 1
ORACLE_BOUND = 1e-12

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCONSISTENT = 2
EXIT_REFUSED = 3
EXIT_ORACLE = 4


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CHUNK = 8192  # rows per write: an ``analyze`` family's rows are never held whole


def _float(x: float) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


# the JSON of each scalar type a report holds, by exact type
_SCALARS = {str: _escape, float: _float, int: int.__repr__, bool: {True: "true", False: "false"}.get,
            type(None): lambda _: "null"}


def _write(o, out, nl: str) -> None:
    """Write ``o`` through ``out`` exactly as ``json.dumps(o, indent=2,
    sort_keys=True, ensure_ascii=True)`` would; ``nl`` is the newline and
    indent of the line ``o`` starts on.  Only what a report holds is taken:
    dicts with str keys, lists, ``_Rows``, and the exact types of
    ``_SCALARS``; anything else (a tuple, an int key, a numpy scalar) raises
    ``TypeError``.  A module-level function, not a closure, so that a report
    leaves no reference cycle to the garbage collector."""
    t = type(o)
    if t is dict:
        # a non-str key fails to sort among str keys or to escape
        items, brackets = [(_escape(k) + ": ", v) for k, v in sorted(o.items())], "{}"
    elif t is list:
        items, brackets = zip(itertools.repeat(""), o), "[]"
    elif t is _Rows:
        o.write(out, nl)
        return
    elif t in _SCALARS:
        out(_SCALARS[t](o))
        return
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
    if not o:
        out(brackets)
        return
    inner = nl + "  "
    sep = brackets[0] + inner
    for key, v in items:
        scalar = _SCALARS.get(type(v))
        if scalar is None:
            out(sep + key)
            _write(v, out, inner)
        else:
            out(sep + key + scalar(v))
        sep = "," + inner
    out(nl + brackets[1])


class _Rows:
    """One family's ``analyze`` rows, a history each in flat order: its
    labels, one per slot, and its probability.  ``write`` puts them in a
    JSON document as the list of ``{"labels": [...], "probability": p}``
    dicts that json would write, and ``lines`` renders them as text; both
    produce at most ``_CHUNK`` rows at a time, and neither builds a dict, a
    label tuple or a float per history."""

    __slots__ = ("slot_labels", "probabilities")

    def __init__(self, slot_labels, probabilities: np.ndarray):
        self.slot_labels = slot_labels  # one or more slots, each with one or more labels
        self.probabilities = probabilities

    def _chunks(self, convert, first: str, sep: str, last: str):
        """Pairs of each chunk's label runs and probabilities.  A history's
        run is its labels through ``convert``, joined by ``sep``, between
        ``first`` and ``last``: each slot's labels are converted once, and a
        run is one join over their product."""
        pieces = [[sep + convert(label) for label in labels] for labels in self.slot_labels]
        pieces[0] = [first + convert(label) for label in self.slot_labels[0]]
        pieces[-1] = [piece + last for piece in pieces[-1]]
        runs = map("".join, itertools.product(*pieces))
        for start in range(0, self.probabilities.size, _CHUNK):
            chunk = self.probabilities[start:start + _CHUNK]
            yield itertools.islice(runs, chunk.size), chunk

    def write(self, out, nl: str) -> None:
        """Write the rows' JSON through ``out``, as ``_write`` would a list that starts on ``nl``."""
        row, key, label = nl + "  ", nl + "    ", nl + "      "
        head, sep = "[" + row, row + "}," + row
        for runs, chunk in self._chunks(_escape, "{" + key + '"labels": [' + label, "," + label,
                                        key + "]," + key + '"probability": '):
            texts = map(float.__repr__ if np.isfinite(chunk).all() else _float, chunk.tolist())
            out(head + sep.join(map(str.__add__, runs, texts)))
            head = sep
        out(row + "}" + nl + "]")

    def lines(self):
        """The rows as ``analyze`` prints them, each chunk's lines joined by
        newlines: the labels joined by commas, then the probability as
        ``_fmt`` writes it."""
        for runs, chunk in self._chunks(str, "  ", ",", "  "):
            yield "\n".join(map(str.__add__, runs, map(_fmt, chunk.tolist())))


_fmt = "{:.12g}".format  # a number as the text reports write it


def _verdict(consistent: bool) -> str:
    return "consistent" if consistent else "inconsistent"


def _print(render) -> None:
    """Call ``render`` with stdout's ``write``, then end the line and flush;
    an ``analyze`` family's rows go out ``_CHUNK`` at a time.  If the reader
    closed the pipe, at whichever piece, the rest is dropped: stdout then
    points at ``os.devnull``, so the flush at shutdown cannot raise again,
    and the command returns its own exit code.  Another write error leaves
    the output partial, for ``main`` to report.  With no stdout at all
    (``>&-``), nothing is written, as ``print`` would write nothing."""
    if sys.stdout is None:
        return
    try:
        render(sys.stdout.write)
        print(flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _write_lines(lines, write) -> None:
    """Write ``lines`` with a newline between each two."""
    sep = ""
    for line in lines:
        write(sep + line)
        sep = "\n"


def _emit(args, command: str, scn, tol: Tolerance, fields: dict, text) -> None:
    """Print one report.  With ``--json``, the document: the header every
    command shares, then the command's ``fields``; else the lines ``text``
    renders from that same document."""
    doc = {"report_version": REPORT_VERSION, "command": command, "scenario": scn.name,
           "tolerance": vars(tol), **fields}  # a frozen dataclass's fields, not copied
    _print(functools.partial(_write, doc, nl="\n") if args.json
           else functools.partial(_write_lines, text(doc)))


def _load(args, observers=None) -> tuple:
    """Read, parse, and resolve the scenario; returns (scenario, records, tol).

    Only the observers a command reads are resolved into families:
    ``observers`` names them, and None means every observer.  Every number
    the file supplies is checked whatever the command reads (see
    ``resolve``), so that a faulty file fails every command alike.  An
    unknown name gets no record, for the command to report."""
    with open(args.path, "rb", buffering=0) as fh:
        data = fh.read()
    scn = parse_scenario(data)
    override = Tolerance.uniform(args.tolerance) if args.tolerance is not None else None
    tol = effective_tolerance(scn, override)
    records = resolve(scn, tol, max_histories=args.max_histories, observers=observers)
    return scn, records, tol


def _pick(records, names) -> list:
    """The records with these names, in the order named; an unknown name is an input error."""
    by_name = {r.name: r for r in records}
    missing = [n for n in names if n not in by_name]
    if missing:
        raise QHistError(f"unknown observer(s): {', '.join(missing)}")
    return [by_name[n] for n in names]


def cmd_validate(args) -> int:
    scn, records, _ = _load(args)
    total = sum(r.family.n_histories for r in records)
    _print(lambda write: write(f"ok: scenario {scn.name!r}, dim {scn.total_dim}, "
                               f"{len(records)} observer(s), {total} histories"))
    return EXIT_OK


def _analyze_text(doc):
    yield f"scenario: {doc['scenario']}"
    for obs in doc["observers"]:
        yield (f"observer {obs['name']}: {_verdict(obs['consistent'])} "
               f"(max off-diagonal {_fmt(obs['max_offdiag'])}, threshold {_fmt(obs['threshold'])})")
        yield from obs["histories"].lines()


def cmd_analyze(args) -> int:
    scn, records, tol = _load(args, args.observer)  # the observers named, in scenario order
    if args.observer:
        _pick(records, args.observer)  # an unknown name is an input error
    observers = []
    for record in records:
        report = consistency_check(record.family, tol)
        observers.append(
            {
                "name": record.name,
                "consistent": report.consistent,
                "max_offdiag": float(report.max_offdiag),
                "threshold": float(report.threshold),
                "histories": _Rows([d.labels for d in record.family.slot_decompositions], report.probabilities),
            }
        )
    _emit(args, "analyze", scn, tol, {"observers": observers}, _analyze_text)
    return EXIT_OK if all(obs["consistent"] for obs in observers) else EXIT_INCONSISTENT


def _pair_doc(report) -> dict:
    product = report.product_family_consistency
    return {
        "a": report.observer_a,
        "b": report.observer_b,
        "verdict": report.verdict.value,
        "failing_condition": report.failing_condition,
        "slots": [
            {
                "time": sc.time,
                "max_residual": float(sc.max_residual),
                "commutes": sc.commutes,
                "worst_pair": list(sc.worst_pair) if sc.worst_pair else None,
            }
            for sc in report.per_slot_commutation
        ],
        "product_consistency": None
        if product is None
        else {
            "consistent": product.consistent,
            "max_offdiag": float(product.max_offdiag),
            "threshold": float(product.threshold),
        },
    }


def _nway_doc(records, first, tol: Tolerance, max_histories: int) -> dict:
    """Whether all observers fold into one family, and if so its verdict.
    The fold starts from ``first``, the report of the first two observers."""
    not_combinable = {"combinable": False, "consistent": None, "max_offdiag": None}
    if first.verdict is not Verdict.STABLE:
        return not_combinable
    merged = ObserverRecord(f"{first.observer_a}+{first.observer_b}", first.product_family_consistency.family)
    try:
        report = combine_all([merged, *records[2:]], tol, max_histories)
    except NotCompatibleError:
        return not_combinable
    return {"combinable": True, "consistent": report.consistent, "max_offdiag": float(report.max_offdiag)}


def _classify_text(doc) -> list[str]:
    lines = [f"scenario: {doc['scenario']}"]
    for pair in doc["pairs"]:
        failing = f" ({pair['failing_condition']} fails)" if pair["failing_condition"] else ""
        lines.append(f"pair {pair['a']},{pair['b']}: {pair['verdict']}{failing}")
        for slot in pair["slots"]:
            status = "commute" if slot["commutes"] else "do not commute"
            worst = f" (worst pair {','.join(slot['worst_pair'])})" if slot["worst_pair"] else ""
            lines.append(f"  {slot['time']}: {status}, residual {_fmt(slot['max_residual'])}{worst}")
        product = pair["product_consistency"]
        lines.append(
            "  product family: skipped (products not well-formed)"
            if product is None
            else f"  product family: {_verdict(product['consistent'])}, "
            f"max off-diagonal {_fmt(product['max_offdiag'])}"
        )
    if "nway" in doc:
        nway = doc["nway"]
        n = len({name for pair in doc["pairs"] for name in (pair["a"], pair["b"])})
        lines.append(
            f"all {n} observers: product family {_verdict(nway['consistent'])}, "
            f"max off-diagonal {_fmt(nway['max_offdiag'])}"
            if nway["combinable"]
            else f"all {n} observers: not combinable into one framework"
        )
    return lines


def cmd_classify(args) -> int:
    scn, records, tol = _load(args, args.pair)
    if args.pair:
        pairs = [_pick(records, args.pair)]
    elif len(records) < 2:
        raise QHistError("classify needs at least two observers")
    else:
        pairs = [(a, b) for i, a in enumerate(records) for b in records[i + 1:]]
    reports = [check_compatibility(a, b, tol, args.max_histories) for a, b in pairs]
    fields = {"pairs": [_pair_doc(report) for report in reports]}
    if args.pair is None and len(records) >= 3:
        # beyond the pairwise test; reported as an extension
        fields["nway"] = _nway_doc(records, reports[0], tol, args.max_histories)
    _emit(args, "classify", scn, tol, fields, _classify_text)
    return EXIT_OK


def _parse_fact(spec: str, what: str, slot_times: tuple[str, ...]) -> list[dict]:
    """The TIME:LABEL readings of ``spec``, one per ":" whose prefix is one of
    ``slot_times`` (a time may contain ":"), in order, else the one at the
    first ":"; the first reading must have a time and a label."""
    cuts = [k for k, c in enumerate(spec) if c == ":" and spec[:k] in slot_times] or [spec.find(":")]
    facts = [{"time": spec[:k], "label": spec[k + 1 :]} for k in cuts]
    if cuts[0] < 0 or not facts[0]["time"] or not facts[0]["label"]:
        raise QHistError(f"--{what} must look like TIME:LABEL, got {spec!r}")
    return facts


def _fact_in(facts: list[dict], family) -> dict:
    """The first of ``facts`` whose (time, label) is an outcome of ``family``,
    else the first."""
    labels = dict(zip(family.grid.slot_times, (decomp.labels for decomp in family.slot_decompositions)))
    return next((f for f in facts if f["label"] in labels.get(f["time"], ())), facts[0])


def _conditional_text(doc) -> list[str]:
    event, given = doc["event"], doc["given"]
    return [
        f"P({event['label']}@{event['time']} | {given['label']}@{given['time']}) = "
        f"{_fmt(doc['probability'])} [family {doc['family']}, scenario {doc['scenario']}]"
    ]


def cmd_conditional(args) -> int:
    scn, records, tol = _load(args, None if args.family == COMBINED_FAMILY else [args.family])
    events = _parse_fact(args.event, "event", scn.times[1:])
    givens = _parse_fact(args.given, "given", scn.times[1:])
    by_name = {r.name: r for r in records}
    if args.family == COMBINED_FAMILY:
        if len(records) < 2:
            raise QHistError("--family combined needs at least two observers")
        report = combine_all(records, tol, args.max_histories)
    elif args.family in by_name:
        report = consistency_check(by_name[args.family].family, tol)
    else:
        raise QHistError(f"unknown family {args.family!r} (pick an observer name or 'combined')")
    event, given = _fact_in(events, report.family), _fact_in(givens, report.family)
    query = FactQuery(event=(event["time"], event["label"]), condition=(given["time"], given["label"]))
    fields = {"family": args.family, "event": event, "given": given,
              "probability": float(conditional_probability(report, query, tol))}
    _emit(args, "conditional", scn, tol, fields, _conditional_text)
    return EXIT_OK


def cmd_verify(args) -> int:
    """Check the probabilities ``analyze`` reports against the oracle.

    The oracle walks each family's tree of history prefixes with one
    evolve-and-project per nonzero prefix and shares no code with
    ``histories``.  Every history is compared, those below an exactly-zero
    prefix too (0 against 0).  The worst history is the first maximal
    discrepancy, observers in order.
    """
    scn, records, tol = _load(args)
    if not records:
        raise QHistError("scenario has no observers; nothing to verify")
    worst = 0.0
    worst_at = None
    total = 0
    for record in records:
        report = consistency_check(record.family, tol)
        deltas = np.abs(report.probabilities - sequential_probabilities(record.family))
        total += deltas.size
        i = int(np.argmax(deltas))
        if deltas[i] > worst:
            worst = float(deltas[i])
            worst_at = (record, i)
    if worst > ORACLE_BOUND:
        record, i = worst_at
        decomps = record.family.slot_decompositions
        labels = [d.labels[k] for d, k in zip(decomps, np.unravel_index(i, record.family.shape))]
        print(
            f"oracle discrepancy {_fmt(worst)} > {_fmt(ORACLE_BOUND)} at observer "
            f"{record.name}, history {','.join(labels)}",
            file=sys.stderr,
        )
        return EXIT_ORACLE
    _print(lambda write: write(f"ok: scenario {scn.name!r}, {total} histories cross-checked, "
                               f"worst discrepancy {_fmt(worst)}"))
    return EXIT_OK


def positive_int(text: str) -> int:
    """A ``--max-histories`` cap: at least 1 and below 2**63, since a
    family's flat history indices are int64."""
    cap = int(text)
    if cap < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {cap}")
    if cap >= 2**63:
        raise argparse.ArgumentTypeError(f"must be below 2**63 (history indices are int64), got {cap}")
    return cap


@functools.cache  # one parser per process; parse_args keeps no state between calls
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser, by name."""
    parser = argparse.ArgumentParser(
        prog="qhist",
        description="Consistent-histories analysis of quantum scenarios: "
        "consistency, probabilities, and stable-vs-relative fact classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("path", help="scenario JSON file")
        p.add_argument("--tolerance", type=float, default=None,
                       help="set all tolerances, input checks included (default: the file's, else 1e-9)")
        p.add_argument("--max-histories", type=positive_int, default=DEFAULT_MAX_HISTORIES,
                       help="cap on the number of histories of every family the command builds: the "
                       "own family of each observer it reads, and the product families of classify and "
                       "--family combined (1 to 2**63 - 1; it bounds the count, not the memory a "
                       "command uses)")

    p = sub.add_parser("validate", help="parse and resolve a scenario")
    common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("analyze", help="consistency verdicts and probability tables")
    common(p)
    p.add_argument("--observer", action="append", help="restrict to this observer (repeatable)")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("classify", help="stable/relative verdict per observer pair")
    common(p)
    p.add_argument("--pair", nargs=2, metavar=("A", "B"), help="classify one pair (default: every pair)")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("conditional", help="P(event | condition) inside one family")
    common(p)
    p.add_argument("--family", required=True, help="observer name, or 'combined'")
    p.add_argument("--event", required=True, metavar="T:LABEL")
    p.add_argument("--given", required=True, metavar="T:LABEL")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(fn=cmd_conditional)

    p = sub.add_parser("verify", help="cross-check history probabilities against the Born-rule oracle")
    common(p)
    p.set_defaults(fn=cmd_verify)

    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    """Run one command line; return its exit code.  When the first argument
    names a subcommand, its parser alone parses the rest, and leftovers are
    the top-level parser's usage error; any other line goes to the top."""
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = commands.get(argv[0]) if argv else None
    try:
        if command is None:
            args = parser.parse_args(argv)
        else:
            args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:  # argparse exits 2 after a usage error, 0 after --help
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except InconsistentFamilyError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except UnknownLabelError as exc:
        print(
            f"refused: {exc}; the family contains no such event, so this framework "
            "assigns it no probability",
            file=sys.stderr,
        )
        return EXIT_REFUSED
    except ZeroProbabilityConditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (QHistError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print(
            f"error: out of memory in {args.command}; the scenario's families are too "
            "large for this machine (fewer slots or outcomes per slot would help)",
            file=sys.stderr,
        )
        return EXIT_INPUT

if __name__ == "__main__":
    raise SystemExit(main())
