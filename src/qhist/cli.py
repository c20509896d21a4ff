"""qhist command line: validate, analyze, classify, conditional, verify.

Exit codes are a stable contract:
  0  success
  1  input error (unreadable file, parse/validation failure, bad flags,
     or out of memory)
  2  inconsistent-family finding (analyze) / zero-probability condition
  3  single-framework-rule refusal (inconsistent family queried, or the
     queried event is not part of the family)
  4  oracle discrepancy (verify)

Verdicts themselves ("relative") are results, never failures.  JSON output is
deterministic: identical inputs and flags give byte-identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .errors import (
    InconsistentFamilyError,
    QHistError,
    UnknownLabelError,
    ZeroProbabilityConditionError,
)
from .histories import DEFAULT_MAX_HISTORIES, consistency_check
from .linalg import Tolerance
from .oracle import sequential_probability
from .scenario import effective_tolerance, parse_scenario, resolve
from .stablefacts import (
    FactQuery,
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


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _emit_report(command: str, scn, tol: Tolerance, **fields) -> None:
    """One JSON report: the header every command shares, then its own fields."""
    doc = {"report_version": REPORT_VERSION, "command": command, "scenario": scn.name,
           "tolerance": dataclasses.asdict(tol), **fields}
    print(json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=True))


def _load(args) -> tuple:
    """Read, parse, and resolve the scenario; returns (scenario, records, tol)."""
    with open(args.path, "rb") as fh:
        data = fh.read()
    scn = parse_scenario(data)
    override = Tolerance.uniform(args.tolerance) if args.tolerance is not None else None
    tol = effective_tolerance(scn, override)
    records = resolve(scn, tol, max_histories=args.max_histories)
    return scn, records, tol


def cmd_validate(args) -> int:
    scn, records, _ = _load(args)
    total = sum(r.family.n_histories for r in records)
    print(f"ok: scenario {scn.name!r}, dim {scn.total_dim}, "
          f"{len(records)} observer(s), {total} histories")
    return EXIT_OK


def cmd_analyze(args) -> int:
    scn, records, tol = _load(args)
    if args.observer:
        known = {r.name for r in records}
        missing = [n for n in args.observer if n not in known]
        if missing:
            raise QHistError(f"unknown observer(s): {', '.join(missing)}")
        records = [r for r in records if r.name in args.observer]
    observers_doc = []
    lines = [f"scenario: {scn.name}"]
    any_inconsistent = False
    for record in records:
        report = consistency_check(record.family, tol)
        any_inconsistent = any_inconsistent or not report.consistent
        verdict = "consistent" if report.consistent else "inconsistent"
        lines.append(
            f"observer {record.name}: {verdict} "
            f"(max off-diagonal {_fmt(report.max_offdiag)}, threshold {_fmt(report.threshold)})"
        )
        histories_doc = []
        for labels, p in zip(report.labels, report.probabilities):
            lines.append(f"  {','.join(labels)}  {_fmt(p)}")
            histories_doc.append({"labels": list(labels), "probability": float(p)})
        observers_doc.append(
            {
                "name": record.name,
                "consistent": report.consistent,
                "max_offdiag": float(report.max_offdiag),
                "threshold": float(report.threshold),
                "histories": histories_doc,
            }
        )
    if args.json:
        _emit_report("analyze", scn, tol, observers=observers_doc)
    else:
        print("\n".join(lines))
    return EXIT_INCONSISTENT if any_inconsistent else EXIT_OK


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


def _pair_lines(report) -> list[str]:
    lines = [f"pair {report.observer_a},{report.observer_b}: {report.verdict.value}"]
    if report.failing_condition:
        lines[0] += f" ({report.failing_condition} fails)"
    for sc in report.per_slot_commutation:
        status = "commute" if sc.commutes else "do not commute"
        pair = f" (worst pair {sc.worst_pair[0]},{sc.worst_pair[1]})" if sc.worst_pair else ""
        lines.append(f"  {sc.time}: {status}, residual {_fmt(sc.max_residual)}{pair}")
    product = report.product_family_consistency
    if product is None:
        lines.append("  product family: skipped (products not well-formed)")
    else:
        verdict = "consistent" if product.consistent else "inconsistent"
        lines.append(f"  product family: {verdict}, max off-diagonal {_fmt(product.max_offdiag)}")
    return lines


def cmd_classify(args) -> int:
    scn, records, tol = _load(args)
    by_name = {r.name: r for r in records}
    if args.pair:
        a, b = args.pair
        missing = [n for n in (a, b) if n not in by_name]
        if missing:
            raise QHistError(f"unknown observer(s): {', '.join(missing)}")
        pairs = [(by_name[a], by_name[b])]
    else:
        if len(records) < 2:
            raise QHistError("classify needs at least two observers")
        pairs = [
            (records[i], records[j])
            for i in range(len(records))
            for j in range(i + 1, len(records))
        ]
    reports = [check_compatibility(a, b, tol) for a, b in pairs]
    lines = [f"scenario: {scn.name}"]
    for report in reports:
        lines.extend(_pair_lines(report))
    nway_doc = None
    if args.pair is None and len(records) >= 3:
        # beyond the pairwise test; reported as an extension
        try:
            family = combine_all(records, tol)
            nway_report = consistency_check(family, tol)
            nway_doc = {
                "combinable": True,
                "consistent": nway_report.consistent,
                "max_offdiag": float(nway_report.max_offdiag),
            }
            lines.append(
                f"all {len(records)} observers: product family "
                f"{'consistent' if nway_report.consistent else 'inconsistent'}, "
                f"max off-diagonal {_fmt(nway_report.max_offdiag)}"
            )
        except QHistError:
            nway_doc = {"combinable": False, "consistent": None, "max_offdiag": None}
            lines.append(f"all {len(records)} observers: not combinable into one framework")
    if args.json:
        nway = {} if nway_doc is None else {"nway": nway_doc}
        _emit_report("classify", scn, tol, pairs=[_pair_doc(r) for r in reports], **nway)
    else:
        print("\n".join(lines))
    return EXIT_OK


def _parse_fact(spec: str, what: str) -> tuple[str, str]:
    time, sep, label = spec.partition(":")
    if not sep or not time or not label:
        raise QHistError(f"--{what} must look like TIME:LABEL, got {spec!r}")
    return time, label


def cmd_conditional(args) -> int:
    scn, records, tol = _load(args)
    by_name = {r.name: r for r in records}
    if args.family == "combined":
        if len(records) < 2:
            raise QHistError("--family combined needs at least two observers")
        family = combine_all(records, tol)
        family_name = "combined"
    elif args.family in by_name:
        family = by_name[args.family].family
        family_name = args.family
    else:
        raise QHistError(f"unknown family {args.family!r} (pick an observer name or 'combined')")
    event = _parse_fact(args.event, "event")
    given = _parse_fact(args.given, "given")
    try:
        value = conditional_probability(
            family, FactQuery(event=event, condition=given), tol
        )
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
    if args.json:
        _emit_report(
            "conditional",
            scn,
            tol,
            family=family_name,
            event={"time": event[0], "label": event[1]},
            given={"time": given[0], "label": given[1]},
            probability=float(value),
        )
    else:
        print(
            f"P({event[1]}@{event[0]} | {given[1]}@{given[0]}) = {_fmt(value)} "
            f"[family {family_name}, scenario {scn.name}]"
        )
    return EXIT_OK


def cmd_verify(args) -> int:
    """Check the probabilities ``analyze`` reports against the oracle."""
    scn, records, tol = _load(args)
    if not records:
        raise QHistError("scenario has no observers; nothing to verify")
    worst = 0.0
    worst_at = None
    total = 0
    for record in records:
        report = consistency_check(record.family, tol)
        for labels, p in zip(report.labels, report.probabilities):
            total += 1
            delta = abs(float(p) - sequential_probability(record.family, labels))
            if delta > worst:
                worst = delta
                worst_at = (record.name, labels)
    if worst > ORACLE_BOUND:
        name, labels = worst_at
        print(
            f"oracle discrepancy {_fmt(worst)} > {_fmt(ORACLE_BOUND)} at observer "
            f"{name}, history {','.join(labels)}",
            file=sys.stderr,
        )
        return EXIT_ORACLE
    print(
        f"ok: scenario {scn.name!r}, {total} histories cross-checked, "
        f"worst discrepancy {_fmt(worst)}"
    )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
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
        p.add_argument("--max-histories", type=int, default=DEFAULT_MAX_HISTORIES,
                       help="cap on enumerated histories per family")

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
    group = p.add_mutually_exclusive_group()
    group.add_argument("--pair", nargs=2, metavar=("A", "B"), help="classify one pair")
    group.add_argument("--all-pairs", action="store_true", help="classify all pairs (default)")
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

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 after a usage error, 0 after --help
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.fn(args)
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
