"""Command-line interface: count, total, verify, table.

All numbers in JSON output are serialized as decimal strings (counts grow
past 64-bit ranges); exit codes are 0 (success), 1 (verification failure),
2 (usage or admissibility error).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .counting import (
    count_types_klein,
    count_types_rank1,
    count_types_rank2,
    klein_type_count,
    total_types,
)
from .exact import is_prime
from .oracle import GuardExceeded, check_feasible, count_orbits, rank1_orbit_count
from .partitions import (
    ActionParams,
    AdmissibilityError,
    NotHyperbolicError,
    PartitionType,
    admissible_partitions,
    check_admissible,
    genus_of,
    parse_partition,
)
from .tables import PolynomialFitError, render_table


def _parse_ints(text: str) -> list:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _parse_range(text: str) -> list:
    """Parse '3..6' as an inclusive range, else a comma list or single int."""
    if ".." in text:
        lo, _, hi = text.partition("..")
        return list(range(int(lo), int(hi) + 1))
    return _parse_ints(text)


def _emit_json(record) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _genus_or_none(p: int, k: int, R: int):
    try:
        return genus_of(ActionParams(p, k, R))
    except NotHyperbolicError:
        return None


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")


def cmd_count(args) -> int:
    p, k = args.p, args.k
    _require_prime(p)
    if args.partition is None and args.R is None:
        raise ValueError("count needs --partition or --R")
    if args.partition is not None:
        part = parse_partition(args.partition)
        R = part.R
        if k == 1:
            if part.n != 1:
                raise AdmissibilityError("rank 1 takes a single part {R}")
            report = count_types_rank1(R, p)
        elif p == 2:
            check_admissible(part, p, k)
            t = klein_type_count(part)
            report = None
            record = {"partition": [str(x) for x in part.parts], "T": str(t)}
        else:
            check_admissible(part, p, k)
            report = count_types_rank2(part, p)
    else:
        R = args.R
        if k == 1:
            report = count_types_rank1(R, p)
        elif p == 2:
            report = None
            record = {"T": str(count_types_klein(R))}
        else:
            raise ValueError(
                "for rank 2 and odd p give --partition; 'total' sums all partitions"
            )
    genus = _genus_or_none(p, k, R)
    record_out = {
        "p": str(p),
        "k": str(k),
        "R": str(R),
        "genus": None if genus is None else str(genus),
    }
    if report is not None:
        record_out.update({
            "partition": [str(x) for x in report.partition.parts],
            "card_A": str(report.card_A),
            "burnside_terms": [[str(d), str(c)] for d, c in report.burnside_terms],
            "marking_multiplier": str(report.marking_multiplier),
            "T": str(report.T),
        })
    else:
        record_out.update(record)
    if args.format == "json":
        print(_emit_json(record_out))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        keys = sorted(record_out)
        writer.writerow(keys)
        writer.writerow([_csv_cell(record_out[key]) for key in keys])
        sys.stdout.write(buf.getvalue())
    else:
        if "partition" in record_out:
            parts = record_out["partition"]
            print(f"partition: {{{','.join(parts)}}}" if isinstance(parts, list) else parts)
        print(f"p: {p}  k: {k}  R: {R}")
        print(f"genus: {genus if genus is not None else 'n/a (not hyperbolic)'}")
        if report is not None:
            print(f"|A|: {report.card_A}")
            if report.burnside_terms:
                terms = "  ".join(f"d'={d}: {c}" for d, c in report.burnside_terms)
                print(f"burnside corrections: {terms}")
            else:
                print("burnside corrections: none")
            print(f"marking multiplier: {report.marking_multiplier}")
        print(f"T: {record_out['T']}")
    return 0


def _csv_cell(value):
    if isinstance(value, list):
        return " ".join(
            ":".join(v) if isinstance(v, list) else str(v) for v in value
        )
    return "" if value is None else value


def cmd_total(args) -> int:
    p, k, R = args.p, args.k, args.R
    _require_prime(p)
    report = total_types(p, k, R)
    genus = _genus_or_none(p, k, R)
    if args.format == "json":
        record = {
            "p": str(p), "k": str(k), "R": str(R),
            "genus": None if genus is None else str(genus),
            "total": str(report.total),
            "breakdown": [
                {"partition": [str(x) for x in r.partition.parts], "T": str(r.T)}
                for r in report.reports
            ],
        }
        print(_emit_json(record))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["partition", "T"])
        for r in report.reports:
            writer.writerow([str(r.partition), str(r.T)])
        writer.writerow(["total", str(report.total)])
        sys.stdout.write(buf.getvalue())
    else:
        print(f"p: {p}  k: {k}  R: {R}  genus: {genus if genus is not None else 'n/a'}")
        for r in report.reports:
            print(f"  {str(r.partition):<18} {r.T}")
        print(f"total: {report.total}")
    return 0


def _verify_cases(p: int, k: int, R: int, multiset_limit, step_limit):
    """Yield (partition_label, oracle_count, formula_count) rows for one (p, R)."""
    if k == 1:
        oracle_total = rank1_orbit_count(p, R, multiset_limit, step_limit)
        yield f"{{{R}}}", oracle_total, count_types_rank1(R, p).T
        return
    table = count_orbits(p, 2, R, multiset_limit, step_limit)
    if p == 2:
        formula = {part: klein_type_count(part) for part in admissible_partitions(2, 2, R)}
    else:
        formula = {
            part: count_types_rank2(part, p).T for part in admissible_partitions(p, 2, R)
        }
    keys = sorted(set(formula) | set(table.by_partition), key=lambda q: (q.n, q.parts))
    for part in keys:
        yield str(part), table.by_partition.get(part, 0), formula.get(part, 0)
    yield "total", table.total, sum(formula.values())


def cmd_verify(args) -> int:
    k = args.k
    if not args.p or not args.R:
        raise ValueError("verify needs at least one prime and one R (empty range?)")
    results = []
    failures = 0
    skipped = 0
    for p in args.p:
        _require_prime(p)
        for R in args.R:
            try:
                check_feasible(p, k, R, args.guard_multisets, args.guard_steps)
                rows = list(_verify_cases(p, k, R, args.guard_multisets, args.guard_steps))
            except GuardExceeded as exc:
                skipped += 1
                results.append({"p": str(p), "R": str(R), "status": "SKIPPED",
                                "reason": str(exc)})
                continue
            for label, got, want in rows:
                status = "PASS" if got == want else "FAIL"
                if status == "FAIL":
                    failures += 1
                results.append({"p": str(p), "R": str(R), "partition": label,
                                "oracle": str(got), "formula": str(want),
                                "status": status})
    if args.format == "json":
        record = {"results": results, "failures": str(failures), "skipped": str(skipped)}
        print(_emit_json(record))
    else:
        for row in results:
            if row["status"] == "SKIPPED":
                print(f"SKIPPED p={row['p']} R={row['R']}: {row['reason']}")
            else:
                print(f"{row['status']} p={row['p']} R={row['R']} "
                      f"{row['partition']}: oracle={row['oracle']} "
                      f"formula={row['formula']}")
        print(f"failures: {failures}  skipped: {skipped}")
    return 1 if failures else 0


def cmd_table(args) -> int:
    primes = _parse_ints(args.primes) if args.primes else None
    sys.stdout.write(render_table(args.R, primes, args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topotype",
        description="Exact counts of topological types of fully ramified "
                    "Z_p^k surface actions (k = 1, 2)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument("--format", choices=["plain", "json", "csv"], default="plain")

    sp = sub.add_parser("count", help="count types for one partition (or R)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, choices=[1, 2], required=True)
    sp.add_argument("--partition", type=str)
    sp.add_argument("--R", type=int)
    add_format(sp)
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("total", help="sum type counts over all admissible partitions")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, choices=[1, 2], required=True)
    sp.add_argument("--R", type=int, required=True)
    add_format(sp)
    sp.set_defaults(func=cmd_total)

    sp = sub.add_parser("verify", help="compare formulas against the brute-force oracle")
    sp.add_argument("--p", type=_parse_ints, required=True,
                    help="comma-separated primes, e.g. 3,5")
    sp.add_argument("--k", type=int, choices=[1, 2], required=True)
    sp.add_argument("--R", type=_parse_range, required=True,
                    help="range like 3..6, or comma list")
    sp.add_argument("--guard-multisets", type=int, default=None)
    sp.add_argument("--guard-steps", type=int, default=None)
    add_format(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("table", help="fit and render a table section")
    sp.add_argument("--R", type=int, required=True)
    sp.add_argument("--primes", type=str, default=None,
                    help="comma-separated sample primes > 3; primes at or below "
                         "a row's largest part are displayed but not fitted")
    add_format(sp)
    sp.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AdmissibilityError, PolynomialFitError, NotHyperbolicError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
