"""Command-line interface: count, total, verify, table.

All numbers in JSON output are serialized as decimal strings (counts grow
past 64-bit ranges); exit codes are 0 (success), 1 (verification failure),
2 (usage or admissibility error).
"""

import argparse
import sys

# Each command imports the modules it runs in its own function, so
# ``--help`` and usage errors run none of them.  The oracle is also
# registered here, unrun (``LazyLoader``: its source runs on the first
# attribute lookup), so that code looking it up in ``sys.modules`` after
# importing this module still finds it: ``perfbench``'s traced run does.
if f"{__package__}.oracle" not in sys.modules:
    import importlib.util

    _spec = importlib.util.find_spec(f"{__package__}.oracle")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = sys.modules[__package__].oracle = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])


def _int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{token.strip()!r} is not an integer") from None


def _parse_ints(text: str) -> list:
    """The comma list's integers, each once, in the order first given."""
    return list(dict.fromkeys(_int(tok) for tok in text.split(",") if tok.strip()))


def _parse_range(text: str) -> list:
    """Parse '3..6' as an inclusive range, else a comma list or single int."""
    if ".." in text:
        lo, _, hi = text.partition("..")
        return list(range(_int(lo), _int(hi) + 1))
    return _parse_ints(text)


def _nonnegative(text: str) -> int:
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 (got {value})")
    return value


def _emit(fmt: str, doc, csv_rows, plain_lines) -> None:
    """Print one result as JSON, CSV or plain text.  The arguments are
    zero-argument callables returning the JSON document, the CSV rows and
    the plain lines; only the one ``fmt`` asks for is called."""
    if fmt == "json":
        import json

        print(json.dumps(doc(), sort_keys=True, separators=(",", ":")))
    elif fmt == "csv":
        import csv

        csv.writer(sys.stdout).writerows(csv_rows())
    else:
        print(*plain_lines(), sep="\n")


def _header(p: int, k: int, R: int) -> dict:
    """The p/k/R/genus fields of a count or total record; the genus is
    None when (p, k, R) is not hyperbolic."""
    from .partitions import ActionParams, NotHyperbolicError, genus_of

    try:
        genus = str(genus_of(ActionParams(p, k, R)))
    except NotHyperbolicError:
        genus = None
    return {"p": str(p), "k": str(k), "R": str(R), "genus": genus}


def _csv_cell(value):
    if isinstance(value, list):
        return " ".join(":".join(v) if isinstance(v, list) else v for v in value)
    return "" if value is None else value


def cmd_count(args) -> int:
    """The count of one partition, or the sum over every admissible one of
    R; the audit fields show the one report, except at p = 2 with rank 2."""
    from .counting import count_types_rank2, total_types
    from .partitions import (check_admissible, check_part_count, check_prime, parse_partition,
                             partition_tokens)

    p, k, R = args.p, args.k, args.R
    check_prime(p)
    part = None
    if args.partition is not None:
        # the part count first, so a huge exponent is refused before it is expanded
        check_part_count(sum(exp for _, exp in partition_tokens(args.partition)), p, k)
        part = parse_partition(args.partition)
        if R is not None and R != part.R:
            raise ValueError(f"--R {R} contradicts --partition {part}, which sums to {part.R}")
        R = part.R
        check_admissible(part, p, k)
    elif R is None:
        raise ValueError("count needs --partition or --R")
    elif k == 2 and p > 2:
        raise ValueError("for rank 2 and odd p give --partition; 'total' sums all partitions")
    reports = ((count_types_rank2(part, p),) if part is not None and k == 2
               else total_types(p, k, R).reports)
    t = sum(r.T for r in reports)
    report = None if (p, k) == (2, 2) else reports[0]
    record = _header(p, k, R)
    if report is not None:
        part = report.partition
        record.update(
            card_A=str(report.card_A),
            burnside_terms=[[str(d), str(c)] for d, c in report.burnside_terms],
            marking_multiplier=str(report.marking_multiplier),
        )
    if part is not None:
        record["partition"] = [str(x) for x in part.parts]
    record["T"] = str(t)
    keys = sorted(record)

    def lines():
        if part is not None:
            yield f"partition: {part}"
        yield f"p: {p}  k: {k}  R: {R}"
        yield f"genus: {record['genus'] or 'n/a (not hyperbolic)'}"
        if report is not None:
            yield f"|A|: {report.card_A}"
            terms = "  ".join(f"d'={d}: {c}" for d, c in report.burnside_terms)
            yield f"burnside corrections: {terms or 'none'}"
            yield f"marking multiplier: {report.marking_multiplier}"
        yield f"T: {t}"

    _emit(args.format, lambda: record,
          lambda: [keys, [_csv_cell(record[key]) for key in keys]], lines)
    return 0


def cmd_total(args) -> int:
    from .counting import total_types

    p, k, R = args.p, args.k, args.R
    report = total_types(p, k, R)
    fields = _header(p, k, R)
    rows = [(r.partition, str(r.T)) for r in report.reports]
    total = str(report.total)
    _emit(
        args.format,
        lambda: {**fields, "total": total, "breakdown": [
            {"partition": [str(x) for x in q.parts], "T": t} for q, t in rows
        ]},
        lambda: [["partition", "T"], *([str(q), t] for q, t in rows), ["total", total]],
        lambda: [f"p: {p}  k: {k}  R: {R}  genus: {fields['genus'] or 'n/a'}",
                 *(f"  {str(q):<18} {t}" for q, t in rows), f"total: {total}"],
    )
    return 0


def _verify_line(row: dict) -> str:
    if row["status"] == "SKIPPED":
        return f"SKIPPED p={row['p']} R={row['R']}: {row['reason']}"
    return (f"{row['status']} p={row['p']} R={row['R']} {row['partition']}: "
            f"oracle={row['oracle']} formula={row['formula']}")


def cmd_verify(args) -> int:
    from . import oracle
    from .counting import total_types

    k = args.k
    if not args.p or not args.R:
        raise ValueError("verify needs at least one prime and one R (empty range?)")
    results = []
    cases = iter(oracle.count_orbits_many(args.p, k, args.R, args.guard_multisets,
                                          args.guard_steps))
    for p in args.p:
        for R in args.R:
            counts = next(cases)
            if isinstance(counts, oracle.GuardExceeded):
                results.append({"p": str(p), "R": str(R), "status": "SKIPPED",
                                "reason": str(counts)})
                continue
            formula = {r.partition: r.T for r in total_types(p, k, R).reports}
            keys = sorted(set(formula) | set(counts), key=lambda q: (q.n, q.parts))
            rows = [(str(q), counts.get(q, 0), formula.get(q, 0)) for q in keys]
            if k == 2:
                rows.append(("total", sum(counts.values()), sum(formula.values())))
            for label, got, want in rows:
                results.append({"p": str(p), "R": str(R), "partition": label,
                                "oracle": str(got), "formula": str(want),
                                "status": "PASS" if got == want else "FAIL"})
    failures = sum(row["status"] == "FAIL" for row in results)
    skipped = sum(row["status"] == "SKIPPED" for row in results)
    columns = ["p", "R", "partition", "oracle", "formula", "status", "reason"]
    _emit(
        args.format,
        lambda: {"results": results, "failures": str(failures), "skipped": str(skipped)},
        lambda: [columns, *([row.get(c, "") for c in columns] for row in results)],
        lambda: [*map(_verify_line, results), f"failures: {failures}  skipped: {skipped}"],
    )
    if skipped == len(results):  # no case checked: a pass would be vacuous
        print("error: verify checked no case; every case was SKIPPED by the guards",
              file=sys.stderr)
        return 2
    return 1 if failures else 0


def cmd_table(args) -> int:
    from .tables import build_table

    R = args.R
    rows = build_table(R, args.primes or None)
    branches = [(row, {"modulus": str(row.fit.modulus), "class": str(c),
                       "coefficients": [str(x) for x in poly.coeffs],
                       "samples": [[str(q), str(t)] for q, t in row.samples]})
                for row in rows for c, poly in sorted(row.fit.branches.items())]
    columns = ["modulus", "class", "coefficients", "samples"]
    _emit(
        args.format,
        lambda: {"R": str(R), "rows": [
            {"partition": [str(x) for x in row.partition.parts], **record}
            for row, record in branches
        ]},
        lambda: [["partition", *columns], *(
            [str(row.partition), *(_csv_cell(record[c]) for c in columns)]
            for row, record in branches
        )],
        lambda: [f"R = {R}", *(
            f"  {str(row.partition):<18} {row.fit.pretty()}    "
            + "  ".join(f"T({q})={t}" for q, t in row.samples)
            for row in rows
        )],
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topotype",
        description="Exact counts of topological types of fully ramified "
                    "Z_p^k surface actions (k = 1, 2)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("count", help="count types for one partition (or R)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, choices=[1, 2], required=True)
    sp.add_argument("--partition", type=str)
    sp.add_argument("--R", type=int)
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("total", help="sum type counts over all admissible partitions")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, choices=[1, 2], required=True)
    sp.add_argument("--R", type=int, required=True)
    sp.set_defaults(func=cmd_total)

    sp = sub.add_parser("verify", help="compare formulas against the brute-force oracle")
    sp.add_argument("--p", type=_parse_ints, required=True,
                    help="comma-separated primes, e.g. 3,5")
    sp.add_argument("--k", type=int, choices=[1, 2], required=True)
    sp.add_argument("--R", type=_parse_range, required=True,
                    help="range like 3..6, or comma list")
    sp.add_argument("--guard-multisets", type=_nonnegative, default=None)
    sp.add_argument("--guard-steps", type=_nonnegative, default=None)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("table", help="fit and render a table section")
    sp.add_argument("--R", type=int, required=True)
    sp.add_argument("--primes", type=_parse_ints, default=None,
                    help="comma-separated sample primes to display; each one above "
                         "a row's largest part is checked against the row's fit")
    sp.set_defaults(func=cmd_table)

    for sp in sub.choices.values():
        sp.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
