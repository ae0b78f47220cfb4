"""Answers of one ``topotype`` command, compared with the pinned ones.

Answers are read from the command's JSON output and normalised, so that a
change of row order or of table branch labels is not a failure but a
missing, ``SKIPPED`` or changed row is.  Every number stays a decimal
string, as the CLI prints it.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

from workloads import TABLE_CHECK_PRIMES


def _label(parts) -> str:
    return ",".join(parts)


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _verify(doc) -> dict:
    rows, skipped = {}, []
    for row in doc["results"]:
        if row["status"] == "SKIPPED":
            skipped.append(f"{row['p']}|{row['R']}")
        else:
            rows[f"{row['p']}|{row['R']}|{row['partition']}"] = [row["oracle"], row["formula"]]
    return {"rows": rows, "skipped": sorted(skipped)}


def _polynomial(coefficients) -> tuple:
    """A fitted polynomial as integer coefficients over one common denominator."""
    fractions = [Fraction(c) for c in coefficients]
    denominator = math.lcm(*(f.denominator for f in fractions))
    return [int(f * denominator) for f in fractions], denominator


def _evaluate(polynomial, q: int) -> str:
    numerators, denominator = polynomial
    value = 0
    for n in reversed(numerators):
        value = value * q + n
    return str(Fraction(value, denominator))


def _table(doc) -> dict:
    """Each partition's fitted polynomial evaluated at every check prime; the
    branch is the one whose class is ``q % modulus``.  The sample primes are
    not compared: they are how a fit is made, not what it answers."""
    by_partition: dict = {}
    for row in doc["rows"]:
        by_partition.setdefault(_label(row["partition"]), []).append(row)
    rows = {}
    for label, rows_of_partition in by_partition.items():
        branches = [(int(b["modulus"]), int(b["class"]), _polynomial(b["coefficients"]))
                    for b in rows_of_partition]
        values = {}
        for q in TABLE_CHECK_PRIMES:
            hit = [poly for modulus, cls, poly in branches if q % modulus == cls]
            values[str(q)] = _evaluate(hit[0], q) if len(hit) == 1 else None
        rows[label] = values
    return {"rows": rows}


def _total(doc) -> dict:
    breakdown = {_label(r["partition"]): r["T"] for r in doc["breakdown"]}
    return {"genus": doc["genus"], "total": doc["total"], "rows": len(breakdown),
            "breakdown_sha256": _sha256(breakdown)}


def observed(cmd, stdout: str, exit_code: int):
    """Normalised answers of one run of ``cmd``; None when the output cannot
    be read as that command's JSON."""
    try:
        doc = json.loads(stdout)
        if cmd.kind == "verify":
            answers = _verify(doc)
        elif cmd.kind == "table":
            answers = _table(doc)
        elif cmd.kind == "total":
            answers = _total(doc)
        else:
            answers = dict(doc)
    except (ValueError, KeyError, TypeError, AttributeError):
        return None
    answers["exit"] = exit_code
    return answers


def items(cmd, pinned: dict) -> int:
    """Answers one command delivers: verify rows, table partition rows,
    total breakdown rows, or one count."""
    want = pinned[cmd.key]
    if cmd.kind in ("verify", "table"):
        return len(want["rows"])
    if cmd.kind == "total":
        return want["rows"]
    return 1


def digest(answers: list) -> str:
    """SHA-256 of a run's normalised answers, in command order."""
    return _sha256(answers)
