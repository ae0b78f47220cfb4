"""Type-counting formulas for fully ramified Z_p^k actions.

|A| counts the zero-sum column multisets for one fixed marking: part i puts
P_i nonzero columns on the i-th of n distinct lines of F_p^2.  A sum over
the characters of F_p^2 gives it in closed form.  With b_P =
binomial(P+p-2, P) and s_P = ``_unit_sign(P, p)``,

    |A| = (prod b + (p-1)(sum_j b_j prod_{i != j} s_i + (p+1-n) prod s))/p^2:

the trivial character sees every multiset (prod b), and each of the p+1
lines is the kernel of p-1 characters, under which the part on that line
contributes b and every other part the signed weight s.  The final count T
applies a Burnside average over the scalar group F_p^* (with correction
terms for scalars of each order d' > 1 dividing every part) and the marking
multiplier binomial(p-2, n-3).  ``_values`` builds every one of these inputs
of the core, ``_count``, for p a prime or the variable of Q[p] (``tables``).

One formula serves every prime and both ranks, over the partition types
that ``partitions.admissible_partitions`` lists.  Rank 1 has one cyclic
subgroup, so its one type {R} has one part: |A| = (b + (p-1) s)/p, and the
multiplier ``marking_count(p, 1, 1)`` is 1.  At p = 2 every b_P is 1 and s_P
= (-1)^P; with no scalar correction and multiplier 1, T = |A| is the Klein
parity rule, ``crosscheck``'s independent reference.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .exact import binomial, divisors_greater_than_one, euler_phi, exact_div, multichoose
from .partitions import (PartitionType, admissible_partitions, check_part_count, check_prime,
                         integer_parts, marking_count)


class CountReport(NamedTuple):
    """Full audit trail of one type count.

    T = marking_multiplier * (card_A + sum of Burnside contributions)/(p-1).
    """

    partition: PartitionType
    p: int
    card_A: int
    burnside_terms: tuple  # ((d', contribution), ...)
    marking_multiplier: int
    T: int


class TotalReport(NamedTuple):
    """Per-partition breakdown plus total for fixed (p, k, R)."""

    p: int
    k: int
    R: int
    reports: tuple
    total: int


def _as_parts(partition) -> tuple:
    return partition.parts if isinstance(partition, PartitionType) else integer_parts(partition)


def _unit_sign(P: int, p: int) -> int:
    """b_P mod p when that residue is +1 or -1 (P congruent to 0 or 1 mod
    p), else 0: the rows of such a part equidistribute over the p classes."""
    r = P % p
    return 1 if r == 0 else -1 if r == 1 else 0


def _values(p, parts, ns, k: int, unit: int) -> tuple:
    """Every input ``_count`` reads, once per distinct part P and per part
    count n, for p an int or the variable of ``RationalPolynomial``s:
    P -> (b_P, s_P); P -> {d': multichoose(P/d', (p-1)/d')}, the Burnside
    factors of each d' > 1 dividing P and p-1, d' ascending; and n ->
    marking_count(p, n, k).  The int ``unit`` is p, or for ``tables`` the
    least integer in p's residue class at or above the fit floor: s_P =
    ``_unit_sign(P, unit)``, and the d' are those dividing unit-1."""
    distinct = set(parts)
    signed = {P: (binomial(p + (P - 2), P), _unit_sign(P, unit)) for P in distinct}
    burnside = {P: {dp: multichoose(P // dp, exact_div(p - 1, dp))
                    for dp in divisors_greater_than_one(math.gcd(unit - 1, P))}
                for P in distinct} if ns else {}  # no n: |A| alone (``card_A``)
    return signed, burnside, {n: marking_count(p, n, k) for n in ns}


def card_A(partition, p: int) -> int:
    """|A| for any number of parts, by the character sum over F_p^2 (see
    the module docstring).

    Accepts a PartitionType (canonical descending order) or any explicit
    part sequence — the result is independent of the order, which the test
    suite verifies exhaustively for small R.  The base, shortcut and unitary
    forms in ``crosscheck``, and the pairwise (W, Z) recursion that the
    tests rebuild from its (W, Z) counts, reach the same values
    independently.
    """
    parts = _as_parts(partition)
    check_prime(p)
    check_part_count(len(parts), p)
    if min(parts) < 0:
        raise ValueError("part must be nonnegative")
    return _card_A(parts, _values(p, parts, (), 2, p)[0], p)


def _card_A(parts: tuple, signed: dict, p: int) -> int:
    """``card_A`` for checked parts and a prime p, reading each part's
    (b_P, s_P) from ``signed``: one pass carries prod b, the cross sum
    sum_j b_j prod_{i != j} s_i and prod s, then one exact division by p^2."""
    prod_b, cross, prod_sign = 1, 0, 1
    for P in parts:
        b, s = signed[P]
        prod_b, cross, prod_sign = prod_b * b, cross * s + prod_sign * b, prod_sign * s
    return exact_div(prod_b + (p - 1) * (cross + (p + 1 - len(parts)) * prod_sign), p * p)


def _burnside_terms(parts, burnside: dict) -> tuple:
    """Correction terms of the scalar Burnside average: for each d' > 1
    dividing every part and p-1, the scalars of order d' fix
    prod_i multichoose(P_i/d', (p-1)/d') matrices, phi(d') of them.  The d'
    are the last part's keys in ``burnside`` (see ``_values``) that every
    part shares, in ascending order, and the factors are read from it."""
    return tuple((dp, euler_phi(dp) * math.prod(burnside[P][dp] for P in parts))
                 for dp in burnside[parts[-1]] if all(dp in burnside[P] for P in parts))


def count_types_rank2(partition, p: int) -> CountReport:
    """Type count for a rank-2 action with the given partition, any prime p.

    T = binomial(p-2, n-3) * (|A| + corrections) / (p-1): Burnside over the
    scalar group for one marking, times the number of markings.
    """
    check_prime(p)
    part = partition if isinstance(partition, PartitionType) else PartitionType(_as_parts(partition))
    check_part_count(part.n, p)
    return _count(part, p, _values(p, part.parts, (part.n,), 2, p))


def _count(part: PartitionType, p: int, values: tuple) -> CountReport:
    """The type count of ``part`` at a prime p, for either rank, reading
    per-part and per-n values from ``values``; the caller has checked p and
    the part count.  ``tables`` runs it with p the variable of
    ``RationalPolynomial``s: it uses only ring operations and exact division."""
    signed, burnside, marks = values
    a = _card_A(part.parts, signed, p)
    terms = _burnside_terms(part.parts, burnside)
    marked_classes = exact_div(a + sum(c for _, c in terms), p - 1)
    mark = marks[part.n]
    return CountReport(part, p, a, terms, mark, mark * marked_classes)


def count_types_rank1(R: int, p: int) -> CountReport:
    """Type count for rank 1: the report of its one admissible type {R},
    with |A| = (b_R + (p-1) s_R)/p and multiplier 1 (at p = 2, one action
    for even R and none for odd R)."""
    return total_types(p, 1, R).reports[0]


def total_types(p: int, k: int, R: int) -> TotalReport:
    """Sum of type counts over all admissible partitions of (p, k, R);
    ``admissible_partitions`` checks (p, k, R)."""
    partitions = admissible_partitions(p, k, R)
    values = _values(p, set().union(*(part.parts for part in partitions)),
                     {part.n for part in partitions}, k, p)
    reports = tuple(_count(part, p, values) for part in partitions)
    return TotalReport(p, k, R, reports, sum(r.T for r in reports))
