"""Type-counting formulas for fully ramified Z_p^k actions.

|A| counts block matrices for one fixed marking (one block of zero-first-
column rows per part, all row sums zero mod p).  The final count T applies
a Burnside average over the scalar group F_p^* (with correction terms for
scalars of each order d' > 1 dividing every part) and the marking
multiplier binomial(p-2, n-3).

Rank 1 uses the same machinery on a single-rowed multiset; p = 2 rank 2
reduces to a parity rule on the partition (three parts of equal parity or
two even parts admit exactly one type, anything else none).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exact import binomial, divisors_greater_than_one, euler_phi, exact_div, is_prime, multichoose
from .partitions import PartitionType, admissible_partitions, marking_count


@dataclass(frozen=True)
class CountReport:
    """Full audit trail of one type count.

    T = marking_multiplier * (card_A + sum of Burnside contributions)/(p-1).
    """

    partition: PartitionType
    p: int
    card_A: int
    burnside_terms: tuple  # ((d', contribution), ...)
    marking_multiplier: int
    T: int


@dataclass(frozen=True)
class TotalReport:
    """Per-partition breakdown plus total for fixed (p, k, R)."""

    p: int
    k: int
    R: int
    reports: tuple
    total: int


def _as_parts(partition) -> tuple:
    if isinstance(partition, PartitionType):
        return partition.parts
    return tuple(int(x) for x in partition)


def _check_odd_prime(p: int) -> None:
    if p < 3 or not is_prime(p):
        raise ValueError(f"p = {p}: need an odd prime")


def _unit_sign(P: int, p: int) -> int:
    """b_P mod p when that residue is +1 or -1 (P congruent to 0 or 1 mod
    p), else 0: the rows of such a part equidistribute over the p classes."""
    r = P % p
    return 1 if r == 0 else -1 if r == 1 else 0


def _wz(B: int, sign: int, p: int) -> tuple:
    """(W, Z) of B rows whose zero class is off the average B/p by ``sign``
    times (p-1)/p: W = Z + sign, W + (p-1) Z = B."""
    z = exact_div(B - sign, p)
    return z + sign, z


def _check_part_count(n: int, p: int) -> None:
    if n < 2:
        raise ValueError("need at least two parts")
    if n > p + 1:
        raise ValueError(f"{n} parts but only {p + 1} cyclic subgroups (p={p})")


def _values(p: int, parts, ns) -> tuple:
    """The values one call shares across its partitions, computed once per
    distinct part P and once per number of parts n: P -> (b_P, sign, W_P,
    Z_P), with b_P = binomial(P+p-2, P) and sign as in ``_unit_sign``;
    P -> {d': multichoose(P/d', (p-1)/d')} for each d' > 1 dividing P and
    p-1, the Burnside factors; and n -> marking_count(p, n)."""
    part_wz, burnside = {}, {}
    for P in set(parts):
        b, sign = binomial(P + p - 2, P), _unit_sign(P, p)
        part_wz[P] = (b, sign, *_wz(b, sign, p))
        burnside[P] = {dp: multichoose(P // dp, (p - 1) // dp)
                       for dp in divisors_greater_than_one(math.gcd(p - 1, P))}
    return part_wz, burnside, {n: marking_count(p, n) for n in ns}


def card_A(partition, p: int) -> int:
    """|A| for any number of parts, by the pairwise recursion.

    Accepts a PartitionType (canonical descending order) or any explicit
    part sequence — the result is independent of the order, which the test
    suite verifies exhaustively for small R.

    The recursion consumes two parts per step from the end: with r the count
    for the suffix processed so far, (W', Z') the block value of that suffix,
    and s01 = W' - r, s11 = (p-1)Z' - W' + r, the next value is
    [W_a Z_a] [[r, s01], [s01, s11]] [W_b Z_b]^T.  The suffix starts empty
    (r = 1) for an even number of parts and as the last part alone (r = its
    W) for an odd number, which reproduces ``crosscheck.card_A_base2``
    and ``crosscheck.card_A_base3`` as the first step.

    One linear pass: each part's b_P = binomial(P+p-2, P) and sign (+1 for
    P = 0, -1 for P = 1, else 0 mod p) are computed once, and the suffix's
    product B of the b_P and product of the signs are carried forward, so
    (W', Z') = (z + sign, z) with z = (B - sign)/p, as
    ``crosscheck.block_wz`` gives.
    """
    parts = _as_parts(partition)
    _check_part_count(len(parts), p)
    if min(parts) < 0:
        raise ValueError("part must be nonnegative")
    _check_odd_prime(p)
    return _card_A(parts, _values(p, parts, ())[0], p)


def _card_A(parts: tuple, part_wz: dict, p: int) -> int:
    """``card_A`` for checked parts and an odd prime p, reading each part's
    (b_P, sign, W_P, Z_P) from ``part_wz``."""
    wz = [part_wz[P] for P in parts]
    i = len(parts) - 2
    if len(parts) % 2:
        B, sign, r, _ = wz[-1]
        i -= 1
    else:
        r, B, sign = 1, 1, 1
    while i >= 0:
        W, Z = _wz(B, sign, p)
        s01 = W - r
        s11 = (p - 1) * Z - W + r
        if s01 < 0 or s11 < 0:
            raise ArithmeticError("negative recursion state; invariant broken")
        (ba, sa, wa, za), (bb, sb, wb, zb) = wz[i], wz[i + 1]
        r = wa * (r * wb + s01 * zb) + za * (s01 * wb + s11 * zb)
        B *= ba * bb
        sign *= sa * sb
        i -= 2
    return r


def _burnside_terms(parts, burnside: dict, p: int) -> tuple:
    """Correction terms of the scalar Burnside average: for each d' > 1
    dividing every part and p-1, the scalars of order d' fix
    prod_i multichoose(P_i/d', (p-1)/d') matrices, phi(d') of them; the
    factors are read from ``burnside`` (see ``_values``)."""
    terms = []
    for dp_ in divisors_greater_than_one(math.gcd(p - 1, *parts)):
        fixed = 1
        for P in parts:
            fixed *= burnside[P][dp_]
        terms.append((dp_, euler_phi(dp_) * fixed))
    return tuple(terms)


def count_types_rank2(partition, p: int) -> CountReport:
    """Type count for a rank-2 action with the given partition, odd p.

    T = binomial(p-2, n-3) * (|A| + corrections) / (p-1): Burnside over the
    scalar group for one marking, times the number of markings.
    """
    _check_odd_prime(p)
    part = partition if isinstance(partition, PartitionType) else PartitionType(_as_parts(partition))
    _check_part_count(part.n, p)
    return _count_types_rank2(part, p, _values(p, part.parts, (part.n,)))


def _count_types_rank2(part: PartitionType, p: int, values: tuple) -> CountReport:
    """``count_types_rank2`` for an odd prime p and a part count the caller
    has already checked, reading per-part and per-n values from ``values``."""
    part_wz, burnside, marks = values
    a = _card_A(part.parts, part_wz, p)
    terms = _burnside_terms(part.parts, burnside, p)
    marked_classes = exact_div(a + sum(c for _, c in terms), p - 1)
    mark = marks[part.n]
    return CountReport(part, p, a, terms, mark, mark * marked_classes)


def count_types_rank1(R: int, p: int) -> CountReport:
    """Type count for rank 1: Burnside over F_p^* on single-rowed multisets.

    For p = 2 there is one action for even R and none for odd R.
    """
    if R < 3:
        raise ValueError("need R >= 3")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    part = PartitionType((R,))
    if p == 2:
        t = 1 if R % 2 == 0 else 0
        return CountReport(part, p, t, (), 1, t)
    part_wz, burnside, _ = _values(p, (R,), ())
    w = part_wz[R][2]
    terms = _burnside_terms((R,), burnside, p)
    t = exact_div(w + sum(c for _, c in terms), p - 1)
    return CountReport(part, p, w, terms, 1, t)


def klein_type_count(partition) -> int:
    """Number of types (0 or 1) of a Klein 4-group partition: one iff three
    parts of equal parity or two even parts."""
    parts = _as_parts(partition)
    if len(parts) == 3:
        return 1 if len({P % 2 for P in parts}) == 1 else 0
    if len(parts) == 2:
        return 1 if all(P % 2 == 0 for P in parts) else 0
    return 0


def total_types(p: int, k: int, R: int) -> TotalReport:
    """Sum of type counts over all admissible partitions of (p, k, R)."""
    if k not in (1, 2):
        raise ValueError(f"k = {k}: only ranks 1 and 2 are supported")
    if k == 1:
        reports = (count_types_rank1(R, p),)
    elif p == 2:
        reports = tuple(
            CountReport(part, 2, klein_type_count(part), (), 1, klein_type_count(part))
            for part in admissible_partitions(2, 2, R)
        )
    else:
        _check_odd_prime(p)
        partitions = admissible_partitions(p, 2, R)
        values = _values(p, range(1, R - 1), {part.n for part in partitions})
        reports = tuple(_count_types_rank2(part, p, values) for part in partitions)
    return TotalReport(p, k, R, reports, sum(r.T for r in reports))
