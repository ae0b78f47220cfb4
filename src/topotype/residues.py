"""Residue-class distributions of weighted entry sums.

The objects counted here are matrices of nonnegative integers with one row
per part, row i summing to P_i (optionally with a forced zero first column),
bucketed by the weighted sum sum_{i,j} w_i * j * a_{ij} mod p.  The (W, Z)
pair of a part or block records the count landing in class 0 (W) and in each
nonzero class (Z); these feed the type-counting recursions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import binomial, exact_div, is_prime


@dataclass(frozen=True)
class RowCounts:
    """Row counts for one part P: e = rows over p columns, b = rows with
    zero first column."""

    e: int
    b: int


@dataclass(frozen=True)
class PartWZ:
    """Zero-class count W and per-nonzero-class count Z of a part or block."""

    W: int
    Z: int


@dataclass(frozen=True)
class Distribution:
    """Counts per residue class alpha = 0..p-1."""

    counts: tuple


def _check_odd_prime(p: int) -> None:
    if p < 3 or not is_prime(p):
        raise ValueError(f"p = {p}: this machinery requires an odd prime")


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


def row_counts(P: int, p: int) -> RowCounts:
    """e_P = binomial(P+p-1, P) rows; b_P = binomial(P+p-2, P) with column 0
    forced to zero."""
    return RowCounts(binomial(P + p - 1, P), binomial(P + p - 2, P))


def part_wz(P: int, p: int) -> PartWZ:
    """(W, Z) of a single part with the first column forced to zero.

    For P not congruent to 0 or 1 mod p the b_P rows equidistribute; the two
    congruent cases shift the zero class by +1/-1.  P = 0 contributes the
    empty row only: (1, 0).
    """
    _check_odd_prime(p)
    return _part_wz(P, p)


def _part_wz(P: int, p: int) -> PartWZ:
    """``part_wz`` for an odd prime p the caller has already checked."""
    if P < 0:
        raise ValueError("part must be nonnegative")
    return PartWZ(*_wz(binomial(P + p - 2, P), _unit_sign(P, p), p))


def block_wz(parts, p: int) -> PartWZ:
    """(W, Z) of a block of parts (zero-first-column rows, joint weighted sum).

    If some part is not congruent to 0 or 1 mod p the B = prod b_{P_i} rows
    equidistribute over all p classes.  Otherwise B is congruent to (-1)^t
    mod p, with t the number of parts congruent to 1, and the zero class is
    off the average by that sign.
    """
    _check_odd_prime(p)
    parts = tuple(parts)
    if not parts:
        raise ValueError("block needs at least one part")
    B, sign = 1, 1
    for P in parts:
        B *= binomial(P + p - 2, P)
        sign *= _unit_sign(P, p)
    return PartWZ(*_wz(B, sign, p))


def full_distribution(parts, weights, p: int, zero_first_column: bool = False) -> Distribution:
    """Exact distribution of weighted sums over all row choices.

    Computed by dynamic programming: a per-part residue profile (how many
    valid rows of that part land in each class) followed by cyclic
    convolution across parts.  The result is independent of the weight
    values as long as each is a unit mod p; callers verify that property
    against the brute-force path.
    """
    _check_odd_prime(p)
    parts = tuple(parts)
    weights = tuple(weights)
    if len(weights) != len(parts):
        raise ValueError("need one weight per part")
    if any(not (1 <= w <= p - 1) for w in weights):
        raise ValueError("weights must be units: integers in 1..p-1")
    total = [1] + [0] * (p - 1)
    for P, w in zip(parts, weights):
        prof = _row_profile(P, w, p, zero_first_column)
        nxt = [0] * p
        for r1, c1 in enumerate(total):
            if not c1:
                continue
            for r2, c2 in enumerate(prof):
                nxt[(r1 + r2) % p] += c1 * c2
        total = nxt
    return Distribution(tuple(total))


def _row_profile(P: int, w: int, p: int, zero_first_column: bool):
    """Residue profile of one row: nonnegative integer p-vectors summing to P
    (entry 0 forced to 0 when requested), bucketed by sum_j w*j*a_j mod p."""
    dp = [[0] * p for _ in range(P + 1)]
    dp[0][0] = 1
    first = 1 if zero_first_column else 0
    for j in range(first, p):
        step = (w * j) % p
        # unbounded multiplicity of column j: ascending in-place update
        for s in range(1, P + 1):
            prev = dp[s - 1]
            cur = dp[s]
            for r in range(p):
                cur[(r + step) % p] += prev[r]
    return dp[P]
