"""Independent cross-check routes, kept off the production path.

The acceptance suite compares the production counts with these: the base,
shortcut and unitary forms of |A|, the public (W, Z) counts of a part or
block, the dynamic-programming and literal distributions of weighted entry
sums, the Klein parity rule per partition and the Klein total by direct
enumeration, the Gaussian binomials, and the literal lists of the nonzero
vectors of F_p^k and of GL_k(F_p) that the oracle never builds.

The distributions count matrices of nonnegative integers with one row per
part, row i summing to P_i (optionally with a forced zero first column),
bucketed by the weighted sum sum_{i,j} w_i * j * a_{ij} mod p.  The (W, Z)
pair of a part or block records the count landing in class 0 (W) and in
each nonzero class (Z); production computes |A| by a character sum and
never forms it.

This module imports the production modules; none of them imports it.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .counting import _as_parts, _unit_sign
from .exact import binomial, exact_div, is_prime, multichoose
from .oracle import DEFAULT_MULTISET_LIMIT, GuardExceeded
from .partitions import check_part_count, check_rank


class RowCounts(NamedTuple):
    """Row counts for one part P: e = rows over p columns, b = rows with
    zero first column."""

    e: int
    b: int


class PartWZ(NamedTuple):
    """Zero-class count W and per-nonzero-class count Z of a part or block."""

    W: int
    Z: int


class Distribution(NamedTuple):
    """Counts per residue class alpha = 0..p-1."""

    counts: tuple


def _check_odd_prime(p: int) -> None:
    if p < 3 or not is_prime(p):
        raise ValueError(f"p = {p}: need an odd prime")


def row_counts(P: int, p: int) -> RowCounts:
    """e_P = binomial(P+p-1, P) rows; b_P = binomial(P+p-2, P) with column 0
    forced to zero."""
    return RowCounts(binomial(P + p - 1, P), binomial(P + p - 2, P))


def _wz(B: int, sign: int, p: int) -> PartWZ:
    """(W, Z) of B rows whose zero class is off the average B/p by ``sign``
    times (p-1)/p: W = Z + sign, W + (p-1) Z = B."""
    z = exact_div(B - sign, p)
    return PartWZ(z + sign, z)


def part_wz(P: int, p: int) -> PartWZ:
    """(W, Z) of a single part with the first column forced to zero.

    For P not congruent to 0 or 1 mod p the b_P rows equidistribute; the two
    congruent cases shift the zero class by +1/-1.  P = 0 contributes the
    empty row only: (1, 0).
    """
    _check_odd_prime(p)
    if P < 0:
        raise ValueError("part must be nonnegative")
    return _wz(binomial(P + p - 2, P), _unit_sign(P, p), p)


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
    return _wz(B, sign, p)


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


def distribution_bruteforce(parts, weights, p: int, zero_first_column: bool = False,
                            multiset_limit=None):
    """Literal enumeration of the weighted-sum distribution.

    Materializes the weighted sum of every matrix (one row per part, row i a
    multiset of P_i column indices, first column excluded when requested)
    and buckets by residue.  Kept deliberately independent of the dynamic-
    programming route.
    """
    import numpy as np

    parts = tuple(parts)
    weights = tuple(weights)
    if len(weights) != len(parts):
        raise ValueError("need one weight per part")
    multiset_limit = DEFAULT_MULTISET_LIMIT if multiset_limit is None else int(multiset_limit)
    total = 1
    for P in parts:
        cols = p - 1 if zero_first_column else p
        total *= multichoose(P, cols)
    if total > multiset_limit:
        raise GuardExceeded(f"{total} matrices exceeds the limit of {multiset_limit}")
    cur = np.zeros(1, dtype=np.int64)
    first = 1 if zero_first_column else 0
    for P, w in zip(parts, weights):
        sums = []
        for combo in itertools.combinations_with_replacement(range(first, p), P):
            sums.append(sum(w * j for j in combo) % p)
        row = np.array(sums, dtype=np.int64)
        cur = (cur[:, None] + row[None, :]).ravel() % p
    counts = np.bincount(cur, minlength=p)
    return Distribution(tuple(int(c) for c in counts))


def card_A_base2(P1: int, P2: int, p: int) -> int:
    """Two-part base case: both block sums must vanish independently."""
    return part_wz(P1, p).W * part_wz(P2, p).W


def card_A_base3(P1: int, P2: int, P3: int, p: int) -> int:
    """Three-part base case: W1 W2 W3 + (p-1) Z1 Z2 Z3 (the three block sums
    are zero, or hit a common nonzero class pattern once per unit)."""
    w1, w2, w3 = part_wz(P1, p), part_wz(P2, p), part_wz(P3, p)
    return w1.W * w2.W * w3.W + (p - 1) * w1.Z * w2.Z * w3.Z


def card_A_shortcut(partition, p: int) -> int:
    """Product shortcut: |A| = (prod b_{P_i}) / p^2, valid whenever at least
    two parts are not congruent to 0 or 1 mod p (two independently
    equidistributed blocks make both row constraints uniform)."""
    parts = _as_parts(partition)
    if sum(1 for P in parts if P % p not in (0, 1)) < 2:
        raise ValueError("shortcut needs two parts not congruent to 0, 1 mod p")
    B = 1
    for P in parts:
        B *= math.comb(P + p - 2, P)
    return exact_div(B, p * p)


def card_A_unitary(n: int, p: int) -> int:
    """|A| of the all-ones partition by the collapsed scalar recursion.

    Each step consumes two parts: r <- (p-1) Z' - W' + r, where (W', Z') is
    the block value of the 2u (even chain) or 2u+1 (odd chain) ones consumed
    so far, with closed forms Z' = ((p-1)^{2u} - 1)/p and
    Z'' = ((p-1)^{2u+1} + 1)/p.
    """
    check_part_count(n, p)
    if n == 2:
        return 0
    if n == 3:
        return p - 1
    if n % 2 == 0:
        r = 0
        for u in range(1, n // 2):
            z = exact_div((p - 1) ** (2 * u) - 1, p)
            w = z + 1
            r = (p - 1) * z - w + r
    else:
        r = p - 1
        for u in range(1, (n - 3) // 2 + 1):
            z = exact_div((p - 1) ** (2 * u + 1) + 1, p)
            w = z - 1
            r = (p - 1) * z - w + r
    return r


def klein_type_count(partition) -> int:
    """Number of types (0 or 1) of a Klein 4-group partition: one iff three
    parts of equal parity or two even parts."""
    parts = _as_parts(partition)
    if len(parts) == 3:
        return 1 if len({P % 2 for P in parts}) == 1 else 0
    if len(parts) == 2:
        return 1 if all(P % 2 == 0 for P in parts) else 0
    return 0


def count_types_klein(R: int) -> int:
    """Total Klein 4-group (p=2, rank 2) types with R branch points:
    partitions of R into three parts of equal parity plus partitions into
    two even parts."""
    if R < 3:
        raise ValueError("need R >= 3")
    three = 0
    for a in range(1, R // 3 + 1):  # smallest part
        for b in range(a, (R - a) // 2 + 1):  # middle part; largest is forced
            c = R - a - b
            if a % 2 == b % 2 == c % 2:
                three += 1
    two = sum(1 for a in range(2, R // 2 + 1, 2) if (R - a) % 2 == 0)
    return three + two


class GaussianBinomial(NamedTuple):
    """q-binomial [m+n, m]_q as its integer coefficient list t_0..t_{mn}.

    t_l is the number of partitions of l into at most m parts each of size
    at most n; the list is palindromic and sums to binomial(m+n, m).
    """

    m: int
    n: int
    coeffs: tuple

    def __call__(self, q: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc


def gaussian_binomial(m: int, n: int) -> GaussianBinomial:
    """Compute the q-binomial coefficient by the q-Pascal recurrence.

    G(m, n) = G(m-1, n) + q^m * G(m, n-1), with G(m, 0) = G(0, n) = 1.
    """
    if m < 0 or n < 0:
        raise ValueError("need nonnegative arguments")
    # table[j] holds the coefficient list of G(i, j) for the current row i
    table = [[1] for _ in range(n + 1)]
    for i in range(1, m + 1):
        new = [[1]]
        for j in range(1, n + 1):
            a = new[j - 1]  # G(i, j-1)
            b = table[j]  # G(i-1, j)
            out = [0] * (i * j + 1)
            for k, c in enumerate(b):
                out[k] += c
            for k, c in enumerate(a):
                out[k + i] += c
            new.append(out)
        table = new
    return GaussianBinomial(m, n, tuple(table[n]))


def nonzero_vectors(p: int, k: int) -> list:
    """All nonzero vectors of F_p^k, lexicographically sorted: the order
    that the oracle numbers without listing (see ``topotype.oracle``)."""
    return [v for v in itertools.product(range(p), repeat=k) if any(v)]


def gl_matrices(p: int, k: int) -> list:
    """All invertible k x k matrices over F_p (k = 1 or 2)."""
    check_rank(k)
    if k == 1:
        return [((a,),) for a in range(1, p)]
    out = []
    for a, b, c, d in itertools.product(range(p), repeat=4):
        if (a * d - b * c) % p:
            out.append(((a, b), (c, d)))
    return out
