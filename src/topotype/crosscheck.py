"""Independent cross-check routes, kept off the production path.

The acceptance suite compares the production counts with these: the base,
shortcut and unitary forms of |A|, the public (W, Z) counts of a part or
block, the dynamic-programming and literal distributions of weighted entry
sums, the Klein parity rule per partition and the Klein total by direct
enumeration, the Gaussian binomials, the literal lists of the nonzero
vectors of F_p^k and of GL_k(F_p) that the oracle never builds, and the
literal list of generating column multisets and partition type of one
multiset, from which the tests rebuild the oracle's orbit tables: they
share no code with the oracle's walk.  The sampled fit of a table row,
exact interpolation of ``count_types_rank2`` at primes of each residue
class verified on held-out primes, is the reference for the polynomials
that ``tables`` computes symbolically.

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
from collections import Counter
from typing import NamedTuple

from .counting import _as_parts, _unit_sign, count_types_rank2
from .exact import RationalPolynomial, binomial, exact_div, is_prime, multichoose
from .oracle import DEFAULT_MULTISET_LIMIT, GuardExceeded
from .partitions import (ActionParams, PartitionType, check_integer, check_part_count, check_prime,
                         check_rank)
from .tables import (PolynomialFitError, StratifiedPolynomial, _primes_in_class, default_modulus,
                     fit_floor)


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
    check_prime(p)
    if p == 2:
        raise ValueError(f"p = {p}: need an odd prime")


def row_counts(P: int, p: int) -> RowCounts:
    """e_P = binomial(P+p-1, P) rows; b_P = binomial(P+p-2, P) with column 0
    forced to zero."""
    check_integer("p", p)
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

    check_integer("p", p)
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
    check_integer("p", p)
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
    check_integer("R", R)
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


def enumerate_generating_sets(p: int, k: int, R: int, multiset_limit=None):
    """Yield every generating column multiset over F_p^k (zero row sums,
    rank k, no zero columns) once, columns ascending, in lexicographic
    order: the R-combinations with repetition of ``nonzero_vectors`` that
    pass both tests.  The guard counts the multichoose(R, p^k-1)
    combinations it scans."""
    ActionParams(p, k, R)
    m = multichoose(R, p**k - 1)
    limit = DEFAULT_MULTISET_LIMIT if multiset_limit is None else int(multiset_limit)
    if m > limit:
        raise GuardExceeded(f"(p={p}, k={k}, R={R}): about {m} column multisets "
                            f"exceeds the limit of {limit}")
    for cols in itertools.combinations_with_replacement(nonzero_vectors(p, k), R):
        if any(map(p.__rmod__, map(sum, zip(*cols)))):  # a row sum is nonzero mod p
            continue
        u0, w0 = cols[0] if k == 2 else (0, 0)
        if k == 1 or any((u0 * w - w0 * u) % p for u, w in cols):
            yield cols


def classify_partition(columns, p: int, k: int = 2) -> PartitionType:
    """Partition type of a column multiset of rank k: the sizes of its
    groups of columns on one line (cyclic subgroup), each column's line
    read as its least nonzero multiple."""
    check_prime(p)
    check_rank(k)
    lines = Counter()
    for v in columns:
        r = tuple(c % p for c in v)
        if len(r) != k:
            raise ValueError(f"column {tuple(v)} does not have k = {k} entries")
        if not any(r):
            raise ValueError(f"column {tuple(v)} is zero mod {p}")
        lines[min(tuple(t * c % p for c in r) for t in range(1, p))] += 1
    return PartitionType(lines.values())


def default_degree_bound(partition: PartitionType) -> int:
    """Degree of T(p): deg|A| = R-2, marking adds n-3 (when n > 3), the
    scalar average removes 1."""
    return partition.R - 3 + max(0, partition.n - 3)


def fit_partition_polynomial(partition, degree_bound=None, modulus=None,
                             primes=None) -> StratifiedPolynomial:
    """Fit T(p) for one rank-2 partition as exact polynomials per residue class.

    Uses degree_bound+1 sample primes per class for the interpolation and
    verifies the result on every remaining prime of that class (at least one
    held-out prime is always present).  Every sample prime must be at least
    ``fit_floor(partition)``.  When ``primes`` is None a sufficient pool is
    generated automatically; an explicit list that leaves a unit class
    short raises an error naming the class.
    """
    part = partition if isinstance(partition, PartitionType) else PartitionType(tuple(partition))
    for name, value, least in (("degree_bound", degree_bound, 0), ("modulus", modulus, 1)):
        if value is not None and int(value) < least:
            raise PolynomialFitError(f"{name} must be at least {least} (got {value})")
    db = default_degree_bound(part) if degree_bound is None else int(degree_bound)
    mod = default_modulus(part) if modulus is None else int(modulus)
    floor = fit_floor(part)
    classes = [c for c in range(mod) if math.gcd(c, mod) == 1]
    need = db + 2  # fit points + at least one held-out
    if primes is None:
        by_class = {c: _primes_in_class(c, mod, need, floor) for c in classes}
    else:
        by_class = {c: [] for c in classes}
        for q in sorted(set(int(q) for q in primes)):
            if not is_prime(q):
                raise PolynomialFitError(f"{q} is not prime")
            if q <= 3:
                raise PolynomialFitError(f"sample primes must exceed 3 (got {q})")
            if q < floor:
                raise PolynomialFitError(
                    f"sample primes for {part} must be at least its fit floor "
                    f"{floor}, above the largest part and >= n-1 (got {q})"
                )
            by_class.setdefault(q % mod, []).append(q)
        for c in classes:
            if len(by_class[c]) < need:
                raise PolynomialFitError(
                    f"class {c} mod {mod}: {len(by_class[c])} primes supplied, "
                    f"need {need} (degree bound {db} plus a held-out prime)"
                )
    return StratifiedPolynomial(part, mod, {c: _fit(part, mod, db, c, by_class[c])
                                            for c in classes})


def _fit(part: PartitionType, mod: int, db: int, c: int, primes: list) -> RationalPolynomial:
    """The interpolant of T at the first db+1 of ``primes`` (class c mod
    ``mod``), checked against T at every remaining one."""
    points = [(q, count_types_rank2(part, q).T) for q in primes]
    poly = interpolate(points[: db + 1])
    for q, value in points[db + 1:]:
        if poly(q) != value:
            raise PolynomialFitError(
                f"{part} not polynomial at modulus {mod}, degree {db}: "
                f"class {c} held-out prime {q} gives {value}, "
                f"interpolant gives {poly(q)}"
            )
    return poly


def interpolate(points) -> RationalPolynomial:
    """Lagrange interpolation through exact points (x, y).

    Returns the unique polynomial of degree < len(points); raises if two
    abscissae coincide.  The work is done in integers: x and y are scaled by
    the lcm of their denominators, every Lagrange numerator is
    F(t) / (t - X_i) for the one product F(t) = prod_j (t - X_j), and the
    terms are summed over the common denominator L = lcm_i |d_i|, where
    d_i = prod_{j != i} (X_i - X_j).  Each coefficient is divided once, at
    the end: O(n^2) integer operations for n points.
    """
    from fractions import Fraction

    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate abscissa in interpolation input")
    dx = math.lcm(*(x.denominator for x in xs))
    dy = math.lcm(*(y.denominator for y in ys))
    X = [x.numerator * (dx // x.denominator) for x in xs]
    Y = [y.numerator * (dy // y.denominator) for y in ys]
    F = [1]  # coefficients of prod_j (t - X_j), index = degree
    for xj in X:
        F = [0] + F
        for k in range(len(F) - 1):
            F[k] -= xj * F[k + 1]
    d = [math.prod(xi - xj for xj in X if xj != xi) for xi in X]
    L = math.lcm(*d)
    n = len(X)
    acc = [0] * n
    for xi, yi, di in zip(X, Y, d):
        scale = yi * (L // di)
        q = F[n]  # synthetic division of F by (t - xi), highest degree first
        for k in range(n - 1, -1, -1):
            acc[k] += scale * q
            q = F[k] + xi * q
    # sum_k acc_k t^k / L interpolates (X_i, Y_i); substitute t = dx * x, divide by dy
    return RationalPolynomial(tuple(Fraction(a * dx**k, L * dy) for k, a in enumerate(acc)))
