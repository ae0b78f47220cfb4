"""Exact polynomial reconstruction of the type-count tables.

For a fixed rank-2 partition and every prime p above its largest part (and
at least n-1), T(p) is a polynomial in p on each residue class of p modulo
2*gcd(parts): |A| and the marking multiplier are polynomials there, and the
Burnside correction only asks which divisors of gcd(parts) divide p-1.  This
module samples the counting formulas at such primes, interpolates exactly
per class, and verifies every interpolant on held-out primes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .counting import count_types_rank2
from .exact import RationalPolynomial, interpolate, is_prime
from .partitions import PartitionType, admissible_partitions


class PolynomialFitError(ValueError):
    """Fit could not be performed or failed verification."""


def fit_floor(partition: PartitionType) -> int:
    """Least p at which a fit holds: above the largest part (so every part
    P has P mod p = P and its sign s_P in ``counting``'s |A| is fixed),
    at least n-1 (the n parts fit on the p+1 lines) and at least 3."""
    return max(3, max(partition.parts) + 1, partition.n - 1)


class StratifiedPolynomial(NamedTuple):
    """One exact polynomial per residue class of p mod ``modulus``, valid for
    p >= ``min_prime``."""

    partition: PartitionType
    modulus: int
    branches: dict  # residue class -> RationalPolynomial

    @property
    def min_prime(self) -> int:
        return fit_floor(self.partition)

    def branch_for(self, p: int) -> RationalPolynomial:
        if p < self.min_prime:
            raise ValueError(
                f"{self.partition}: the fit holds only for p >= min_prime = "
                f"{self.min_prime} (got p = {p})"
            )
        branch = self.branches.get(p % self.modulus)
        if branch is None:
            raise ValueError(
                f"{self.partition}: p = {p} is not a unit mod {self.modulus}, "
                f"so no branch of the fit covers it"
            )
        return branch

    def __call__(self, p: int) -> Fraction:
        return self.branch_for(p)(p)

    def pretty(self) -> str:
        """Human form of the fit: one polynomial when every branch agrees,
        else one labelled polynomial per group of identical branches."""
        groups: dict = {}
        for c, poly in sorted(self.branches.items()):
            groups.setdefault(poly, []).append(c)
        if len(groups) == 1:
            return next(iter(groups)).pretty()
        return "; ".join(f"[p%{self.modulus} in {','.join(map(str, cs))}] {poly.pretty()}"
                         for poly, cs in groups.items())


def default_degree_bound(partition: PartitionType) -> int:
    """Degree of T(p): deg|A| = R-2, marking adds n-3 (when n > 3), the
    scalar average removes 1."""
    return partition.R - 3 + max(0, partition.n - 3)


def default_modulus(partition: PartitionType) -> int:
    """Residue classes fine enough for any Burnside branch.  Above the fit
    floor only the correction branches: scalars of order d' contribute
    exactly when d' divides gcd(parts) and p-1, and p mod gcd(parts) decides
    that for every such d'.  So stratify p modulo 2 * gcd(parts); for odd p
    the factor 2 adds no branch beyond those of p mod gcd(parts), and
    identical branches collapse when displayed."""
    return 2 * math.gcd(*partition.parts)


def _primes_in_class(c: int, modulus: int, count: int, floor: int):
    """First ``count`` primes >= max(5, floor) congruent to c mod modulus."""
    out = []
    q = max(5, floor)
    q += (c - q) % modulus
    while len(out) < count:
        if is_prime(q):
            out.append(q)
        q += modulus
    return out


def fit_partition_polynomial(partition, degree_bound=None, modulus=None, primes=None) -> StratifiedPolynomial:
    """Fit T(p) for one rank-2 partition as exact polynomials per residue class.

    Uses degree_bound+1 sample primes per class for the interpolation and
    verifies the result on every remaining prime of that class (at least one
    held-out prime is always present).  Every sample prime must be at least
    ``fit_floor(partition)``.  When ``primes`` is None a sufficient pool is
    generated automatically; an explicit list that leaves a unit class
    short raises an error naming the class.
    """
    return _fit(partition, degree_bound, modulus, primes, {})


def _fit(partition, degree_bound, modulus, primes, values: dict) -> StratifiedPolynomial:
    """``fit_partition_polynomial``, recording each T(q) it computes as
    ``values[q]``."""
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
    branches = {}
    for c in classes:
        points = [(q, _count(part, q, values)) for q in by_class[c]]
        fit_pts, holdout = points[: db + 1], points[db + 1 :]
        poly = interpolate(fit_pts)
        for q, value in holdout:
            if poly(q) != value:
                raise PolynomialFitError(
                    f"{part} not polynomial at modulus {mod}, degree {db}: "
                    f"class {c} held-out prime {q} gives {value}, "
                    f"interpolant gives {poly(q)}"
                )
        branches[c] = poly
    return StratifiedPolynomial(part, mod, branches)


def _count(part: PartitionType, q: int, values: dict) -> int:
    """T(q) for ``part``, computed once per ``values``."""
    if q not in values:
        values[q] = count_types_rank2(part, q).T
    return values[q]


def table_rows(R: int) -> list:
    """Rank-2 partition rows of the R-section of the table: the partitions
    admissible for every p >= R - 1 (there n <= p + 1 never binds), in
    (part count, ascending lex) order."""
    return admissible_partitions(R - 1, 2, R)


class TableRow(NamedTuple):
    partition: PartitionType
    fit: StratifiedPolynomial
    samples: tuple  # ((p, T), ...)


def build_table(R: int, primes=None) -> list:
    """Fit every row of the R-section from the automatic prime pool.
    ``primes`` selects the sample values displayed (each distinct supplied
    prime with p >= n-1; else the first four primes p >= n-1), and every
    sample at or above the row's fit floor must agree with the fit: a
    mismatch raises ``PolynomialFitError`` naming the row and the prime.  A
    supplied value that is not an odd prime raises ``PolynomialFitError``
    naming it, whether or not a row shows it."""
    supplied = sorted(set(primes or ()))
    for q in supplied:
        if q == 2 or not is_prime(q):
            raise PolynomialFitError(f"supplied value {q} is not an odd prime")
    rows = []
    for part in table_rows(R):
        values = {}  # T(q) by q, from the fit's pool first
        fit = _fit(part, None, None, None, values)
        shown = [q for q in supplied if q >= part.n - 1]
        samples = tuple((q, _count(part, q, values))
                        for q in shown or _primes_in_class(0, 1, 4, part.n - 1))
        for q, t in samples:
            if q >= fit.min_prime and fit(q) != t:
                raise PolynomialFitError(
                    f"{part}: supplied prime {q} gives {t}, the fit gives {fit(q)}"
                )
        rows.append(TableRow(part, fit, samples))
    return rows
