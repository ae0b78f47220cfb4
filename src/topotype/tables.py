"""Exact polynomial tables of the rank-2 type counts.

For a fixed rank-2 partition and every prime p above its largest part (and
at least n-1), T(p) is a polynomial in p on each residue class of p modulo
2*gcd(parts): |A| and the marking multiplier are polynomials there, and the
Burnside correction only asks which divisors of gcd(parts) divide p-1.  This
module gets each class's polynomial by running the count core,
``counting._count``, on the inputs ``counting._values`` builds over Q[p],
and checks every displayed sample at or above the floor against
``count_types_rank2``; it derives no count input itself.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .counting import _count, _values, count_types_rank2
from .exact import RationalPolynomial, is_prime
from .partitions import PartitionType, admissible_partitions, check_integer


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


def _branches(part: PartitionType, mod: int) -> dict:
    """Residue class c -> T(p) for p = c mod ``mod`` (``default_modulus``)
    at or above the fit floor, one per unit class: ``counting._count`` over
    Q[p], its inputs from ``counting._values`` at the least integer at or
    above the floor in class c."""
    floor, p = fit_floor(part), RationalPolynomial._of((0, 1))
    return {c: _count(part, p, _values(p, part.parts, (part.n,), 2, floor + (c - floor) % mod)).T
            for c in range(mod) if math.gcd(c, mod) == 1}


def table_rows(R: int) -> list:
    """Rank-2 partition rows of the R-section of the table: the partitions
    admissible for every p >= R - 1 (there n <= p + 1 never binds), in
    (part count, ascending lex) order, listed at the least such prime (or 5)."""
    check_integer("R", R)  # before R - 1 seeds the prime search
    return admissible_partitions(_primes_in_class(0, 1, 1, R - 1)[0], 2, R)


class TableRow(NamedTuple):
    partition: PartitionType
    fit: StratifiedPolynomial
    samples: tuple  # ((p, T), ...)


def build_table(R: int, primes=None) -> list:
    """Every row of the R-section, each with one polynomial per unit class
    mod ``default_modulus``.  ``primes`` selects the sample values displayed
    (each distinct supplied prime with p >= n-1; else the first four primes
    p >= max(5, n-1)), and every sample at or above the row's fit floor must
    agree with its branch: a mismatch raises ``PolynomialFitError`` naming
    the row and the prime.  A supplied value that is not an odd prime
    raises ``PolynomialFitError`` naming it, whether or not a row shows it."""
    supplied = tuple(primes or ())
    for q in supplied:  # before set() would merge 7.0 into 7, or sorted() fail on a str
        if type(q) is not int or q == 2 or not is_prime(q):
            raise PolynomialFitError(f"supplied value {q!r} is not an odd prime")
    supplied = sorted(set(supplied))
    rows = []
    for part in table_rows(R):
        mod = default_modulus(part)
        fit = StratifiedPolynomial(part, mod, _branches(part, mod))
        shown = [q for q in supplied if q >= part.n - 1]
        samples = tuple((q, count_types_rank2(part, q).T)
                        for q in shown or _primes_in_class(0, 1, 4, part.n - 1))
        for q, t in samples:
            if q >= fit.min_prime and fit(q) != t:
                raise PolynomialFitError(
                    f"{part}: supplied prime {q} gives {t}, the fit gives {fit(q)}"
                )
        rows.append(TableRow(part, fit, samples))
    return rows
