"""Exact integer and rational arithmetic helpers.

Everything in this module is exact: integers are arbitrary precision and
rationals are ``fractions.Fraction``.  Interpolation, evaluation and
rendering run in integers over one common denominator; interpolation makes
a ``Fraction`` only for each final coefficient.  No floating point
anywhere.
"""

from __future__ import annotations

import math


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with the 0-for-out-of-range convention.

    Returns 0 when k < 0 or k > n, so degenerate cases of the counting
    formulas can be written uniformly.
    """
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def multichoose(N: int, M: int) -> int:
    """Number of N-element multisets drawn from an M-element set."""
    return binomial(N + M - 1, N)


def euler_phi(d: int) -> int:
    """Euler totient of a positive integer."""
    if d < 1:
        raise ValueError("euler_phi requires a positive integer")
    result = d
    m = d
    q = 2
    while q * q <= m:
        if m % q == 0:
            while m % q == 0:
                m //= q
            result -= result // q
        q += 1
    if m > 1:
        result -= result // m
    return result


def divisors_greater_than_one(d: int) -> list[int]:
    """All divisors d' of d with d' > 1, ascending."""
    if d < 1:
        raise ValueError("need a positive integer")
    small, large = [], []
    q = 1
    while q * q <= d:
        if d % q == 0:
            small.append(q)
            if q != d // q:
                large.append(d // q)
        q += 1
    return [x for x in small + large[::-1] if x > 1]


# Below this, trial division (at most 500 odd divisors) beats Miller-Rabin's
# 13 modular powers: 1.7 us against 10.5 us at n = 4283, the largest prime
# ``table``'s search reaches, but 31.7 us against 17.0 us at n = 10^6 + 3
# (2-core Xeon, Python 3.11).
MILLER_RABIN_FROM = 10**6
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least strong pseudoprime to every base in _BASES (Sorenson and
# Webster, 2015): below it, Miller-Rabin with those bases is exact.
_BASES_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality test: deterministic Miller-Rabin with the prime bases
    up to 41 for ``MILLER_RABIN_FROM <= n < _BASES_EXACT_BELOW``, where that
    base set has no strong pseudoprime; trial division elsewhere."""
    if MILLER_RABIN_FROM <= n < _BASES_EXACT_BELOW:
        return _strong_probable_prime(n)
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    q = 3
    while q * q <= n:
        if n % q == 0:
            return False
        q += 2
    return True


def _strong_probable_prime(n: int) -> bool:
    """Whether n is a strong probable prime to every base in _BASES; n must
    exceed 41, the largest base."""
    if n % 2 == 0:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def exact_div(a: int, b: int) -> int:
    """Integer division that must be exact; inexactness is an internal bug."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"inexact division: {a} / {b}")
    return q


class RationalPolynomial:
    """Dense univariate polynomial, exact rational coefficients, index = degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        from fractions import Fraction

        cs = tuple(Fraction(c) for c in coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        self.coeffs = cs

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"RationalPolynomial(coeffs={self.coeffs!r})"

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial conventionally at -1."""
        return len(self.coeffs) - 1

    def _over_lcm(self) -> tuple:
        """(den, ints) with den the lcm of the coefficients' denominators and
        ints[k] = coeffs[k] * den: the polynomial is sum_k ints[k] x^k / den."""
        den = math.lcm(*(c.denominator for c in self.coeffs))
        return den, [c.numerator * (den // c.denominator) for c in self.coeffs]

    def __call__(self, x) -> Fraction:
        """Horner's rule on the integer numerators, then one division by den."""
        from fractions import Fraction

        den, ints = self._over_lcm()
        acc = 0
        for c in reversed(ints):
            acc = acc * x + c
        return Fraction(acc, den)

    def pretty(self) -> str:
        """Render as an integer-coefficient polynomial in p over a common denominator."""
        den, ints = self._over_lcm()
        text = ""
        for power, c in reversed(list(enumerate(ints))):
            if c:
                body = (str(abs(c)) if power == 0 else ("" if abs(c) == 1 else f"{abs(c)}*")
                        + "p" + (f"^{power}" if power > 1 else ""))
                text += (f" {'-' if c < 0 else '+'} " if text else "-" if c < 0 else "") + body
        text = text or "0"
        return f"({text})/{den}" if den > 1 else text


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
