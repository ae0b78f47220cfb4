"""Exact integer and rational arithmetic helpers.

Everything in this module is exact: integers are arbitrary precision and
rationals are ``fractions.Fraction``.  ``RationalPolynomial`` computes,
evaluates and renders in integer numerators over one common denominator,
making a ``Fraction`` only for a value or a coefficient it hands out.
``binomial`` and ``multichoose`` take the top argument as an int or as a
``RationalPolynomial``, so one expression gives a count at a prime and as a
polynomial in p.  No floating point anywhere.
"""

from __future__ import annotations

import functools
import itertools
import math


def binomial(n, k: int):
    """Binomial coefficient with the 0-for-out-of-range convention.

    Returns 0 when k < 0 or k > n, so degenerate cases of the counting
    formulas can be written uniformly.  For n a ``RationalPolynomial`` it is
    the polynomial n(n-1)...(n-k+1)/k! (0 for k < 0).
    """
    if isinstance(n, RationalPolynomial):
        return _falling_over_factorial(n, k) if k >= 0 else 0
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


@functools.lru_cache(maxsize=None)  # immutable values; a table's rows and classes share most
def _falling_over_factorial(n: RationalPolynomial, k: int) -> RationalPolynomial:
    return exact_div(math.prod(n - i for i in range(k)), math.factorial(k))


def multichoose(N: int, M):
    """Number of N-element multisets drawn from an M-element set (M an int
    or a ``RationalPolynomial``)."""
    return binomial(M + (N - 1), N)


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


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least strong pseudoprime to every base in _BASES (Sorenson and
# Webster, 2015): below it, Miller-Rabin with those bases is exact.
_BASES_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality test: an n up to 41 is prime when it is one of the
    prime bases, and a larger n takes Miller-Rabin with those bases, exact
    below ``_BASES_EXACT_BELOW``.  From there a witness still proves n
    composite, but a pass raises ValueError."""
    if n <= 41:
        return n in _BASES
    if (probable := _strong_probable_prime(n)) and n >= _BASES_EXACT_BELOW:
        raise ValueError(f"cannot decide whether {n} is prime: it passes the strong test to "
                         f"every prime base up to 41, exact only below {_BASES_EXACT_BELOW}")
    return probable


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
    """Division of ints, or of ``RationalPolynomial``s, that must be exact;
    inexactness is an internal bug."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"inexact division: {a} / {b}")
    return q


class RationalPolynomial:
    """Dense univariate polynomial with exact rational coefficients, kept as
    integer numerators ``nums`` (index = degree) over one common denominator
    ``den > 0``, in lowest terms.  It is a ring (+, -, *, with ints as
    constants) with ``divmod`` by long division and a truth value, so
    ``exact_div`` divides polynomials as it divides ints."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs):
        from fractions import Fraction

        cs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        self.nums, self.den = _lowest([c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def _of(cls, nums, den: int = 1) -> RationalPolynomial:
        """sum_k nums[k] x^k / den, for integer nums and a nonzero integer den."""
        poly = object.__new__(cls)
        poly.nums, poly.den = _lowest(list(nums), den)
        return poly

    @property
    def coeffs(self) -> tuple:
        """The coefficients as ``Fraction``s, index = degree."""
        from fractions import Fraction

        return tuple(Fraction(c, self.den) for c in self.nums)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self):
        return f"RationalPolynomial(coeffs={self.coeffs!r})"

    def __bool__(self):
        return bool(self.nums)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial conventionally at -1."""
        return len(self.nums) - 1

    def __add__(self, other):
        if isinstance(other, int):  # shifts the constant numerator; stays in lowest terms
            return self._of([self.nums[0] + other * self.den if self.nums else other,
                             *self.nums[1:]], self.den)
        if (other := _as_polynomial(other)) is None:
            return NotImplemented
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return self._of([x * a + y * b for x, y in
                         itertools.zip_longest(self.nums, other.nums, fillvalue=0)], den)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, int):
            return self._of([c * other for c in self.nums], self.den)
        if (other := _as_polynomial(other)) is None:
            return NotImplemented
        out = [0] * max(0, len(self.nums) + len(other.nums) - 1)
        for i, x in enumerate(self.nums):
            for j, y in enumerate(other.nums):
                out[i + j] += x * y
        return self._of(out, self.den * other.den)

    __rmul__ = __mul__

    def __divmod__(self, other):
        """(q, r) with self = q * other + r and deg r < deg other, by
        pseudo-division of the numerators: lead^e * self.nums = q' *
        other.nums + r' in integers, lead being other's leading numerator."""
        if isinstance(other, int) and other:  # exact: scales the denominator
            return self._of(self.nums, self.den * other), 0
        if (other := _as_polynomial(other)) is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        m, lead = other.degree, other.nums[-1]
        e = max(0, len(self.nums) - m)
        rem = [c * lead**e for c in self.nums]
        quo = [0] * e
        for i in reversed(range(e)):
            q = quo[i] = rem[i + m] // lead
            for j, c in enumerate(other.nums):
                rem[i + j] -= q * c
        scale = lead**e * self.den
        return self._of([q * other.den for q in quo], scale), self._of(rem[:m], scale)

    def __call__(self, x) -> Fraction:
        """Horner's rule on the integer numerators, then one division by den."""
        from fractions import Fraction

        acc = 0
        for c in reversed(self.nums):
            acc = acc * x + c
        return Fraction(acc, self.den)

    def pretty(self) -> str:
        """Render as an integer-coefficient polynomial in p over a common denominator."""
        text = ""
        for power, c in reversed(list(enumerate(self.nums))):
            if c:
                body = (str(abs(c)) if power == 0 else ("" if abs(c) == 1 else f"{abs(c)}*")
                        + "p" + (f"^{power}" if power > 1 else ""))
                text += (f" {'-' if c < 0 else '+'} " if text else "-" if c < 0 else "") + body
        text = text or "0"
        return f"({text})/{self.den}" if self.den > 1 else text


def _lowest(nums: list, den: int) -> tuple:
    """(nums, den) with trailing zeros dropped, divided by their common
    gcd and signed so that den > 0."""
    while nums and not nums[-1]:
        nums.pop()
    if den == 1:
        return tuple(nums), 1
    g = math.gcd(den, *nums) * (1 if den > 0 else -1)
    return (tuple(nums), den) if g == 1 else (tuple(c // g for c in nums), den // g)


def _as_polynomial(x):
    """x as a RationalPolynomial (an int as a constant), else None."""
    return x if isinstance(x, RationalPolynomial) else (
        RationalPolynomial._of((x,)) if isinstance(x, int) else None)
