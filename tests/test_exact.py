from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topotype.crosscheck import gaussian_binomial
from topotype.exact import (
    RationalPolynomial,
    binomial,
    divisors_greater_than_one,
    euler_phi,
    exact_div,
    interpolate,
    is_prime,
    multichoose,
)


def test_binomial_values():
    assert binomial(5, 2) == 10
    assert binomial(0, 0) == 1
    for n in range(10):
        assert binomial(n, 0) == 1
    assert binomial(4, 7) == 0
    assert binomial(4, -1) == 0


def test_multichoose_values():
    for M in range(1, 8):
        assert multichoose(0, M) == 1
    assert multichoose(2, 4) == 10
    assert multichoose(7, 5) == 330


def test_multichoose_binomial_identity():
    for N in range(0, 41):
        for M in range(1, 41):
            assert multichoose(N, M) == binomial(N + M - 1, N)


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(2) == 1
    assert euler_phi(12) == 4
    # sum of phi(d) over divisors d of n equals n
    for n in range(1, 60):
        divs = [1] + divisors_greater_than_one(n)
        assert sum(euler_phi(d) for d in divs) == n


def test_divisors_greater_than_one():
    assert divisors_greater_than_one(1) == []
    assert divisors_greater_than_one(4) == [2, 4]
    assert divisors_greater_than_one(12) == [2, 3, 4, 6, 12]


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(0, 25):
        assert is_prime(n) == (n in primes)


def test_exact_div():
    assert exact_div(12, 4) == 3
    with pytest.raises(ArithmeticError):
        exact_div(13, 4)


def test_gaussian_binomial_small():
    assert gaussian_binomial(2, 2).coeffs == (1, 1, 2, 1, 1)
    for m in range(5):
        assert gaussian_binomial(m, 0).coeffs == (1,)
        assert gaussian_binomial(0, m).coeffs == (1,)


def _bounded_partitions(total, max_parts, max_size):
    """Count partitions of ``total`` into at most max_parts parts, each at
    most max_size (plain recursive enumeration)."""
    def rec(remaining, parts_left, cap):
        if remaining == 0:
            return 1
        if parts_left == 0:
            return 0
        return sum(rec(remaining - first, parts_left - 1, first)
                   for first in range(1, min(cap, remaining) + 1))
    return rec(total, max_parts, max_size)


def test_gaussian_coefficients_count_bounded_partitions():
    for m in range(7):
        for n in range(7):
            g = gaussian_binomial(m, n)
            for ell, coeff in enumerate(g.coeffs):
                assert coeff == _bounded_partitions(ell, m, n)


def test_gaussian_palindrome_and_specialization():
    for m in range(9):
        for n in range(9):
            g = gaussian_binomial(m, n)
            assert g.coeffs == tuple(reversed(g.coeffs))
            assert sum(g.coeffs) == binomial(m + n, m)
            assert g(1) == binomial(m + n, m)


def test_interpolate_constant():
    poly = interpolate([(0, 1), (1, 1)])
    assert poly.coeffs == (Fraction(1),)


def test_interpolate_linear_from_prime_samples():
    poly = interpolate([(5, 2), (7, 3), (11, 5), (13, 6)])
    assert poly.coeffs == (Fraction(-1, 2), Fraction(1, 2))  # (p-1)/2


def test_interpolate_quadratic():
    pts = [(p, (p - 2) * (p - 3)) for p in (5, 7, 11)]
    poly = interpolate(pts)
    assert poly.coeffs == (Fraction(6), Fraction(-5), Fraction(1))


def test_interpolate_is_exact():
    pts = [(x, Fraction(3 * x**3 - 7, 6)) for x in (-2, 1, 4, 9, 12)]
    poly = interpolate(pts)
    for x, y in pts:
        assert poly(x) == y


def test_interpolate_rejects_duplicate_abscissa():
    with pytest.raises(ValueError):
        interpolate([(3, 1), (3, 2)])


def test_polynomial_evaluation_and_pretty():
    poly = RationalPolynomial((Fraction(-1, 2), Fraction(1, 2)))
    assert poly(7) == 3
    assert poly.degree == 1
    assert poly.pretty() == "(p - 1)/2"
    assert RationalPolynomial(()).pretty() == "0"
    cubic = RationalPolynomial((Fraction(-1, 36), Fraction(-1, 36), Fraction(1, 36), Fraction(1, 36)))
    assert cubic.pretty() == "(p^3 + p^2 - p - 1)/36"


def _lagrange_reference(points):
    """Textbook Lagrange in Fractions: sum_i y_i * prod_{j != i} (x - x_j) / (x_i - x_j)."""
    xs = [Fraction(x) for x, _ in points]
    coeffs = [Fraction(0)] * len(points)
    for i, (_, y) in enumerate(points):
        basis = [Fraction(y)]
        for j, xj in enumerate(xs):
            if j != i:
                shifted = [Fraction(0)] + basis  # basis * x
                basis = [(s - xj * b) / (xs[i] - xj) for s, b in zip(shifted, basis + [Fraction(0)])]
        for k, c in enumerate(basis):
            coeffs[k] += c
    return coeffs


_abscissa = st.one_of(
    st.integers(-40, 40),
    st.fractions(min_value=-40, max_value=40, max_denominator=12),
)
_ordinate = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**3)


@settings(max_examples=100, deadline=None)
@given(st.lists(_abscissa, max_size=12, unique_by=Fraction), st.data())
def test_interpolate_matches_reference_lagrange(xs, data):
    points = [(x, data.draw(_ordinate)) for x in xs]
    expected = RationalPolynomial(tuple(_lagrange_reference(points)))
    assert interpolate(points) == expected


def test_interpolate_rejects_equal_abscissae_of_different_types():
    with pytest.raises(ValueError, match="duplicate abscissa"):
        interpolate([(3, 1), (Fraction(6, 2), 2)])


def test_interpolate_empty_is_zero():
    assert interpolate([]).coeffs == ()


@pytest.mark.parametrize("coeffs, text", [
    ((0, -1), "-p"),
    ((5, 0, -2), "-2*p^2 + 5"),
    ((-1, 1, -1), "-p^2 + p - 1"),
    ((1, 1), "p + 1"),
    ((-1, -1), "-p - 1"),
    ((0, 0, 1), "p^2"),
    ((3, -1, 2), "2*p^2 - p + 3"),
    ((Fraction(3, 4),), "(3)/4"),
    ((Fraction(-3, 4),), "(-3)/4"),
    ((-7,), "-7"),
    ((0, Fraction(-1, 3), Fraction(1, 6)), "(p^2 - 2*p)/6"),
])
def test_pretty_signs_unit_coefficients_and_denominators(coeffs, text):
    # a leading minus has no space, a coefficient of +-1 prints no "1*",
    # zero terms are skipped, and "/den" appears only when den > 1
    assert RationalPolynomial(coeffs).pretty() == text


@settings(max_examples=200, deadline=None)
@given(st.lists(_ordinate, max_size=10), _abscissa)
def test_polynomial_value_is_the_sum_of_its_terms(coeffs, x):
    # integer and fractional x; the value is exact and a Fraction
    value = RationalPolynomial(coeffs)(x)
    assert isinstance(value, Fraction)
    assert value == sum(Fraction(c) * Fraction(x) ** k for k, c in enumerate(coeffs))
