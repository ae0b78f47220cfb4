import csv
import io
import json
import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topotype.counting import count_types_rank2
from topotype.exact import is_prime
from topotype.partitions import PartitionType
from topotype.tables import (
    PolynomialFitError,
    build_table,
    default_degree_bound,
    default_modulus,
    fit_floor,
    fit_partition_polynomial,
    render_table,
    table_rows,
)


@lru_cache(maxsize=None)
def _fit(part):
    return fit_partition_polynomial(part)


def test_default_degree_bound():
    assert default_degree_bound(PartitionType((2, 2))) == 1
    assert default_degree_bound(PartitionType((4, 2))) == 3
    assert default_degree_bound(PartitionType((3, 3))) == 3
    assert default_degree_bound(PartitionType((1,) * 6)) == 6
    assert default_degree_bound(PartitionType((2, 1, 1, 1, 1))) == 5


def test_default_modulus():
    assert default_modulus(PartitionType((2, 2))) == 4
    assert default_modulus(PartitionType((3, 3))) == 6
    assert default_modulus(PartitionType((1, 1, 1, 1))) == 2
    assert default_modulus(PartitionType((4, 2))) == 4


def test_fit_floor():
    assert fit_floor(PartitionType((1, 1, 1))) == 3
    assert fit_floor(PartitionType((5, 2))) == 6
    assert fit_floor(PartitionType((1,) * 9)) == 8
    assert fit_floor(PartitionType((2, 1, 1, 1, 1))) == 4


def test_fit_raises_below_min_prime():
    part = PartitionType((5, 2))
    fit = fit_partition_polynomial(part)
    assert fit.min_prime == 6
    with pytest.raises(ValueError, match="min_prime = 6"):
        fit(5)
    with pytest.raises(ValueError, match="min_prime = 6"):
        fit.branch_for(5)
    assert fit(7) == count_types_rank2(part, 7).T


def test_fit_rejects_primes_below_floor():
    with pytest.raises(PolynomialFitError, match="fit floor 6"):
        fit_partition_polynomial(PartitionType((5, 2)), primes=[5, 7, 11, 13, 17, 19, 23])


def test_fit_explicit_primes_must_cover_every_class():
    # {2,2} branches mod 4; primes only in class 3 leave class 1 empty
    with pytest.raises(PolynomialFitError, match="class 1 mod 4: 0 primes"):
        fit_partition_polynomial(PartitionType((2, 2)), primes=[7, 11, 19])


def test_fit_linear_row():
    fit = fit_partition_polynomial(PartitionType((2, 2)), modulus=1)
    assert list(fit.branches) == [0]
    assert fit.branches[0].coeffs == (Fraction(-1, 2), Fraction(1, 2))
    assert fit(11) == 5


def test_fit_constant_row():
    fit = fit_partition_polynomial(PartitionType((1, 1, 1)), modulus=1)
    assert fit.branches[0].coeffs == (Fraction(1),)


def test_fit_branching_row():
    # the {3,3} count genuinely depends on p mod 3
    fit = fit_partition_polynomial(PartitionType((3, 3)), modulus=3)
    assert sorted(fit.branches) == [1, 2]
    assert fit.branches[2].coeffs == (
        Fraction(-1, 36), Fraction(-1, 36), Fraction(1, 36), Fraction(1, 36))
    assert fit.branches[1].coeffs == (
        Fraction(-1, 4), Fraction(7, 36), Fraction(1, 36), Fraction(1, 36))
    assert fit(5) == 4
    assert fit(7) == 12


def test_fit_verifies_on_fresh_prime():
    fit = fit_partition_polynomial(PartitionType((2, 1, 1)))
    assert fit(31) == count_types_rank2(PartitionType((2, 1, 1)), 31).T
    assert fit(101) == count_types_rank2(PartitionType((2, 1, 1)), 101).T


def test_fit_insufficient_primes_names_class():
    with pytest.raises(PolynomialFitError, match=r"class 0 mod 1"):
        fit_partition_polynomial(PartitionType((4, 2)), modulus=1, primes=[5, 7, 11])


def test_fit_rejects_bad_primes():
    with pytest.raises(PolynomialFitError, match="not prime"):
        fit_partition_polynomial(PartitionType((2, 2)), modulus=1, primes=[5, 7, 9, 11, 13])
    with pytest.raises(PolynomialFitError, match="exceed 3"):
        fit_partition_polynomial(PartitionType((2, 2)), modulus=1, primes=[3, 5, 7, 11, 13])


def test_fit_detects_wrong_degree():
    with pytest.raises(PolynomialFitError, match="not polynomial"):
        fit_partition_polynomial(
            PartitionType((4, 2)), degree_bound=2, modulus=1,
            primes=[5, 7, 11, 13, 17, 19])


def test_table_rows():
    assert table_rows(3) == [PartitionType((1, 1, 1))]
    assert table_rows(4) == [
        PartitionType((2, 2)),
        PartitionType((2, 1, 1)),
        PartitionType((1, 1, 1, 1)),
    ]
    got = [part.parts for part in table_rows(6)]
    assert got == [
        (3, 3), (4, 2),
        (2, 2, 2), (3, 2, 1), (4, 1, 1),
        (2, 2, 1, 1), (3, 1, 1, 1),
        (2, 1, 1, 1, 1),
        (1, 1, 1, 1, 1, 1),
    ]
    with pytest.raises(ValueError):
        table_rows(2)


def test_build_table_uses_supplied_primes_for_samples():
    rows = build_table(4, primes=[5, 7, 11, 13])
    assert [row.partition.parts for row in rows] == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]
    for row in rows:
        assert [q for q, _ in row.samples] == [5, 7, 11, 13]
        for q, t in row.samples:
            assert t == count_types_rank2(row.partition, q).T


def test_build_table_extends_fit_pool_when_needed():
    # six primes cannot pin down the degree-6 row; the fit pool grows
    # automatically while the displayed samples stay as supplied
    rows = build_table(6, primes=[5, 7, 11, 13, 17, 19])
    last = rows[-1]
    assert last.partition == PartitionType((1,) * 6)
    assert max(poly.degree for poly in last.fit.branches.values()) == 6
    assert [q for q, _ in last.samples] == [5, 7, 11, 13, 17, 19]


def test_build_table_fits_only_above_floor():
    # 5 and 7 lie at or below the largest part of some rows: they are shown
    # as samples wherever n <= p + 1 but never used to fit those rows
    primes = [5, 7, 11, 13, 17, 19]
    rows = build_table(9, primes=primes)
    auto = build_table(9)
    assert [row.partition for row in rows] == [row.partition for row in auto]
    for row, ref in zip(rows, auto):
        assert [q for q, _ in row.samples] == [q for q in primes if q >= row.partition.n - 1]
        assert row.fit == ref.fit


def test_build_table_without_usable_primes_still_fits():
    # no supplied prime reaches the fit floor of {1^7}: auto samples, full fit
    last = build_table(7, primes=[5])[-1]
    assert last.partition == PartitionType((1,) * 7)
    assert sorted(last.fit.branches) == [1]
    assert [q for q, _ in last.samples] == [7, 11, 13, 17]


@pytest.mark.parametrize("R", range(3, 11))
def test_fits_equal_closed_form_above_floor(R):
    for part in table_rows(R):
        fit = _fit(part)
        assert fit.modulus == 2 * math.gcd(*part.parts)
        for q in range(fit.min_prime, 301):
            if is_prime(q):
                assert fit(q) == count_types_rank2(part, q).T, (part, q)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fits_reproduce_counts_at_random_large_primes(data):
    R = data.draw(st.integers(3, 10))
    part = data.draw(st.sampled_from(table_rows(R)))
    fit = _fit(part)
    q = data.draw(st.integers(fit.min_prime, 10**4))
    while not is_prime(q):
        q += 1
    assert fit(q) == count_types_rank2(part, q).T


def test_render_table_plain():
    text = render_table(3)
    assert text.startswith("R = 3")
    assert "{1,1,1}" in text
    assert "1" in text.splitlines()[1]


def test_render_table_csv_parses():
    text = render_table(4, fmt="csv")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["partition", "modulus", "class", "coefficients", "samples"]
    assert len(rows) > 3
    for row in rows[1:]:
        for c in row[3].split():
            Fraction(c)  # every coefficient is an exact rational


def test_render_table_json_roundtrip():
    text = render_table(4, fmt="json")
    obj = json.loads(text)
    assert json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n" == text
    parts = {tuple(r["partition"]) for r in obj["rows"]}
    assert ("2", "2") in parts


def test_render_table_rejects_unknown_format():
    with pytest.raises(ValueError):
        render_table(4, fmt="tsv")
