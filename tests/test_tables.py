import contextlib
import csv
import hashlib
import io
import json
import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topotype.cli import main
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
    table_rows,
)


@lru_cache(maxsize=None)
def _fit(part):
    return fit_partition_polynomial(part)


def table_stdout(R, fmt="plain"):
    """Stdout of ``topotype table --R R --format fmt``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["table", "--R", str(R), "--format", fmt]) == 0
    return out.getvalue()


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


def test_fits_read_min_prime_from_fit_floor_and_compare_by_value():
    rows = build_table(8)
    for row in rows:
        fit = row.fit
        assert fit.min_prime == fit_floor(fit.partition)
        assert fit == fit_partition_polynomial(fit.partition)
    for row, other in zip(rows, rows[1:]):
        assert row.fit != other.fit


def test_fit_rejects_non_unit_class():
    # 6 is above the floor of {2,2} but 6 % 4 = 2 is no unit class mod 4
    fit = fit_partition_polynomial(PartitionType((2, 2)))
    with pytest.raises(ValueError, match=r"p = 6 is not a unit mod 4"):
        fit(6)


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


@pytest.mark.parametrize("option,value", [("degree_bound", -1), ("degree_bound", -2),
                                          ("modulus", 0), ("modulus", -4)])
def test_fit_rejects_options_out_of_range(option, value):
    # a negative degree bound interpolates through no point, and a modulus
    # below 1 has no residue classes, so neither gives a fit to check
    with pytest.raises(PolynomialFitError, match=f"{option} must be at least"):
        fit_partition_polynomial(PartitionType((2, 2)), **{option: value})


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
    # a repeated prime is shown once
    for row in build_table(4, primes=[5, 5, 7]):
        assert [q for q, _ in row.samples] == [5, 7]


def test_build_table_checks_supplied_primes_against_the_fit(monkeypatch):
    # a count off by one at a supplied prime above the floor must not be
    # shown next to a polynomial that disagrees with it
    def off_at_29(part, p):
        report = count_types_rank2(part, p)
        return report._replace(T=report.T + (p == 29))

    monkeypatch.setattr("topotype.tables.count_types_rank2", off_at_29)
    with pytest.raises(PolynomialFitError, match=r"\{2,2\}: supplied prime 29 gives 15"):
        build_table(4, primes=[5, 7, 11, 13, 17, 19, 23, 29])
    assert len(build_table(4, primes=[5, 7, 11, 13, 17, 19, 23])) == 3


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
    text = table_stdout(3)
    assert text.startswith("R = 3")
    assert "{1,1,1}" in text
    assert "1" in text.splitlines()[1]


def test_render_table_csv_parses():
    text = table_stdout(4, fmt="csv")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["partition", "modulus", "class", "coefficients", "samples"]
    assert len(rows) > 3
    for row in rows[1:]:
        for c in row[3].split():
            Fraction(c)  # every coefficient is an exact rational


def test_render_table_json_roundtrip():
    text = table_stdout(4, fmt="json")
    obj = json.loads(text)
    assert json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n" == text
    parts = {tuple(r["partition"]) for r in obj["rows"]}
    assert ("2", "2") in parts


def test_render_table_rejects_unknown_format(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--R", "4", "--format", "tsv"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


# sha256 of the table's stdout in each format, recorded before interpolation
# moved to integer arithmetic: the table output must not change by one byte.
TABLE_DIGESTS = {
    3: {
        "plain": "bb949c2a7818da71f10054d4f85efe7dcaaa4b841fe6e5bbe460ae1ec5603254",
        "json": "aa6e7d5a20b71d8a9498de791baffbea66eb3cdb9202ad40a12765dc50198855",
        "csv": "bbbe3feac98ffbedf50fd056b69060dee32c03dabe1ecc03c7fd3a7752536956",
    },
    4: {
        "plain": "2358a6ebf680afc69c5ed26ebaf399f23d78bb881358768d592681a5fa3f8937",
        "json": "0c17c51f0f2b96959e5056ce4db93341db1f7d461899c2d1bf1a0d7f4d20d7b4",
        "csv": "a8004dd5aa8e16c59468a8e32287087ad49ea7db78106520c0e791a38a1dfd21",
    },
    5: {
        "plain": "a8436b347121a2f56f5eb89184cd7c7c5991c5147a66ac9c75465624f0542e50",
        "json": "7431e0ce596f7bdcbb99bd18793fd239cf315834db2d7e12d694f68555022a54",
        "csv": "3960b91f8b17a934136af89c5069a22b0df943dc072e186f115cff14a56db074",
    },
    6: {
        "plain": "8380b91f5247f693d934fd77c256641850523ee13994bc5f449a9577b39f7e51",
        "json": "2dac904aca07e8adbfda4e3223172ba4315dbdbb808d0daa8d2a18a7333a8aa7",
        "csv": "1bb4c5b56347238558df179d8f881962fac3dcb07fce5669f82b900b085e5b35",
    },
    7: {
        "plain": "7aef08e8eeef680b84d1bc87c02b30790cbe89e2b711ad0c3f83f3fd3ad261cd",
        "json": "63b6a7b117559bef1b8f84b30cc45486d1b89f9a926eafc4a3ea2cc92a2e0fc9",
        "csv": "aa49037a094cfc26e205fefd4613ddf7648f11b07d4c6827715296393589eb63",
    },
    8: {
        "plain": "3d6ba7ca558070136747dca3588fd8a9d75320e6a3babe404979423689205fa4",
        "json": "36250ef0aaf82876d460f6ecf5f2724d2e66d62356402548108077211753bd5e",
        "csv": "f20b5e14a60f5909eb0057a72e6e481ac180f889aaf40f04d42790dcc0918351",
    },
    9: {
        "plain": "4741d700021f6e947c086b88a80e458f8e48a00d25bba2186198eeeb74a32976",
        "json": "5b5380b3cdae5941531a64eaead93e4e6facc7e7ff2cbfcd34c17e4dd523145d",
        "csv": "0a0ecb88eb0e0374cd613a2c1c56c0fa402d505f1fb7354d9699731f2af2734e",
    },
    10: {
        "plain": "bd19820fc21242a82bf06e82e21c717a6a874d3d2e3b0a139e26f436166d1ff0",
        "json": "c3f6acb903b3c44b6bcf1efab7646c5a3793b33d3906c89407d8789aa88c7b4c",
        "csv": "47e57cc6b5c9314307bfc1d231d58edf20dab5930a399220e2689b772b30ac3f",
    },
    11: {
        "plain": "f4742af13b559a962a2afc336cfa25f190b57639004d3d68c11fc41dfeec546e",
        "json": "0396a912aff79ec3901c40fd1d79bda5324c8b6b94c598608d4cb5acecf28a14",
        "csv": "dff2dc3c25474bbc3af6bfa31075ade8818d50a3033943a89260b5f6fb993d22",
    },
    12: {
        "plain": "f22d975dce006239ab6a8f462aa08e2ca41e58304764d1ecbefe33ccdaf208ec",
        "json": "30c7cf08e42a1da3d9256d7aba50425ec6107fed80127562ada3f2af0d674e08",
        "csv": "acaea4953a40ef04c576e59f784fec26ef26b8faf15e087574ebaa9e6102ce2b",
    },
}


@pytest.mark.parametrize("R", sorted(TABLE_DIGESTS))
def test_render_table_bytes_are_pinned(R):
    for fmt, digest in TABLE_DIGESTS[R].items():
        assert hashlib.sha256(table_stdout(R, fmt).encode()).hexdigest() == digest, fmt


def test_table_counts_each_sample_once(monkeypatch):
    # a displayed sample the row's fit has already computed is reused: 296
    # distinct (partition, p) on table --R 9, each computed once
    import topotype.tables as tables

    calls = []

    def counted(part, p):
        calls.append((part, p))
        return count_types_rank2(part, p)

    monkeypatch.setattr(tables, "count_types_rank2", counted)
    assert hashlib.sha256(table_stdout(9).encode()).hexdigest() == TABLE_DIGESTS[9]["plain"]
    assert len(calls) == len(set(calls)) == 296


def test_fits_reach_R14_and_hold_above_ten_thousand():
    # fresh fits (each with its held-out checks) for every row of R = 11..14
    far = (10007, 10009, 10037)
    assert all(is_prime(q) for q in far)
    for R in range(11, 15):
        for part in table_rows(R):
            fit = fit_partition_polynomial(part)
            for q in far:
                assert fit(q) == count_types_rank2(part, q).T, (part, q)
