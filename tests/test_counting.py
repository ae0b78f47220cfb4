import itertools
import math
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from topotype import crosscheck, exact
from topotype.counting import (
    _values,
    card_A,
    count_types_rank1,
    count_types_rank2,
    total_types,
)
from topotype.crosscheck import (
    block_wz,
    card_A_base2,
    card_A_base3,
    card_A_shortcut,
    card_A_unitary,
    count_types_klein,
    klein_type_count,
    part_wz,
)
from topotype.partitions import PartitionType, admissible_partitions
from topotype.tables import default_modulus, fit_floor


def test_card_A_base2():
    assert card_A_base2(2, 2, 5) == 4
    assert card_A_base2(1, 1, 5) == 0
    assert card_A_base2(3, 2, 5) == 8
    assert card_A_base2(3, 3, 5) == 16
    assert card_A_base2(3, 2, 7) == 24


def test_card_A_base3():
    assert card_A_base3(1, 1, 1, 5) == 4
    assert card_A_base3(2, 1, 1, 5) == 8
    assert card_A_base3(2, 2, 2, 3) == 3
    assert card_A_base3(2, 2, 2, 5) == 40


def test_card_A_dispatches_to_bases():
    for p in (3, 5, 7):
        for parts in ((2, 2), (3, 2), (4, 2)):
            assert card_A(parts, p) == card_A_base2(parts[0], parts[1], p)
        for parts in ((1, 1, 1), (2, 1, 1), (2, 2, 2)):
            assert card_A(parts, p) == card_A_base3(*parts, p)


def test_card_A_recursion_values():
    # hand-verified by direct enumeration of the block matrices
    assert card_A((2, 1, 1, 1), 5) == 24
    assert card_A((1, 1, 2, 2), 5) == 64
    assert card_A((2, 1, 1, 1, 1), 5) == 104
    assert card_A((1, 1, 1, 1, 1), 5) == 44
    assert card_A((1, 1, 1, 1, 1, 1), 5) == 160


def test_card_A_closed_forms():
    for p in (5, 7, 11, 13):
        assert card_A((1, 1, 2, 2), p) == (p - 1) ** 4 // 4
        assert card_A((1, 1, 1, 1), p) == (p - 1) * (p - 3)
        assert card_A((1,) * 5, p) == (p - 1) * (p * p - 4 * p + 6)


def test_card_A_accepts_partition_type_and_sequences():
    part = PartitionType((2, 2, 1, 1))
    assert card_A(part, 5) == card_A((1, 2, 1, 2), 5) == 64


def test_card_A_rejects_bad_input():
    with pytest.raises(ValueError):
        card_A((3,), 5)
    with pytest.raises(ValueError):
        card_A((1,) * 7, 5)  # needs n <= p + 1


def test_card_A_order_independent_small():
    for p in (5, 7):
        for R in range(4, 8):
            for part in admissible_partitions(p, 2, R):
                if part.n < 4:
                    continue
                ref = card_A(part, p)
                for perm in set(itertools.permutations(part.parts)):
                    assert card_A(perm, p) == ref


def test_card_A_shortcut_matches_recursion():
    for p in (5, 7):
        for R in range(4, 9):
            for part in admissible_partitions(p, 2, R):
                eligible = sum(1 for P in part.parts if P % p not in (0, 1)) >= 2
                if eligible:
                    assert card_A_shortcut(part, p) == card_A(part, p)
    with pytest.raises(ValueError):
        card_A_shortcut((2, 1, 1), 5)


def test_card_A_unitary_matches_recursion():
    for p in (5, 7, 11, 13):
        for n in range(2, min(9, p + 1) + 1):
            assert card_A_unitary(n, p) == card_A((1,) * n, p)
    assert card_A_unitary(2, 5) == 0
    assert card_A_unitary(3, 5) == 4
    assert card_A_unitary(4, 5) == 8
    assert card_A_unitary(6, 5) == 160


def test_count_types_rank2_audit_fields():
    report = count_types_rank2(PartitionType((2, 2)), 5)
    assert report.card_A == 4
    assert report.burnside_terms == ((2, 4),)
    assert report.marking_multiplier == 1
    assert report.T == 2


def test_count_types_rank2_values():
    assert count_types_rank2(PartitionType((2, 1, 1)), 5).T == 2
    assert count_types_rank2(PartitionType((1, 1, 1, 1)), 5).T == 6
    assert count_types_rank2(PartitionType((3, 2)), 7).T == 4
    assert count_types_rank2(PartitionType((3, 3)), 5).T == 4
    assert count_types_rank2(PartitionType((3, 3)), 7).T == 12
    assert count_types_rank2(PartitionType((2, 2, 2)), 5).T == 12


def test_count_types_rank2_closed_form_family():
    for p in (5, 7, 11, 13):
        report = count_types_rank2(PartitionType((2, 2, 1, 1)), p)
        assert report.T == (p - 2) * (p - 1) ** 3 // 4


def test_count_types_rank2_report_identity():
    # T is exactly marking * (|A| + corrections) / (p - 1), always an integer
    for p in (5, 7):
        for R in range(3, 8):
            for part in admissible_partitions(p, 2, R):
                rep = count_types_rank2(part, p)
                corr = sum(c for _, c in rep.burnside_terms)
                assert rep.T * (p - 1) == rep.marking_multiplier * (rep.card_A + corr)
                assert rep.T >= 0


def test_count_types_rank2_rejects_bad_p():
    with pytest.raises(ValueError):
        count_types_rank2(PartitionType((2, 2)), 4)
    assert count_types_rank2(PartitionType((2, 2)), 2).T == klein_type_count((2, 2)) == 1


def test_count_types_rank1():
    assert count_types_rank1(4, 3).T == 1
    assert count_types_rank1(4, 5).T == 3
    assert count_types_rank1(7, 3).T == 1
    assert count_types_rank1(3, 7).T == 2
    # p = 2: parity rule
    for R in range(3, 12):
        assert count_types_rank1(R, 2).T == (1 if R % 2 == 0 else 0)


def test_klein_type_count():
    assert klein_type_count((1, 1, 1)) == 1
    assert klein_type_count((2, 1, 1)) == 0
    assert klein_type_count((2, 2, 2)) == 1
    assert klein_type_count((3, 2, 1)) == 0
    assert klein_type_count((2, 2)) == 1
    assert klein_type_count((3, 1)) == 0
    assert klein_type_count((4,)) == 0


def test_count_types_klein_sequence():
    got = [count_types_klein(R) for R in range(3, 11)]
    assert got == [1, 1, 1, 2, 2, 3, 3, 4]


def test_count_types_klein_matches_partitionwise_sum():
    for R in range(3, 15):
        partwise = sum(
            klein_type_count(part) for part in admissible_partitions(2, 2, R)
        )
        assert count_types_klein(R) == partwise


def test_total_types_breakdown():
    report = total_types(5, 2, 4)
    assert [r.T for r in report.reports] == [2, 2, 6]
    assert report.total == 10
    assert total_types(2, 2, 5).total == 1
    assert total_types(3, 1, 4).total == 1
    for R in range(3, 13):
        assert total_types(2, 2, R).total == count_types_klein(R)


def test_count_types_rank2_at_p2_is_the_klein_rule():
    # p = 2 runs through the general formula: W_P = [P even] and Z_P = [P odd],
    # with no Burnside terms and multiplier 1, give the Klein parity rule
    for R in range(3, 41):
        for part in admissible_partitions(2, 2, R):
            report = count_types_rank2(part, 2)
            assert report.card_A == report.T == klein_type_count(part), part
            assert report.burnside_terms == () and report.marking_multiplier == 1, part
        assert total_types(2, 2, R).total == count_types_klein(R), R
    for R in range(3, 13):
        for part in admissible_partitions(2, 2, R):
            for order in set(itertools.permutations(part.parts)):
                assert card_A(order, 2) == klein_type_count(part), order


@pytest.mark.parametrize("p", [3, 5, 7, 11, 101, 1000003])
def test_rank1_card_A_is_the_part_W(p):
    # rank 1 is the one-part case of the closed form: |A| = W_R
    for R in range(3, 21):
        assert total_types(p, 1, R).reports[0].card_A == part_wz(R, p).W, (p, R)


def test_rank1_card_A_at_p2_is_the_parity_of_R():
    # part_wz needs an odd prime; at p = 2, W_R = [R even]
    for R in range(3, 21):
        assert total_types(2, 1, R).reports[0].card_A == (1 if R % 2 == 0 else 0), R


def _count_calls(monkeypatch, fn):
    """Replace ``fn`` by a counting wrapper in every topotype namespace that
    binds it; returns the list the arguments of each call are appended to."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "topotype" or name.startswith("topotype."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_total_types_tests_primality_once(monkeypatch):
    prime_tests = _count_calls(monkeypatch, exact.is_prime)
    part_calls = _count_calls(monkeypatch, crosscheck.part_wz)
    block_calls = _count_calls(monkeypatch, crosscheck.block_wz)
    binomials = _count_calls(monkeypatch, exact.binomial)
    report = total_types(1000003, 2, 30)
    assert len(report.reports) == 5602
    assert len(prime_tests) <= 2
    assert part_calls == [] and block_calls == []
    # each of the 28 distinct parts' values and each n's marking count are
    # computed once, not once per partition (61,350 calls when they were)
    assert len(binomials) <= 300


@pytest.mark.parametrize("p", [3, 7, 101, 1000003])
def test_total_types_reports_match_count_types_rank2(p):
    # total_types shares one table of per-part values across its partitions;
    # each report equals the count made from that partition's own table
    for R in range(3, 15):
        for report in total_types(p, 2, R).reports:
            assert report == count_types_rank2(report.partition, p), (p, R, report.partition)


def test_count_types_rank2_from_any_part_order_is_the_total_types_report():
    # a report built from parts in ascending order (the checked constructor
    # sorts them) equals and hashes like the one total_types builds from
    # admissible_partitions' unchecked types
    for p, R in ((5, 6), (7, 7), (1000003, 9)):
        for report in total_types(p, 2, R).reports:
            mine = count_types_rank2(report.partition.parts[::-1], p)
            assert mine == report and hash(mine) == hash(report), (p, R, report.partition)


def test_count_types_tests_primality_once_per_call(monkeypatch):
    prime_tests = _count_calls(monkeypatch, exact.is_prime)
    parts = [PartitionType((2, 2)), PartitionType((3, 2, 1, 1)), PartitionType((1,) * 8)]
    for i, part in enumerate(parts, start=1):
        count_types_rank2(part, 1000003)
        assert len(prime_tests) == i
    prime_tests.clear()
    count_types_rank1(9, 1000003)
    assert len(prime_tests) == 1


def test_card_A_computes_no_burnside_factors(monkeypatch):
    # |A| reads only each part's (b_P, s_P): the Burnside factors, which a
    # count of the same parts at the same p does compute, are not computed
    multichooses = _count_calls(monkeypatch, exact.multichoose)
    divisor_lists = _count_calls(monkeypatch, exact.divisors_greater_than_one)
    assert card_A((6, 6, 4, 2), 7) == card_A_shortcut((6, 6, 4, 2), 7)
    assert multichooses == [] and divisor_lists == []
    assert count_types_rank2((6, 6, 4, 2), 7).burnside_terms
    assert multichooses and divisor_lists


def _card_A_quadratic(parts, p):
    """The pairwise recursion rebuilding each suffix's block value from
    scratch with the public ``block_wz``: the reference for ``card_A``."""
    n = len(parts)
    if n % 2 == 0:
        wa, wb = part_wz(parts[-2], p), part_wz(parts[-1], p)
        r = wa.W * wb.W
        i = n - 4
    else:
        w1, w2, w3 = (part_wz(P, p) for P in parts[-3:])
        r = w1.W * w2.W * w3.W + (p - 1) * w1.Z * w2.Z * w3.Z
        i = n - 5
    while i >= 0:
        blk = block_wz(parts[i + 2 :], p)
        s01 = blk.W - r
        s11 = (p - 1) * blk.Z - blk.W + r
        wa, wb = part_wz(parts[i], p), part_wz(parts[i + 1], p)
        r = wa.W * (r * wb.W + s01 * wb.Z) + wa.Z * (s01 * wb.W + s11 * wb.Z)
        i -= 2
    return r


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101, 1000003])
def test_card_A_matches_quadratic_recursion(p):
    for R in range(3, 15):
        for part in admissible_partitions(p, 2, R):
            assert part.n <= p + 1
            assert card_A(part, p) == _card_A_quadratic(part.parts, p), (p, part)
            ascending = part.parts[::-1]
            assert card_A(ascending, p) == _card_A_quadratic(ascending, p), (p, part)
        total = sum(count_types_rank2(part, p).T for part in admissible_partitions(p, 2, R))
        assert total_types(p, 2, R).total == total, (p, R)


def _next_prime(n):
    while not exact.is_prime(n):
        n += 1
    return n


# small primes put parts on both sign branches (P = 0, 1 mod p); large
# primes keep every part above 1 equidistributed
odd_primes = st.one_of(st.integers(3, 40), st.integers(3, 10**6)).map(_next_prime)


@settings(max_examples=150, deadline=None)
@given(p=odd_primes, parts=st.lists(st.integers(1, 15), min_size=2, max_size=10),
       data=st.data())
def test_card_A_order_independent_random(p, parts, data):
    assume(len(parts) <= p + 1)
    shuffled = data.draw(st.permutations(parts))
    value = card_A(parts, p)
    assert card_A(shuffled, p) == value
    assert value == _card_A_quadratic(tuple(shuffled), p)
    if sum(1 for P in parts if P % p not in (0, 1)) >= 2:
        assert card_A_shortcut(parts, p) == value


@settings(max_examples=60, deadline=None)
@given(p=odd_primes, n=st.integers(2, 14))
def test_card_A_unitary_random(p, n):
    assume(n <= p + 1)
    assert card_A((1,) * n, p) == card_A_unitary(n, p)


def test_bad_p_still_rejected():
    with pytest.raises(ValueError):
        card_A((2, 2), 9)
    with pytest.raises(ValueError):
        part_wz(2, 9)
    with pytest.raises(ValueError):
        block_wz((2,), 9)
    with pytest.raises(ValueError):
        count_types_rank2(PartitionType((2, 2)), 4)
    with pytest.raises(ValueError):
        count_types_rank1(5, 9)
    for p in (9, 1, 0, -3):
        with pytest.raises(ValueError, match="need an odd prime"):
            total_types(p, 2, 5)
    with pytest.raises(ValueError, match="nonnegative"):
        card_A((2, -1), 5)


@pytest.mark.parametrize("k", [0, 3, -1])
def test_total_types_rejects_bad_rank(k):
    with pytest.raises(ValueError, match=f"k = {k}"):
        total_types(5, k, 6)


@pytest.mark.parametrize("call, bad", [
    (lambda: count_types_rank2((2.9, 1.5, 1.2), 5), 2.9),
    (lambda: card_A((2.5, 2), 5), 2.5),
    (lambda: card_A((2, 2, 1.5), 7), 1.5),
    (lambda: card_A_shortcut((3.5, 3, 2), 5), 3.5),
])
def test_a_part_that_is_not_an_integer_is_named(call, bad):
    # int() truncation once counted (2.9, 1.5, 1.2) as {2,1,1}
    with pytest.raises(ValueError, match=f"part = {bad} is not an integer"):
        call()


def _evaluated(values, q):
    """``_values``' three maps with every polynomial evaluated at q (an int
    constant, such as a marking of 1 for n <= 3, stays as it is)."""
    def at(v):
        return v(q) if isinstance(v, exact.RationalPolynomial) else v

    signed, burnside, marks = values
    return ({P: (at(b), s) for P, (b, s) in signed.items()},
            {P: {d: at(f) for d, f in fs.items()} for P, fs in burnside.items()},
            {n: at(m) for n, m in marks.items()})


def test_values_over_polynomials_match_values_at_primes():
    # one builder: the inputs _values gives the table over Q[p], read at the
    # least integer of a class at or above the fit floor, evaluate at the
    # first two primes of that class to the inputs it gives at those primes
    x = exact.RationalPolynomial._of((0, 1))
    for P in range(1, 15):
        for n in range(2, 15):
            part = PartitionType((P,) * n)
            mod, floor = default_modulus(part), fit_floor(part)
            for c in range(mod):
                if math.gcd(c, mod) != 1:
                    continue
                symbolic = _values(x, (P,), (n,), 2, floor + (c - floor) % mod)
                primes = [q for q in range(floor + (c - floor) % mod, 10**4, mod)
                          if exact.is_prime(q)][:2]
                for q in primes:
                    assert _evaluated(symbolic, q) == _values(q, (P,), (n,), 2, q), (P, n, c, q)
