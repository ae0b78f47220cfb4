import re

import pytest

from topotype.partitions import (
    ActionParams,
    AdmissibilityError,
    NotHyperbolicError,
    PartitionType,
    admissible_partitions,
    check_admissible,
    check_part_count,
    check_type_count,
    genus_of,
    marking_count,
    parse_partition,
    partition_tokens,
)
import topotype
from topotype import oracle, partitions


def test_partition_type_canonicalizes_descending():
    part = PartitionType((1, 2, 2))
    assert part.parts == (2, 2, 1)
    assert part.R == 5
    assert part.n == 3
    assert part.multiplicity(2) == 2
    assert part.multiplicity(1) == 1
    assert part.multiplicity(7) == 0
    assert str(part) == "{2,2,1}"


def test_partition_type_rejects_bad_parts():
    with pytest.raises(ValueError):
        PartitionType((2, 0))
    with pytest.raises(ValueError):
        PartitionType(())


def test_action_params_validation():
    ActionParams(p=5, k=2, R=4)
    with pytest.raises(ValueError):
        ActionParams(p=4, k=2, R=4)
    with pytest.raises(ValueError):
        ActionParams(p=5, k=3, R=4)
    with pytest.raises(ValueError):
        ActionParams(p=5, k=2, R=2)


def test_partition_types_from_every_route_are_one_value():
    # the parser, the checked constructor and admissible_partitions'
    # unchecked one build equal values, with equal hashes and reprs
    (listed,) = [q for q in admissible_partitions(5, 2, 5) if q.parts == (2, 2, 1)]
    parsed, built = parse_partition("1,2^2"), PartitionType((1, 2, 2))
    for part in (parsed, built):
        assert part == listed and hash(part) == hash(listed)
        assert repr(part) == repr(listed) == "PartitionType(parts=(2, 2, 1))"
    assert len({parsed, built, listed}) == 1
    assert listed != (2, 2, 1) and listed.__eq__((2, 2, 1)) is NotImplemented


def test_admissible_partitions_are_already_canonical():
    # admissible_partitions builds its types without sorting them: each one
    # must equal the type the checked constructor makes from its parts
    for p, k, R in ((2, 2, 9), (3, 2, 10), (5, 2, 8), (7, 1, 6), (1000003, 2, 12)):
        for part in admissible_partitions(p, k, R):
            assert PartitionType(part.parts).parts == part.parts, (p, k, R)


@pytest.mark.parametrize("parts", [(2, 0), (), (3, -1)])
def test_partition_type_message(parts):
    with pytest.raises(ValueError, match="^parts must be positive integers$"):
        PartitionType(parts)


@pytest.mark.parametrize("p, k, R, message", [
    (4, 2, 4, "p = 4 is not prime: need an odd prime or 2"),
    (5, 3, 4, "k = 3: only ranks 1 and 2 are supported"),
    (5, 2, 2, "R = 2: need R >= 3"),
    (9, 0, 1, "p = 9 is not prime: need an odd prime or 2"),
])
def test_action_params_messages(p, k, R, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ActionParams(p=p, k=k, R=R)


def test_genus_examples():
    assert genus_of(ActionParams(p=5, k=2, R=4)) == 16
    assert genus_of(ActionParams(p=2, k=2, R=6)) == 3
    assert genus_of(ActionParams(p=3, k=1, R=4)) == 2


def test_genus_rejects_non_hyperbolic():
    # genus 1 at (p=3, k=1, R=3): total ramification too small
    with pytest.raises(NotHyperbolicError):
        genus_of(ActionParams(p=3, k=1, R=3))
    # odd total ramification: no action at all
    with pytest.raises(NotHyperbolicError):
        genus_of(ActionParams(p=2, k=1, R=7))


def test_genus_satisfies_euler_characteristic():
    for p in (2, 3, 5, 7):
        for k in (1, 2):
            for R in range(3, 12):
                try:
                    g = genus_of(ActionParams(p=p, k=k, R=R))
                except NotHyperbolicError:
                    continue
                # 2 - 2g = p^k * (2 - R) + R * p^(k-1)
                assert 2 - 2 * g == p**k * (2 - R) + R * p ** (k - 1)
                assert g >= 2


def test_admissible_partitions_rank1():
    assert admissible_partitions(p=5, k=1, R=4) == [PartitionType((4,))]
    assert admissible_partitions(p=2, k=1, R=7) == [PartitionType((7,))]


def test_admissible_partitions_examples():
    got = admissible_partitions(p=3, k=2, R=5)
    want = [
        PartitionType((3, 2)),
        PartitionType((2, 2, 1)),
        PartitionType((3, 1, 1)),
        PartitionType((2, 1, 1, 1)),
    ]
    assert got == want

    got = admissible_partitions(p=5, k=2, R=4)
    want = [
        PartitionType((2, 2)),
        PartitionType((2, 1, 1)),
        PartitionType((1, 1, 1, 1)),
    ]
    assert got == want

    # n is capped by (p^2 - 1)/(p - 1) = p + 1
    got = admissible_partitions(p=2, k=2, R=6)
    assert PartitionType((2, 2, 2)) in got
    assert all(part.n <= 3 for part in got)


def _plain_partitions(R):
    """Every partition of R as a descending tuple (reference generator)."""
    out = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for first in range(min(cap, remaining), 0, -1):
            rec(remaining - first, first, prefix + [first])

    rec(R, R, [])
    return out


def test_admissible_partitions_match_filtered_bruteforce():
    for p in (2, 3, 5, 7):
        for R in range(3, 13):
            got = admissible_partitions(p=p, k=2, R=R)
            want = set()
            for parts in _plain_partitions(R):
                n = len(parts)
                if not 2 <= n <= p + 1:
                    continue
                if n == 2 and min(parts) < 2:
                    continue
                if max(parts) > R - 2:
                    continue
                want.add(parts)
            assert {part.parts for part in got} == want
            # deterministic order: grouped by part count, ascending within
            assert [part.parts for part in got] == sorted(
                (part.parts for part in got), key=lambda t: (len(t), t)
            )


def test_admissible_contains_generic_partitions_for_large_p():
    for R in range(3, 9):
        got = {part.parts for part in admissible_partitions(p=13, k=2, R=R)}
        assert (1,) * R in got
        if R >= 4:
            assert (2,) + (1,) * (R - 2) in got


def test_check_admissible_reports_violation():
    check_admissible(PartitionType((2, 2)), p=5, k=2)
    check_admissible(PartitionType((1, 1, 1, 1)), p=3, k=2)
    with pytest.raises(AdmissibilityError, match="part must be >= 2"):
        check_admissible(PartitionType((4, 1)), p=5, k=2)
    with pytest.raises(AdmissibilityError, match="subgroups"):
        check_admissible(PartitionType((1, 1, 1, 1, 1)), p=3, k=2)
    with pytest.raises(AdmissibilityError, match="fewer parts"):
        check_admissible(PartitionType((5,)), p=5, k=2)
    with pytest.raises(AdmissibilityError):
        check_admissible(PartitionType((2, 2)), p=5, k=1)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_check_part_count_both_ranks(p):
    # k <= n <= (p^k - 1)/(p - 1): rank 1 has one subgroup, rank 2 has p + 1
    check_part_count(1, p, 1)
    check_part_count(2, p)
    check_part_count(p + 1, p)
    with pytest.raises(AdmissibilityError, match="only 1 cyclic subgroups"):
        check_part_count(2, p, 1)
    with pytest.raises(AdmissibilityError, match="fewer parts"):
        check_part_count(1, p)
    with pytest.raises(AdmissibilityError, match=f"only {p + 1} cyclic subgroups"):
        check_part_count(p + 2, p)


def test_admissible_partitions_are_what_check_admissible_accepts():
    for p in (2, 3, 5, 7, 11):
        for k in (1, 2):
            for R in range(3, 13):
                accepted = []
                for parts in _plain_partitions(R):
                    try:
                        check_admissible(PartitionType(parts), p, k)
                    except AdmissibilityError:
                        continue
                    accepted.append(parts)
                got = [part.parts for part in admissible_partitions(p, k, R)]
                assert got == sorted(accepted, key=lambda t: (len(t), t))


def test_marking_count():
    assert marking_count(p=5, n=2) == 1
    assert marking_count(p=5, n=3) == 1
    assert marking_count(p=5, n=4) == 3
    assert marking_count(p=7, n=6) == 10
    with pytest.raises(AdmissibilityError):
        marking_count(p=5, n=7)
    # the part count is checked against rank k: rank 1 has one part, marked
    # by its one subgroup, and rank 2 (the default) needs two
    assert marking_count(p=5, n=1, k=1) == 1
    with pytest.raises(AdmissibilityError, match="only 1 cyclic subgroups"):
        marking_count(p=5, n=2, k=1)
    with pytest.raises(AdmissibilityError, match="fewer parts"):
        marking_count(p=5, n=1)


def test_parse_partition():
    assert parse_partition("2,2,1") == PartitionType((2, 2, 1))
    assert parse_partition("1^4") == PartitionType((1, 1, 1, 1))
    assert parse_partition("2,1^3") == PartitionType((2, 1, 1, 1))
    assert parse_partition("3") == PartitionType((3,))
    with pytest.raises(ValueError):
        parse_partition("0")
    with pytest.raises(ValueError):
        parse_partition("x")
    with pytest.raises(ValueError):
        parse_partition("2^0")
    with pytest.raises(ValueError):
        parse_partition("")
    with pytest.raises(ValueError):
        parse_partition("1,-2")


@pytest.mark.parametrize("parts, bad", [((2.9, 1.5, 1), 2.9), ((2, 1.5, 1), 1.5), ((3, 2, 0.5), 0.5),
                                        ((2.0, 1, 1), 2.0), ((2, "1", 1), "1"), ((2, True, 1), True)])
def test_partition_type_names_a_part_that_is_not_an_integer(parts, bad):
    # int() would truncate 2.9 to 2 and give {2,1,1}; a part follows the
    # rule of p, k and R, so 2.0 is named too
    with pytest.raises(ValueError, match=f"^part = {re.escape(repr(bad))} is not an integer$"):
        PartitionType(parts)


@pytest.mark.parametrize("call, message", [
    (lambda: admissible_partitions(1, 2, 5), "p = 1 is not prime"),
    (lambda: admissible_partitions(4, 2, 5), "p = 4 is not prime"),
    (lambda: admissible_partitions(5, 3, 4), "k = 3: only ranks 1 and 2"),
    (lambda: admissible_partitions(5, 2, 2), "R = 2: need R >= 3"),
    (lambda: marking_count(1, 3, 2), "p = 1 is not prime"),
    (lambda: marking_count(0, 3), "p = 0 is not prime"),
    (lambda: marking_count(5, 3, 3), "k = 3: only ranks 1 and 2"),
    (lambda: check_part_count(3, 1), "p = 1 is not prime"),
    (lambda: check_part_count(3, 5, 0), "k = 0: only ranks 1 and 2"),
], ids=["admissible-p1", "admissible-p4", "admissible-k3", "admissible-R2", "marking-p1",
        "marking-p0", "marking-k3", "part-count-p1", "part-count-k0"])
def test_bad_p_and_k_are_named_not_divided_by(call, message):
    # p = 1 once divided by p - 1 = 0, and k = 3 listed a rank-3 type
    with pytest.raises(ValueError, match=message):
        call()


_NOT_INTEGERS = (7.0, 7.5, "7", True)
# every public entry that takes p, k or R, with that argument left open;
# each names it through partitions.check_integer
_ENTRIES = {
    "check_prime": ("p", partitions.check_prime),
    "check_rank": ("k", partitions.check_rank),
    "ActionParams-p": ("p", lambda v: ActionParams(v, 2, 5)),
    "ActionParams-k": ("k", lambda v: ActionParams(5, v, 5)),
    "ActionParams-R": ("R", lambda v: ActionParams(5, 2, v)),
    "check_part_count": ("p", lambda v: check_part_count(3, v)),
    "check_admissible": ("p", lambda v: check_admissible(PartitionType((2, 2, 2)), v, 2)),
    "admissible_partitions": ("R", lambda v: admissible_partitions(5, 2, v)),
    "marking_count-p": ("p", lambda v: marking_count(v, 5)),
    "marking_count-k": ("k", lambda v: marking_count(7, 5, v)),
    "card_A": ("p", lambda v: topotype.card_A((2, 2), v)),
    "count_types_rank2": ("p", lambda v: topotype.count_types_rank2((2, 2), v)),
    "count_types_rank1-R": ("R", lambda v: topotype.count_types_rank1(v, 5)),
    "count_types_rank1-p": ("p", lambda v: topotype.count_types_rank1(5, v)),
    "total_types-p": ("p", lambda v: topotype.total_types(v, 2, 4)),
    "total_types-k": ("k", lambda v: topotype.total_types(7, v, 4)),
    "total_types-R": ("R", lambda v: topotype.total_types(7, 2, v)),
    "count_orbits-p": ("p", lambda v: topotype.count_orbits(v, 2, 4)),
    "count_orbits-k": ("k", lambda v: topotype.count_orbits(5, v, 4)),
    "count_orbits-R": ("R", lambda v: topotype.count_orbits(5, 2, v)),
    "count_orbits_many": ("p", lambda v: oracle.count_orbits_many([v], 2, [4])),
    "canonical_form-p": ("p", lambda v: oracle.canonical_form([(1, 0), (0, 1), (4, 4)], v, 2)),
    "canonical_form-k": ("k", lambda v: oracle.canonical_form([(1, 0), (0, 1), (4, 4)], 5, v)),
    "build_table": ("R", topotype.build_table),
    "row_counts": ("p", lambda v: topotype.row_counts(2, v)),
    "part_wz": ("p", lambda v: topotype.part_wz(2, v)),
    "block_wz": ("p", lambda v: topotype.block_wz((2, 2), v)),
    "full_distribution": ("p", lambda v: topotype.full_distribution((2, 2), (1, 1), v)),
    "distribution_bruteforce": ("p", lambda v: topotype.distribution_bruteforce((2,), (1,), v)),
    "card_A_base2": ("p", lambda v: topotype.card_A_base2(2, 2, v)),
    "card_A_base3": ("p", lambda v: topotype.card_A_base3(2, 2, 2, v)),
    "card_A_shortcut": ("p", lambda v: topotype.card_A_shortcut((2, 2), v)),
    "card_A_unitary": ("p", lambda v: topotype.card_A_unitary(4, v)),
    "count_types_klein": ("R", topotype.count_types_klein),
    "enumerate_generating_sets": ("p", lambda v: list(topotype.enumerate_generating_sets(v, 2, 4))),
    "classify_partition": ("p", lambda v: topotype.classify_partition([(1, 0), (0, 1)], v)),
}


@pytest.mark.parametrize("entry", sorted(_ENTRIES))
def test_a_value_that_is_not_an_int_is_named(entry):
    # 7.0 and 7.5 once passed check_prime, and a count then ended in a bare
    # TypeError ('float' object cannot be interpreted as an integer)
    name, call = _ENTRIES[entry]
    for value in _NOT_INTEGERS:
        message = f"^{name} = {re.escape(repr(value))} is not an integer$"
        with pytest.raises(ValueError, match=message):
            call(value)


@pytest.mark.parametrize("value", _NOT_INTEGERS)
def test_build_table_names_a_supplied_value_that_is_not_an_int(value):
    message = f"^supplied value {re.escape(repr(value))} is not an odd prime$"
    with pytest.raises(topotype.PolynomialFitError, match=message):
        topotype.build_table(5, [value])
    # beside the int 7: a set would merge 7.0 into it, and sorting cannot compare it with "7"
    with pytest.raises(topotype.PolynomialFitError, match=message):
        topotype.build_table(5, [7, value])


def test_the_part_count_check_tests_no_primality(monkeypatch):
    # check_part_count runs once per part count of a total: O(1) checks
    # only, so a total tests p once, in admissible_partitions
    from topotype.counting import total_types

    calls = []
    real = partitions.is_prime
    monkeypatch.setattr(partitions, "is_prime", lambda n: calls.append(n) or real(n))
    check_part_count(3, 4, 2)  # 4 is not prime, and is not asked about
    assert calls == []
    assert total_types(1000003, 2, 12).total > 0
    assert calls == [1000003]


def test_partition_tokens_count_the_parts_before_expanding_them():
    assert partition_tokens("2,1^3") == [(2, 1), (1, 3)]
    assert partition_tokens(" 3 , 2^2") == [(3, 1), (2, 2)]
    assert partition_tokens("2^99999999999") == [(2, 99999999999)]
    with pytest.raises(ValueError, match="exponent must be positive"):
        partition_tokens("2^0")


def test_type_count_bound_admits_R_76_and_refuses_R_77():
    # p(76) = 9,289,091 partitions fit under the 10^7 bound at any p;
    # p(77) = 10,619,863 does not, less {77} and {76, 1}
    assert partitions.TYPE_LIMIT == 10**7
    for p in (1000003, 10**18 + 9):
        check_type_count(p, 2, 76)
        with pytest.raises(ValueError, match=r"R=77\) has at least \d+ admissible types, "
                                             r"more than the 10000000"):
            check_type_count(p, 2, 77)
    check_type_count(1000003, 1, 10**9)  # rank 1 has the one type {R}
    check_type_count(2, 2, 10000)  # at most 3 parts: 8,338,332 types


def test_type_count_is_exact_below_the_bound(monkeypatch):
    # a bound of exactly len(admissible_partitions) admits, one less refuses
    counts = {(p, R): len(admissible_partitions(p, 2, R))
              for p in (2, 3, 5, 7, 13, 1000003) for R in range(3, 26)}
    for (p, R), count in counts.items():
        monkeypatch.setattr(partitions, "TYPE_LIMIT", count)
        check_type_count(p, 2, R)
        monkeypatch.setattr(partitions, "TYPE_LIMIT", count - 1)
        with pytest.raises(ValueError, match=f"at least {count} admissible"):
            check_type_count(p, 2, R)
