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
    genus_of,
    marking_count,
    parse_partition,
)


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
