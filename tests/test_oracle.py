import hashlib
import itertools
import math
import os
import re
import signal
import subprocess
import sys
import textwrap
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import topotype.crosscheck as crosscheck
import topotype.oracle as oracle
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from topotype.counting import count_types_rank1
from topotype.crosscheck import (
    card_A_base3,
    distribution_bruteforce,
    full_distribution,
    gl_matrices,
    nonzero_vectors,
)
from topotype.exact import multichoose
from topotype.oracle import (
    GuardExceeded,
    canonical_form,
    check_feasible,
    classify_partition,
    count_orbits,
    count_orbits_many,
    enumerate_generating_sets,
    group_order,
)
from topotype.partitions import PartitionType, admissible_partitions


def test_group_order():
    assert group_order(3, 1) == 2
    assert group_order(5, 1) == 4
    assert group_order(2, 2) == 6
    assert group_order(3, 2) == 48
    assert group_order(5, 2) == 480
    assert group_order(7, 2) == 2016


def test_nonzero_vectors_sorted():
    vecs = nonzero_vectors(3, 2)
    assert vecs == [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
    assert nonzero_vectors(5, 1) == [(1,), (2,), (3,), (4,)]
    # the oracle's index rule: index i is divmod(i + 1, p), (w,) for k = 1
    for p in (2, 3, 5, 7):
        for k in (1, 2):
            for i, v in enumerate(nonzero_vectors(p, k)):
                assert v == divmod(i + 1, p)[2 - k:]


def test_gl_matrices_count():
    for p, k in ((2, 2), (3, 2), (5, 1), (5, 2)):
        assert len(gl_matrices(p, k)) == group_order(p, k)
    with pytest.raises(ValueError, match="k = 3: only ranks 1 and 2 are supported"):
        gl_matrices(3, 3)


def test_enumerate_examples():
    got = list(enumerate_generating_sets(3, 1, 4))
    assert got == [((1,), (1,), (2,), (2,))]

    got = list(enumerate_generating_sets(2, 2, 3))
    assert got == [((0, 1), (1, 0), (1, 1))]


def test_enumerate_yields_sorted_multisets_once():
    seen = set()
    for cols in enumerate_generating_sets(3, 2, 4):
        assert cols == tuple(sorted(cols))
        assert cols not in seen
        seen.add(cols)


def _plain_generating_sets(p, k, R):
    """Reference enumeration: full product over sorted multisets."""
    vecs = nonzero_vectors(p, k)
    out = set()
    for cols in itertools.combinations_with_replacement(vecs, R):
        if any(sum(v[c] for v in cols) % p for c in range(k)):
            continue
        if k == 2:
            v0 = cols[0]
            if not any((v0[0] * v[1] - v0[1] * v[0]) % p for v in cols[1:]):
                continue
        out.add(cols)
    return out


def test_enumerate_matches_plain_product():
    for p, k, R in ((3, 2, 3), (3, 2, 4), (3, 1, 5), (3, 1, 6), (2, 2, 5)):
        got = set(enumerate_generating_sets(p, k, R))
        assert got == _plain_generating_sets(p, k, R)


def test_enumeration_size_at_3_2_3():
    # 8 generating triples: 4 unordered direction choices times |A| = 2
    got = list(enumerate_generating_sets(3, 2, 3))
    assert len(got) == 8
    assert len(got) == 4 * card_A_base3(1, 1, 1, 3)
    for cols in got:
        assert classify_partition(cols, 3) == PartitionType((1, 1, 1))


def test_classify_partition():
    assert classify_partition(((1, 0), (2, 0), (0, 1), (0, 3)), 5) == PartitionType((2, 2))
    assert classify_partition(((1, 1), (2, 2), (3, 3), (1, 0)), 5) == PartitionType((3, 1))
    assert classify_partition(((0, 1), (1, 0), (1, 1)), 2) == PartitionType((1, 1, 1))


@pytest.mark.parametrize("zero", [(0, 0), (3, 0)])
def test_classify_partition_names_a_zero_column(zero):
    with pytest.raises(ValueError, match=rf"column \({zero[0]}, 0\) is zero mod 3"):
        classify_partition([zero, (1, 0), (0, 1)], 3)


@pytest.mark.parametrize("columns, k, bad", [
    ([(1, 0, 0), (0, 1, 0)], 2, (1, 0, 0)),
    ([(1, 0), (1,), (0, 1)], 2, (1,)),
    ([(1,), (0, 1)], 1, (0, 1)),
])
def test_classify_partition_names_a_column_of_the_wrong_length(columns, k, bad):
    with pytest.raises(ValueError, match=rf"column {re.escape(str(bad))} does not have k = {k}"):
        classify_partition(columns, 3, k)



@pytest.mark.parametrize("p,k,message", [(9, 2, "p = 9 is not prime"), (4, 1, "p = 4 is not prime"),
                                         (3, 3, "k = 3: only ranks 1 and 2")])
def test_classify_partition_checks_p_and_k(p, k, message):
    with pytest.raises(ValueError, match=message):
        classify_partition([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)][:k + 1], p, k)


def test_every_enumerated_multiset_is_admissible():
    for p, k, R in ((3, 2, 3), (3, 2, 4), (3, 2, 5), (3, 2, 6), (5, 2, 4)):
        allowed = set(admissible_partitions(p, k, R))
        for cols in enumerate_generating_sets(p, k, R):
            assert classify_partition(cols, p, k) in allowed


def test_count_orbits_small_tables():
    table = count_orbits(3, 1, 4)
    assert table.total == 1
    table = count_orbits(2, 2, 6)
    assert table.total == 2
    assert table.count((2, 2, 2)) == 1
    assert table.count((4, 2)) == 1
    # exhaustive ground truth at (5, 2, 4); the closed-form route reports
    # 2/2/6 here -- see the acceptance suite and README for the comparison
    table = count_orbits(5, 2, 4)
    assert table.count((2, 2)) == 1
    assert table.count((2, 1, 1)) == 2
    assert table.count((1, 1, 1, 1)) == 1
    assert table.total == 4
    assert table.count((3, 1)) == 0
    table = count_orbits(5, 2, 7)
    assert table.total == 204
    assert table.count((3, 2, 1, 1)) == 52



BATCH_CASES = ([(2, 2, R) for R in range(3, 11)] + [(7, 1, R) for R in range(3, 10)]
               + [(11, 1, R) for R in range(3, 10)] + [(3, 2, R) for R in range(3, 10)]
               + [(5, 2, R) for R in range(3, 9)] + [(7, 2, R) for R in range(3, 8)])


@pytest.mark.parametrize("p,k,R", BATCH_CASES)
def test_count_orbits_classifies_like_classify_partition(p, k, R):
    # count_orbits classifies all representatives in one array pass; the
    # public per-multiset rule, and a literal grouping of the columns by the
    # line they span (the smallest of their nonzero multiples), agree with it
    table = count_orbits(p, k, R)
    assert table.by_partition == Counter(classify_partition(rep, p, k)
                                         for rep in table.representatives)

    def literal(rep):
        lines = Counter(min(tuple(t * c % p for c in v) for t in range(1, p)) for v in rep)
        return PartitionType(tuple(lines.values()))

    assert table.by_partition == Counter(map(literal, table.representatives))
    assert sum(table.by_partition.values()) == table.total == len(table.representatives)


def test_count_orbits_representatives_are_canonical():
    table = count_orbits(5, 2, 4)
    assert len(table.representatives) == table.total
    for rep in table.representatives:
        assert canonical_form(rep, 5, 2) == rep


def test_canonical_form_constant_on_orbits():
    # two multisets share a canonical form iff some group element maps one
    # to the other; check both directions on the (3, 2, 4) population
    mats = gl_matrices(3, 2)

    def maps_to(a, b):
        for m in mats:
            image = sorted(
                tuple(sum(m[r][c] * v[c] for c in range(2)) % 3 for r in range(2))
                for v in a
            )
            if tuple(image) == b:
                return True
        return False

    population = list(enumerate_generating_sets(3, 2, 4))
    by_canon = {}
    for cols in population:
        by_canon.setdefault(canonical_form(cols, 3, 2), []).append(cols)
    # some class has at least two members; pick one pair per class
    multi = [v for v in by_canon.values() if len(v) > 1]
    assert multi
    for members in multi[:3]:
        assert maps_to(members[0], members[1])
    # representatives of distinct classes are never related
    canons = sorted(by_canon)
    assert not maps_to(canons[0], canons[1])


def _full_group_orbits(p, k, R):
    """Reference orbit table: group every generating multiset by its minimum
    sorted image over all of GL_k(F_p), one group element at a time."""
    vecs = nonzero_vectors(p, k)
    index = {v: i for i, v in enumerate(vecs)}
    sets = np.array([[index[v] for v in cols] for cols in enumerate_generating_sets(p, k, R)])
    powers = len(vecs) ** np.arange(R - 1, -1, -1)
    best = None
    for m in gl_matrices(p, k):
        perm = np.array([
            index[tuple(sum(m[r][c] * v[c] for c in range(k)) % p for r in range(k))]
            for v in vecs
        ])
        codes = np.sort(perm[sets], axis=1) @ powers
        best = codes if best is None else np.minimum(best, codes)
    reps = []
    for code in np.unique(best).tolist():
        digits = [code // len(vecs) ** e % len(vecs) for e in range(R - 1, -1, -1)]
        reps.append(tuple(vecs[i] for i in digits))
    by_partition = {}
    for cols in reps:
        part = classify_partition(cols, p, k)
        by_partition[part] = by_partition.get(part, 0) + 1
    return by_partition, len(reps), tuple(reps)


FULL_GROUP_CASES = (
    [(2, 2, R) for R in range(3, 9)]
    + [(3, 2, R) for R in range(3, 8)]
    + [(5, 2, R) for R in range(3, 6)]
    + [(7, 2, R) for R in range(3, 5)]
    + [(p, 1, R) for p in (3, 5, 7) for R in range(3, 9)]
    + [(3, 2, R) for R in (8, 9)]
    + [(2, 2, R) for R in (9, 10)]
)


@pytest.mark.parametrize("p,k,R", FULL_GROUP_CASES)
def test_count_orbits_matches_full_group_reference(p, k, R):
    table = count_orbits(p, k, R)
    assert (table.by_partition, table.total, table.representatives) == _full_group_orbits(p, k, R)


# sha256 of repr((sorted (parts, count) pairs of by_partition, total,
# representatives)) as the array oracle that the pure-Python orderly
# enumeration replaced computed them, for cases past the full-group
# reference's reach: the answers, the representatives and their order.
PINNED_DIGESTS = {
    (3, 2, 3): "bcb8b255a83535f7f89219ab432b65712a93fe012d5c60becd601c4ab0f0634f",
    (3, 2, 4): "44c4427816199102b6bba99705a4e0672f91ea3b39dc990fbeac9b2eec7083e4",
    (3, 2, 5): "77658336c7ee57fd549161550f0c3346328eaf3ff05aa0e25c376292b9e35851",
    (3, 2, 6): "bf94e19032b4c8b2191cae2fe13157e15207c7fd634091df90507cee6abb5e11",
    (3, 2, 7): "99797d20b75e66aa32c0a1574a58fe0874a5cb3e2c2b0769b0628282e04d2c3b",
    (3, 2, 8): "c7230b8e413d2c76c7a7aea74fa055f383778417cf74bf7e2dbb79221d2868a6",
    (3, 2, 9): "33f40f45ffccd840c8665e3493d9f606541f8e3084ec6d41333084d298de0a07",
    (3, 2, 10): "3573851cf1784978965a120df3ff7421647d4c171fb9b412ecfbd6cceac02ab3",
    (3, 2, 11): "03885d87a0b3af70524d4f0013ecd8c4f18ec15e8fd1e3271d1bc38f0c921297",
    (3, 2, 12): "d547f0b5603163f541d605024de32adad3ed2825ac585d6ee604519393d7a701",
    (3, 2, 13): "c8c53c7dcedc1674962ca15791316a71090c8e6f18966c68a70ae2f280edc55c",
    (3, 2, 14): "92649608e37a5271e4443312f0ae6a2d29d8021757d7162f62cecc3fd4dc2df5",
    (3, 2, 15): "f2d80bd56e4de89d98bda2ea4be0451adf60b3aed33234ed56de3ad9045fbb94",
    (3, 2, 16): "2912b8f49dfd4f2e7fe45156e7396e7ed245688f7b01a82dc3d53c4718b337a9",
    (11, 1, 3): "385569ddd3476f19780c61014e413d238b5bd443aaffc55703f4f00e861ce47d",
    (11, 1, 4): "4789c9c00e2002f6dfa1a612ba7148e520704549f9e25346dc5836ee49e44764",
    (11, 1, 5): "16932e0da608c9aa71ef8a92f904311ca082520f4b167662d40124beb36757dc",
    (11, 1, 6): "ceea3b9079c63f4014dc357cd62d462ec77f515597b0fe29b009b020ab057c83",
    (11, 1, 7): "c9d9205274089746b1c2c1fefd2018e1b8a4b723044053ff7af07359c11673da",
    (11, 1, 8): "5c16d9789db747ac9a63ba6e315aafcabb7d6129674ac197e6eb02837cd91b00",
    (11, 1, 9): "03b6738dc653bb2778ece1d01d446cbb019a638a13afd034391e1cc226565521",
    (11, 1, 10): "f762fe0fddf5b98c71891cb8df441c3dbeb3623a2ec9f582e2edbd4a8c76cc61",
    (13, 1, 3): "ff0104ccea49e87a1d5518cc406db25dd4e90f46cb6b5bd16d7ea38fcc6506d0",
    (13, 1, 4): "58fcbd18f184e58b44710d0d2778a75333b6cf5603d8dab2a7e45ab2057e20c0",
    (13, 1, 5): "b192cd6797fd3e50a302012c9217150ede0092965c9bbce055028ab570ea6637",
    (13, 1, 6): "bacf08ceaed1ee59403e99c06b0e48c47ffb5d5a1051ae0859eb07ec9236413c",
    (13, 1, 7): "1add93c9589bef533048deb49b36ce0e26f1001295b9361c9cbfa8e2b23660e4",
    (13, 1, 8): "001010b4896a323194c0c0ef4275c08e0acd8aa6044287710feb94a9b0d73fe1",
    (13, 1, 9): "fa7bf9db6ff9f052fafe6a180191574fbb36c8b3e0407cbde440954ce5456ea5",
    (13, 1, 10): "02988e5a853af19c126829b40814cdbe9b652980f411e4184733989797cea633",
    (5, 2, 3): "54959c9db62b8a330f9b87a88d164b74036839f022bd90b3c13a902317d3760a",
    (5, 2, 4): "f6253b50b980491e479d4df827924395db3a6deae506ecb38c065c24b7c17679",
    (5, 2, 5): "799de54002adee548af90a4f9c6ff154cc2cfa173fd25c454b809e622ab040f5",
    (5, 2, 6): "e1eb96516765322ea50d63b81a7f358e7c0f334c1e98edaa7089d94b0debab79",
    (5, 2, 7): "7f3b6ea5d9ed38934c5db2aa5501575c084a629eff4645614ea9002f72c7ac18",
    (7, 2, 3): "a0a4de4a1fcca79c2badfaba43745586ecdb3b639caa648e0c1c91750063c2f8",
    (7, 2, 4): "d928042c1fcde5c936ab8a23feb1653ba9ec97a66e0b1184df3060bc3adcab7b",
    (7, 2, 5): "e5a4def123a4d26a16bf5901138141fb4a70c841bf45f2507b5509ddf5089211",
    (7, 2, 6): "1923deb1c44d8b195a87ab88063920db85334a66830f7bea66db163f19d3a010",
    (11, 2, 3): "6e0cc2aeb655826c992a91bd2b421a253df6a971c9826e5dde64e495a2836ece",
    (11, 2, 4): "799bf596e770ce3ea6c5f6be67474232ba43aebd42666abb506539983c649ca8",
    (11, 2, 5): "7139c07124d317fbc1bc2346029455f1195d08b42a19158ce382375e9c1f6e8e",
    (19, 2, 5): "533e5576753add00bdba2ac328aa1f2540055c3313afd3e1c8fb29e08d9a21e3",
}


@pytest.mark.parametrize("p,k,R", sorted(PINNED_DIGESTS))
def test_count_orbits_reproduces_the_pinned_digests(p, k, R):
    table = count_orbits(p, k, R)
    key = (sorted((part.parts, n) for part, n in table.by_partition.items()),
           table.total, table.representatives)
    assert hashlib.sha256(repr(key).encode()).hexdigest() == PINNED_DIGESTS[(p, k, R)]


# walk regimes the pins above miss: a large p, long runs of one column, and
# rank 2 at mid-sized p; the same digest as above
REGIME_DIGESTS = {
    (10007, 1, 3): "20ec2617016f341d6ea205b51ffadacf9f04bb8bad3f87a946961727ba49f2c8",
    (3, 1, 40): "e65da349300f9ab5a0c9994d4f5f1041690d54704c4a1b930b95e24f5f4523d7",
    (2, 2, 24): "a9cb614052db69cb0289c6d27dc233c29590092b1b1e217f18931c34b26886d4",
    (5, 2, 8): "377d91e9896464bed381c40209ea1550abadbad4fd0dcd1ae2ba0165b3dd172e",
    (7, 2, 7): "46ec7f35fcd21bc38eed828753a3864e4ee08e88f9fa94029052a189d64521c7",
    (13, 2, 5): "a2c5ae9c3f07c0e03a9f4e58adeb1471cb44e772d5ec1706a05e685a1ec45cbb",
    (17, 2, 5): "c38068eebc425d8a65ac574ed3699856ea31a0432395b797f099ac0f421243eb",
    (101, 2, 4): "efbefafe5bf8f68a889317459f32a7b6482d9f060fa1968170e57b51e3e752b1",
}


@pytest.mark.parametrize("p,k,R", sorted(REGIME_DIGESTS))
def test_count_orbits_reproduces_the_regime_digests(p, k, R):
    table = count_orbits(p, k, R)
    key = (sorted((part.parts, n) for part, n in table.by_partition.items()),
           table.total, table.representatives)
    assert hashlib.sha256(repr(key).encode()).hexdigest() == REGIME_DIGESTS[(p, k, R)]


GL2 = {p: gl_matrices(p, 2) for p in (3, 5, 7)}


def _act(m, cols, p):
    return [tuple((m[r][0] * x + m[r][1] * y) % p for r in range(2)) for x, y in cols]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_run_keys_order_rows_as_their_sorted_numbers(data):
    # the oracle compares rows by the keys of their runs: for two multisets
    # of one length, the key lists must order them as the sorted tuples do,
    # and the runs of a row must expand back to that row
    p = data.draw(st.sampled_from((3, 5, 13)))
    R = data.draw(st.integers(1, 12))
    # a few values shared by both rows, so runs tie on v and differ in m
    pool = data.draw(st.lists(st.integers(1, p * p - 1), min_size=1, max_size=4, unique=True))
    numbers = st.lists(st.sampled_from(pool), min_size=R, max_size=R)
    rows = [sorted(data.draw(numbers)) for _ in range(2)]
    runs = [oracle._runs([divmod(v, p) for v in row], p, 2) for row in rows]
    for row, row_runs in zip(rows, runs):
        assert [v for v, m in row_runs for _ in range(m)] == row
        assert all(m >= 1 for _, m in row_runs) and len({v for v, _ in row_runs}) == len(row_runs)
    keys = [oracle._keys(row_runs, R) for row_runs in runs]
    assert (keys[0] < keys[1]) == (rows[0] < rows[1])
    assert (keys[0] == keys[1]) == (rows[0] == rows[1])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_canonical_form_is_the_full_group_minimum(data):
    p = data.draw(st.sampled_from(sorted(GL2)))
    R = data.draw(st.integers(3, 8))
    vector = st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)).filter(any)
    cols = data.draw(st.lists(vector, min_size=R - 1, max_size=R - 1))
    last = tuple(-sum(v[c] for v in cols) % p for c in range(2))
    cols.append(last)
    assume(any(last))
    assume(any((cols[0][0] * v[1] - cols[0][1] * v[0]) % p for v in cols))
    g = data.draw(st.sampled_from(GL2[p]))
    canon = canonical_form(cols, p, 2)
    assert canonical_form(_act(g, cols, p), p, 2) == canon
    assert canon == min(tuple(sorted(_act(m, cols, p))) for m in GL2[p])


def test_rank1_orbit_counts_match_formula():
    assert count_orbits(3, 1, 4).total == 1
    assert count_orbits(2, 1, 6).total == 1
    assert count_orbits(2, 1, 5).total == 0
    assert count_orbits(3, 1, 7).total == count_types_rank1(7, 3).T == 1
    assert count_orbits(7, 1, 3).total == count_types_rank1(3, 7).T == 2


def test_guard_multiset_limit():
    with pytest.raises(GuardExceeded, match="multisets"):
        count_orbits(13, 2, 8)
    with pytest.raises(GuardExceeded, match="multisets"):
        count_orbits(5, 2, 4, multiset_limit=10)


def test_enumerate_guard_counts_the_prefixes_it_expands():
    # (3, 2, 4): the stream expands multichoose(3, 8) = 120 prefixes for 30
    # multisets; multichoose(4, 8) = 330 overstates the work
    full = list(enumerate_generating_sets(3, 2, 4))
    assert len(full) == 30
    assert list(enumerate_generating_sets(3, 2, 4, multiset_limit=120)) == full
    with pytest.raises(GuardExceeded, match="about 120 column multisets"):
        list(enumerate_generating_sets(3, 2, 4, multiset_limit=119))


def test_bad_R_is_named():
    for call in (check_feasible, count_orbits):
        for k in (1, 2):
            with pytest.raises(ValueError, match="need R >= 3"):
                call(5, k, 2)


def test_guard_step_limit():
    with pytest.raises(GuardExceeded, match="steps"):
        count_orbits(5, 2, 4, step_limit=10)


def test_step_guard_stops_rank2_at_p3_from_R31():
    check_feasible(3, 2, 30)
    with pytest.raises(GuardExceeded, match="steps"):
        check_feasible(3, 2, 31)


def test_step_guard_alone_refuses_only_p3_rank2_at_R31_and_R32():
    # with the step limit lifted every other case keeps its outcome, and
    # these two pass
    refused_by_steps = []
    for p in [q for q in range(2, 400) if all(q % d for d in range(2, q))]:
        for k in (1, 2):
            for R in range(3, 70):
                outcomes = []
                for step_limit in (None, 10**100):
                    try:
                        check_feasible(p, k, R, step_limit=step_limit)
                        outcomes.append("pass")
                    except GuardExceeded as exc:
                        outcomes.append(str(exc))
                if "steps" in outcomes[0]:
                    refused_by_steps.append((p, k, R))
                else:
                    assert outcomes[0] == outcomes[1], (p, k, R)
    assert refused_by_steps == [(3, 2, 31), (3, 2, 32)]
    for R in (31, 32):
        check_feasible(3, 2, R, step_limit=10**100)


def test_orbit_table_count_takes_a_tuple_or_a_partition_type():
    table = count_orbits(5, 2, 5)
    assert table.by_partition
    for part, orbits in table.by_partition.items():
        assert table.count(part) == orbits
        assert table.count(part.parts[::-1]) == table.count(list(part.parts)) == orbits
    assert table.count(PartitionType((4, 1))) == table.count((1, 4)) == 0
    assert sum(map(table.count, table.by_partition)) == table.total


def test_distribution_bruteforce_examples():
    assert distribution_bruteforce((1,), (1,), 3).counts == (1, 1, 1)
    assert distribution_bruteforce((3,), (1,), 3).counts == (4, 3, 3)
    got = distribution_bruteforce((3,), (1,), 3, zero_first_column=True)
    assert got.counts == (2, 1, 1)


def test_distribution_bruteforce_matches_dp():
    for p in (3, 5):
        for parts in ((2, 2), (3, 1), (2, 1, 1)):
            for zfc in (False, True):
                w = tuple(1 + (i % (p - 1)) for i in range(len(parts)))
                brute = distribution_bruteforce(parts, w, p, zero_first_column=zfc)
                dp = full_distribution(parts, w, p, zero_first_column=zfc)
                assert brute.counts == dp.counts


def test_distribution_bruteforce_guard():
    with pytest.raises(GuardExceeded):
        distribution_bruteforce((2,), (1,), 5, multiset_limit=2)


GL = {(p, k): gl_matrices(p, k) for p in (2, 3, 5, 7) for k in (1, 2)}


def _min_image(cols, p, k):
    return min(
        tuple(sorted(tuple(sum(m[r][c] * v[c] for c in range(k)) % p for r in range(k))
                     for v in cols))
        for m in GL[(p, k)]
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_canonical_form_under_tied_multiplicities(data):
    # few lines and few values per line, so maximal multiplicities tie
    # within a line and across lines, and pruning has to keep every tie
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    k = data.draw(st.sampled_from((1, 2)))
    vector = st.tuples(*[st.integers(0, p - 1)] * k).filter(any)
    pool = data.draw(st.lists(vector, min_size=1, max_size=3))
    column = st.builds(lambda v, t: tuple(t * c % p for c in v),
                       st.sampled_from(pool), st.integers(1, p - 1))
    cols = data.draw(st.lists(column, min_size=k, max_size=9))
    if k == 2:
        assume(any((cols[0][0] * v[1] - cols[0][1] * v[0]) % p for v in cols))
    assert canonical_form(cols, p, k) == _min_image(cols, p, k)


CHUNK_CASES = ([(3, 2, R) for R in range(3, 10)] + [(5, 2, R) for R in range(3, 7)]
               + [(7, 1, R) for R in range(3, 9)])


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("p,k,R", CHUNK_CASES)
def test_chunk_size_does_not_change_answers(chunk, p, k, R):
    # canonicalize every generating set, read lazily in chunks of `chunk`,
    # and de-duplicate within and across chunks: the orderly enumeration
    # must keep exactly these minima, and the chunked reads must see every
    # set once, in the order a single read sees them
    table = count_orbits(p, k, R)
    sets, minima, sizes = iter(enumerate_generating_sets(p, k, R)), set(), []
    while block := list(itertools.islice(sets, chunk)):
        sizes.append(len(block))
        minima |= {canonical_form(cols, p, k) for cols in block}
    assert max(sizes) <= chunk
    assert sum(sizes) == sum(1 for _ in enumerate_generating_sets(p, k, R))
    assert table.representatives == tuple(sorted(minima))
    assert table.by_partition == Counter(classify_partition(cols, p, k) for cols in minima)
    assert table.total == len(minima)


@pytest.mark.parametrize("zero", [(0, 0), (3, 0)])
def test_canonical_form_names_a_zero_column(zero):
    with pytest.raises(ValueError, match=rf"column \({zero[0]}, 0\) is zero mod 3"):
        canonical_form([zero, (1, 0), (0, 1)], 3, 2)


@pytest.mark.parametrize("columns,k,message", [
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], 3, "k = 3: only ranks 1 and 2"),
    ([(1, 0), (0, 1)], 0, "k = 0: only ranks 1 and 2"),
    ([(1, 0), (0, 1)], 1, r"column \(1, 0\) does not have k = 1 entries"),
    ([(1, 0), (1,), (0, 1)], 2, r"column \(1,\) does not have k = 2 entries"),
], ids=["k=3", "k=0", "long-column", "short-column"])
def test_canonical_form_checks_k_and_column_lengths(columns, k, message):
    with pytest.raises(ValueError, match=message):
        canonical_form(columns, 3, k)


@pytest.mark.parametrize("columns,k", [
    ([], 1), ([], 2), ([(1, 0)], 2), ([(1, 0), (2, 0)], 2),
], ids=["empty-k1", "empty-k2", "one-column", "one-line"])
def test_canonical_form_names_columns_that_do_not_span(columns, k):
    with pytest.raises(ValueError, match=rf"columns do not span F_3\^{k}"):
        canonical_form(columns, 3, k)


def test_the_oracle_computes_vector_indices(monkeypatch):
    # ``crosscheck.nonzero_vectors`` is the reference order only; no oracle
    # entry lists the vectors to read or write an index
    calls = (lambda: count_orbits(5, 2, 5), lambda: count_orbits(11, 1, 6),
             lambda: canonical_form([(3, 4), (6, 1), (3, 4), (0, 5), (2, 0)], 7, 2),
             lambda: list(enumerate_generating_sets(3, 2, 5)))
    expected = [call() for call in calls]

    def listed(p, k):
        raise AssertionError(f"nonzero_vectors({p}, {k}) called")

    assert not hasattr(oracle, "nonzero_vectors")
    monkeypatch.setattr(crosscheck, "nonzero_vectors", listed)
    assert [call() for call in calls] == expected


@pytest.mark.parametrize("p", [9, 4, 1, 0])
def test_oracle_rejects_a_non_prime_p(p):
    calls = (lambda: count_orbits(p, 2, 4), lambda: check_feasible(p, 2, 4),
             lambda: list(enumerate_generating_sets(p, 2, 4)),
             lambda: canonical_form([(1, 0), (0, 1), (1, 1)], p, 2))
    for call in calls:
        with pytest.raises(ValueError, match=rf"p = {p} is not prime"):
            call()


def test_canonical_form_returns_the_orbit_minimum_at_large_p():
    # no table sized by p is built, so p = 10^9 + 7 takes milliseconds
    p = 10**9 + 7
    assert canonical_form([(1, 0), (0, 1), (p - 1, p - 1)], p, 2) == (
        (0, 1), (1, 0), (p - 1, p - 1))
    assert canonical_form([(1, 0), (0, 1)] * 5, 101, 2) == ((0, 1),) * 5 + ((1, 0),) * 5


def test_count_orbits_memory_does_not_grow_with_p():
    tracemalloc.start()
    try:
        table = count_orbits(1009, 1, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert table.total == 169 == count_types_rank1(3, 1009).T


def test_check_feasible_returns_the_readme_step_estimate():
    # multisets x R x min(R!/(R-k)!, |GL_k|), the number the step guard compares
    for p, k, R in ((3, 2, 16), (13, 1, 10), (7, 2, 5)):
        gl = math.prod(p**k - p**i for i in range(k))
        estimate = multichoose(R - 1 - k, p**k - 1) * R * min(math.perm(R, k), gl)
        assert check_feasible(p, k, R) == estimate
    assert [check_feasible(*case) for case in ((3, 2, 16), (13, 1, 10), (7, 2, 5))] == [
        59535360, 7558200, 117600]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@pytest.fixture
def forks(monkeypatch):
    """The pids ``os.fork`` returns in this process, with two usable cores."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return pids


def _same_counts(got, want):
    """``got``, one case of ``count_orbits_many``, holds the counts of the
    table ``want`` (or the same refusal)."""
    if isinstance(want, GuardExceeded):
        assert type(got) is GuardExceeded and str(got) == str(want)
        return
    assert type(got) is dict
    assert got == want.by_partition
    assert all(type(q) is PartitionType for q in got)
    assert sum(got.values()) == want.total


def _one_by_one(p_values, k, R_values, **limits):
    out = []
    for p in p_values:
        for R in R_values:
            try:
                out.append(count_orbits(p, k, R, **limits))
            except GuardExceeded as exc:
                out.append(exc)
    return out


def _by_partition(p_values, k, R_values):
    return [count_orbits(p, k, R).by_partition for p in p_values for R in R_values]


# the step limits refuse one case in the middle: (7, 1, 8) and (5, 2, 7)
MANY_CASES = [((3, 7, 5), 1, range(3, 9), 20000), ((2, 5, 3), 2, range(3, 8), 10**6)]


@pytest.mark.parametrize("fork_min_steps", [None, 0], ids=["real-constant", "forced-fork"])
@pytest.mark.parametrize("p_values, k, R_values, step_limit", MANY_CASES)
def test_count_orbits_many_returns_what_count_orbits_returns(
        monkeypatch, forks, fork_min_steps, p_values, k, R_values, step_limit):
    if fork_min_steps is not None:
        monkeypatch.setattr(oracle, "FORK_MIN_STEPS", fork_min_steps)
    want = _one_by_one(p_values, k, R_values, step_limit=step_limit)
    assert sum(isinstance(table, GuardExceeded) for table in want) == 1
    assert not isinstance(want[-1], GuardExceeded)
    got = count_orbits_many(p_values, k, R_values, step_limit=step_limit)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        _same_counts(g, w)
    assert len(forks) == (1 if fork_min_steps == 0 else 0)
    assert _no_child_left()


def test_count_orbits_many_deals_to_every_usable_core(monkeypatch, forks):
    monkeypatch.setattr(oracle, "FORK_MIN_STEPS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    got = count_orbits_many((3, 5), 2, range(3, 6))
    assert len(forks) == 3
    want = _one_by_one((3, 5), 2, range(3, 6))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        _same_counts(g, w)
    [got] = count_orbits_many((5,), 2, (4,))  # one case, one worker
    _same_counts(got, count_orbits(5, 2, 4))
    assert len(forks) == 3
    assert _no_child_left()


def _read_all(fd):
    with open(fd, "rb") as pipe:
        data = pipe.read()
    return [int.from_bytes(data[j:j + 4], "big") for j in range(0, len(data), 4)]


def test_the_queue_holds_what_its_pipe_takes():
    queue, queued = oracle._queue(5)
    assert queued == 5 and _read_all(queue) == [0, 1, 2, 3, 4]
    queue, queued = oracle._queue(10**6)  # 4 MB of positions: more than a pipe holds
    assert 0 < queued < 10**6
    assert _read_all(queue) == list(range(queued))


def test_cases_past_the_queue_run_in_the_parent(monkeypatch, forks):
    real = oracle._queue
    monkeypatch.setattr(oracle, "_queue", lambda n: real(min(n, 2)))
    monkeypatch.setattr(oracle, "FORK_MIN_STEPS", 0)
    assert count_orbits_many((3,), 2, range(3, 9)) == _by_partition((3,), 2, range(3, 9))
    assert len(forks) == 1
    assert _no_child_left()


@pytest.mark.parametrize("p_values, k, R_values, children", [
    ((3,), 2, range(3, 5), 0),  # the benchmark harness's own toy verify
    ((5, 7), 2, range(3, 6), 0),  # the would-be child holds about 3.4e4 steps
    ((3,), 2, range(3, 17), 1),
    ((11, 13), 1, range(3, 11), 1),
])
def test_only_large_shares_fork_at_the_real_constant(forks, p_values, k, R_values, children):
    count_orbits_many(p_values, k, R_values)
    assert len(forks) == children
    assert _no_child_left()


def test_one_usable_core_forks_nothing(monkeypatch, forks):
    monkeypatch.setattr(oracle, "FORK_MIN_STEPS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert count_orbits_many((3,), 2, range(3, 8)) == _by_partition((3,), 2, range(3, 8))
    assert forks == []


def test_no_fork_means_one_worker(monkeypatch):
    monkeypatch.setattr(oracle, "FORK_MIN_STEPS", 0)
    monkeypatch.delattr(os, "fork")
    assert count_orbits_many((3,), 2, range(3, 8)) == _by_partition((3,), 2, range(3, 8))


def _failing_in(monkeypatch, side, fail):
    """Make the per-case count (``_tally``) call ``fail()`` in a child
    (``side`` "child") or in this process ("parent"), and take 0.1 s a case
    on the other side, so that both sides pull a case."""
    real, test = oracle._tally, os.getpid()

    def count(p, k, R):
        if (os.getpid() == test) == (side == "parent"):
            fail()
        time.sleep(0.1)
        return real(p, k, R)

    monkeypatch.setattr(oracle, "_tally", count)
    monkeypatch.setattr(oracle, "FORK_MIN_STEPS", 0)


def _planted():
    raise ArithmeticError("planted")


def test_a_child_that_raises_is_named(monkeypatch, forks):
    # the child fails at the first case it pulls, and only that case is undone
    _failing_in(monkeypatch, "child", _planted)
    with pytest.raises(RuntimeError, match=r"oracle worker for \(p=3, k=1, R=(\d)\) failed: "
                                           r"\(p, k, R\) = \(3, 1, \1\): ArithmeticError: planted$"):
        count_orbits_many((3,), 1, range(3, 9))
    assert len(forks) == 1
    assert _no_child_left()


def test_a_child_that_dies_is_named(monkeypatch, forks):
    _failing_in(monkeypatch, "child", lambda: os._exit(3))
    with pytest.raises(RuntimeError,
                       match=r"oracle worker for \(p=3, k=1, R=\d\) failed: wait status 768$"):
        count_orbits_many((3,), 1, range(3, 9))
    assert len(forks) == 1
    assert _no_child_left()


def test_a_failing_parent_still_reaps_its_child(monkeypatch, forks):
    _failing_in(monkeypatch, "parent", _planted)
    with pytest.raises(ArithmeticError, match="planted"):
        count_orbits_many((3,), 1, range(3, 9))
    assert len(forks) == 1
    assert _no_child_left()


def test_bad_input_raises_before_any_work(monkeypatch, forks):
    monkeypatch.setattr(oracle, "FORK_MIN_STEPS", 0)
    monkeypatch.setattr(oracle, "_tally", None)  # never reached
    monkeypatch.setattr(oracle, "_minima", None)
    with pytest.raises(ValueError, match="p = 4 is not prime"):
        count_orbits_many((5, 4), 2, (3, 4))
    with pytest.raises(ValueError, match="need R >= 3"):
        count_orbits_many((5,), 2, (4, 2))
    assert forks == []


@pytest.mark.skipif(not hasattr(os, "fork") or not os.path.isdir("/proc/self"),
                    reason="needs os.fork and /proc")
def test_a_child_leaves_once_its_parent_is_killed(tmp_path):
    # the parent forks one child for about 100 cases of 0.2 s each and
    # reports its pid; killing the parent must end the child at its next case
    src = os.path.dirname(os.path.dirname(oracle.__file__))
    script = textwrap.dedent("""
        import os, sys, time
        import topotype.oracle as oracle
        real, fork = oracle._tally, os.fork
        def slow(p, k, R):
            time.sleep(0.2)
            return real(p, k, R)
        def reported():
            pid = fork()
            if pid:
                print(pid, flush=True)
            return pid
        oracle._tally, os.fork, oracle.FORK_MIN_STEPS = slow, reported, 0
        os.sched_getaffinity = lambda pid: {0, 1}
        oracle.count_orbits_many([3], 1, range(3, 203))
    """)
    parent = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
    try:
        child = int(parent.stdout.readline())
    finally:
        parent.kill()
        parent.wait()
        parent.stdout.close()

    def running(pid):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                return fh.read().rpartition(")")[2].split()[0] != "Z"
        except FileNotFoundError:
            return False

    deadline = time.monotonic() + 5
    while running(child) and time.monotonic() < deadline:
        time.sleep(0.02)
    if running(child):
        os.kill(child, signal.SIGKILL)
        pytest.fail(f"child {child} outlived its killed parent")


def _unlisted(*args):
    raise AssertionError("a row was expanded into columns")


@pytest.mark.parametrize("cores", [{0, 1}, {0}], ids=["forced-fork", "one-core"])
def test_verify_path_lists_no_orbit(monkeypatch, forks, cores):
    # count_orbits_many counts without expanding a row: with the expander
    # gone it still returns each case's counts, in the parent and a child
    want = _by_partition((3, 5), 2, range(3, 7))
    monkeypatch.setattr(oracle, "_expander", _unlisted)
    monkeypatch.setattr(oracle, "FORK_MIN_STEPS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
    assert count_orbits_many((3, 5), 2, range(3, 7)) == want
    assert len(forks) == len(cores) - 1
    assert _no_child_left()


def test_verify_path_memory_does_not_grow_with_the_orbits(monkeypatch):
    # (23, 1, 8) has 8,528 orbits: listing them peaks near 1.7 MiB of
    # tracemalloc, counting them holds one walk's stack (under 0.01 MiB);
    # tracemalloc slows the walk about 20-fold, so the case is a short one
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    tracemalloc.start()
    try:
        got = count_orbits_many([23], 1, [8])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert got == [{PartitionType((8,)): count_types_rank1(8, 23).T}]


def test_verify_path_memory_does_not_grow_with_p(monkeypatch):
    # (10007, 1, 3) meets nearly every unit mod p as a candidate's scale, so
    # anything kept per unit (a memo of inverses, about 0.9 MiB here) would
    # grow with p; the walk and the keep rule hold a few rows (0.01 MiB)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    tracemalloc.start()
    try:
        got = count_orbits_many([10007], 1, [3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 2**20
    assert got == [{PartitionType((3,)): count_types_rank1(3, 10007).T}]
