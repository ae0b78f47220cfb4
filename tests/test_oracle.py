import hashlib
import itertools
import re
from collections import Counter

import numpy as np
import pytest
import topotype.oracle as oracle
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from topotype.counting import count_types_rank1
from topotype.crosscheck import card_A_base3, distribution_bruteforce, full_distribution
from topotype.oracle import (
    GuardExceeded,
    canonical_form,
    check_feasible,
    classify_partition,
    count_orbits,
    enumerate_generating_sets,
    gl_matrices,
    group_order,
    nonzero_vectors,
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


GL2 = {p: gl_matrices(p, 2) for p in (3, 5, 7)}


def _act(m, cols, p):
    return [tuple((m[r][0] * x + m[r][1] * y) % p for r in range(2)) for x, y in cols]


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


def test_guard_encoding_width():
    # multiset and step guards pass here, the 64-bit encoding bound does not
    for call in (check_feasible, count_orbits):
        with pytest.raises(GuardExceeded, match="encoding"):
            call(3, 2, 21)


def test_step_guard_never_refuses_alone_at_the_default_limits():
    # every case the default step limit refuses is refused with it lifted
    # too: only (3, 2, 31) and (3, 2, 32) fail it, and the encoding bound
    # refuses both
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
                assert (outcomes[0] == "pass") == (outcomes[1] == "pass"), (p, k, R)
    assert refused_by_steps == [(3, 2, 31), (3, 2, 32)]
    for R in (31, 32):
        with pytest.raises(GuardExceeded, match="encoding"):
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
    # ``nonzero_vectors`` is the reference order only; no oracle entry
    # lists the vectors to read or write an index
    calls = (lambda: count_orbits(5, 2, 5), lambda: count_orbits(11, 1, 6),
             lambda: canonical_form([(3, 4), (6, 1), (3, 4), (0, 5), (2, 0)], 7, 2),
             lambda: list(enumerate_generating_sets(3, 2, 5)))
    expected = [call() for call in calls]

    def listed(p, k):
        raise AssertionError(f"nonzero_vectors({p}, {k}) called")

    monkeypatch.setattr(oracle, "nonzero_vectors", listed)
    assert [call() for call in calls] == expected


@pytest.mark.parametrize("p", [9, 4, 1, 0])
def test_oracle_rejects_a_non_prime_p(p):
    calls = (lambda: count_orbits(p, 2, 4), lambda: check_feasible(p, 2, 4),
             lambda: list(enumerate_generating_sets(p, 2, 4)),
             lambda: canonical_form([(1, 0), (0, 1), (1, 1)], p, 2))
    for call in calls:
        with pytest.raises(ValueError, match=rf"p = {p} is not prime"):
            call()


def test_canonical_form_applies_the_encoding_guard():
    # (p^2 - 1)^R > 2^62: the orbit codes would overflow int64, even for
    # the three columns at p = 40009.
    with pytest.raises(GuardExceeded, match="encoding"):
        canonical_form([(1, 0), (0, 1)] * 5, 101, 2)
    with pytest.raises(GuardExceeded, match="encoding"):
        canonical_form([(1, 0), (0, 1), (1, 1)], 40009, 2)
