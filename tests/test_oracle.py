import itertools

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


def test_gl_matrices_count():
    for p, k in ((2, 2), (3, 2), (5, 1), (5, 2)):
        assert len(gl_matrices(p, k)) == group_order(p, k)
    with pytest.raises(ValueError):
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
def test_chunk_size_does_not_change_answers(monkeypatch, chunk, p, k, R):
    table = count_orbits(p, k, R)
    sets = list(enumerate_generating_sets(p, k, R))
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    small = count_orbits(p, k, R)
    assert (small.by_partition, small.total, small.representatives) == (
        table.by_partition, table.total, table.representatives)
    assert list(enumerate_generating_sets(p, k, R)) == sets


def _record_chunks(monkeypatch):
    sizes = []
    stream = oracle._stream

    def spy(*args):
        for rows in stream(*args):
            sizes.append(len(rows))
            yield rows

    monkeypatch.setattr(oracle, "_stream", spy)
    return sizes


def test_chunks_are_bounded(monkeypatch):
    sizes = _record_chunks(monkeypatch)
    table = count_orbits(5, 2, 7)  # 17,550 normal-form prefixes
    assert len(sizes) > 1
    assert max(sizes) <= oracle._CHUNK
    assert table.total == 204
    assert table.count((3, 2, 1, 1)) == 52

    sizes.clear()
    monkeypatch.setattr(oracle, "_CHUNK", 7)
    assert sum(1 for _ in enumerate_generating_sets(3, 2, 6)) == sum(sizes)
    assert len(sizes) > 1
    assert max(sizes) <= 7


@pytest.mark.parametrize("zero", [(0, 0), (3, 0)])
def test_canonical_form_names_a_zero_column(zero):
    with pytest.raises(ValueError, match=rf"column \({zero[0]}, 0\) is zero mod 3"):
        canonical_form([zero, (1, 0), (0, 1)], 3, 2)
