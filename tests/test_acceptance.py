"""Acceptance checklist: one test per criterion, one pass/fail line under -v.

Criteria 1-2 compare the closed-form counting route against a reference
table of per-partition polynomials; criterion 3 compares it against the
brute-force orbit oracle.  Only criterion 3 fails, by design: the rank-2
closed forms count marked scalar classes, while the oracle counts full
GL_2(F_p) orbits, and the two differ (README, "Known divergences", item 1).
Criteria 1-2 and 4-9 pass.

Three reference rows were corrected: {3,2,1} was (p+1)(p-2)^2/12,
{3,1,1,1} was (p-1)(p-2)^2/6 and {2,1,1,1,1} was p(p-1)(p-2)(p-3)(p-4)/4.
The test test_reference_rows_match_literal_marked_count counts the marked
configurations literally, without the residue or counting modules, and
agrees with the corrected rows (README, "Known divergences", item 2).
"""

import itertools
import time
from fractions import Fraction as F

import numpy as np

from topotype.counting import card_A, count_types_rank1, count_types_rank2, klein_type_count
from topotype.crosscheck import (
    card_A_base2,
    card_A_base3,
    card_A_shortcut,
    card_A_unitary,
    count_types_klein,
    distribution_bruteforce,
    full_distribution,
    gaussian_binomial,
)
from topotype.exact import binomial
from topotype.oracle import count_orbits
from topotype.partitions import PartitionType, admissible_partitions
from topotype.tables import (
    PolynomialFitError,
    default_degree_bound,
    fit_partition_polynomial,
)

TABLE_PRIMES = (5, 7, 11, 13)

# Reference table, R = 3..6: per-partition coefficient tuples (ascending
# degree) with a factored closed form used to self-check the transcription.
# Rows are stratified by p mod `modulus` where the count genuinely branches.
REFERENCE_ROWS = [
    # (parts, modulus, {class: (coeffs, factored)})
    ((1, 1, 1), 1, {0: ((F(1),), lambda p: F(1))}),
    ((2, 2), 1, {0: ((F(-1, 2), F(1, 2)), lambda p: F(p - 1, 2))}),
    ((2, 1, 1), 1, {0: ((F(-1, 2), F(1, 2)), lambda p: F(p - 1, 2))}),
    ((1, 1, 1, 1), 1, {0: ((F(6), F(-5), F(1)),
                           lambda p: F((p - 2) * (p - 3)))}),
    ((3, 2), 1, {0: ((F(-1, 12), F(0), F(1, 12)),
                     lambda p: F((p + 1) * (p - 1), 12))}),
    ((2, 2, 1), 1, {0: ((F(1, 4), F(-1, 2), F(1, 4)),
                        lambda p: F((p - 1) ** 2, 4))}),
    ((3, 1, 1), 1, {0: ((F(-1, 6), F(0), F(1, 6)),
                        lambda p: F((p + 1) * (p - 1), 6))}),
    ((2, 1, 1, 1), 1, {0: ((F(-2), F(4), F(-5, 2), F(1, 2)),
                           lambda p: F((p - 1) * (p - 2) ** 2, 2))}),
    ((1,) * 5, 1, {0: ((F(18), F(-27), F(16), F(-9, 2), F(1, 2)),
                       lambda p: F((p - 2) * (p - 3) * (p * p - 4 * p + 6), 2))}),
    ((3, 3), 3, {
        1: ((F(-1, 4), F(7, 36), F(1, 36), F(1, 36)),
            lambda p: F((p - 1) * (p * p + 2 * p + 9), 36)),
        2: ((F(-1, 36), F(-1, 36), F(1, 36), F(1, 36)),
            lambda p: F((p + 1) ** 2 * (p - 1), 36)),
    }),
    ((4, 2), 1, {0: ((F(-5, 48), F(-1, 48), F(5, 48), F(1, 48)),
                     lambda p: F((p + 5) * (p + 1) * (p - 1), 48))}),
    ((2, 2, 2), 1, {0: ((F(1, 8), F(-1, 8), F(-1, 8), F(1, 8)),
                        lambda p: F((p + 1) * (p - 1) ** 2, 8))}),
    # corrected: was (p+1)(p-2)^2/12, which is not an integer at p = 5, 7, 13
    ((3, 2, 1), 1, {0: ((F(1, 12), F(-1, 12), F(-1, 12), F(1, 12)),
                        lambda p: F((p + 1) * (p - 1) ** 2, 12))}),
    ((4, 1, 1), 1, {0: ((F(-1, 12), F(-1, 24), F(1, 12), F(1, 24)),
                        lambda p: F((p + 2) * (p + 1) * (p - 1), 24))}),
    ((2, 2, 1, 1), 1, {0: ((F(1, 2), F(-7, 4), F(9, 4), F(-5, 4), F(1, 4)),
                           lambda p: F((p - 1) ** 3 * (p - 2), 4))}),
    # corrected: was (p-1)(p-2)^2/6, of degree 3 where n + R - 6 = 4
    ((3, 1, 1, 1), 1, {0: ((F(-2, 3), F(2, 3), F(1, 2), F(-2, 3), F(1, 6)),
                           lambda p: F((p + 1) * (p - 1) * (p - 2) ** 2, 6))}),
    # corrected: was p(p-1)(p-2)(p-3)(p-4)/4, which is 30 at p = 5, so
    # |A| = 40 where the hand count in test_counting gives |A| = 104
    ((2, 1, 1, 1, 1), 1, {0: ((F(-9, 2), F(51, 4), F(-57, 4), F(8), F(-9, 4), F(1, 4)),
                              lambda p: F((p - 1) * (p - 2) * (p - 3)
                                          * (p * p - 3 * p + 3), 4))}),
    ((1,) * 6, 1, {0: ((F(40), F(-250, 3), F(235, 3), F(-127, 3), F(27, 2),
                        F(-7, 3), F(1, 6)),
                       lambda p: F((p - 2) * (p - 3) * (p - 4)
                                   * (p**3 - 5 * p * p + 10 * p - 10), 6))}),
]


def _poly_eval(coeffs, p):
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * p + c
    return acc


def _selfcheck_reference_rows():
    """Guard against transcription slips: every coefficient tuple must agree
    with its factored form at several primes."""
    for parts, modulus, branches in REFERENCE_ROWS:
        for cls, (coeffs, factored) in branches.items():
            for p in (5, 7, 11, 13, 101):
                if modulus > 1 and p % modulus != cls:
                    continue
                assert _poly_eval(coeffs, p) == factored(p), (parts, cls, p)


def _reference_value(parts, modulus, branches, p):
    cls = p % modulus if modulus > 1 else 0
    coeffs, _ = branches[cls]
    return _poly_eval(coeffs, p)


def _primes_in_class(cls, modulus, count, floor):
    out = []
    q = max(5, floor)
    while len(out) < count:
        if q > 3 and all(q % d for d in range(2, int(q**0.5) + 1)):
            if modulus == 1 or q % modulus == cls:
                out.append(q)
        q += 1
    return out


def _line_sum_counts(P, p):
    """How many multisets of P nonzero multipliers sum to each residue."""
    counts = [0] * p
    for multipliers in itertools.combinations_with_replacement(range(1, p), P):
        counts[sum(multipliers) % p] += 1
    return counts


def literal_marked_count(parts, p):
    """C(p-2, n-3)·|A|/(p-1), counted literally: P1, P2, P3 sit on the lines
    <(1,0)>, <(0,1)>, <(1,1)>; P4..Pn on each (n-3)-subset of the lines
    <(1,t)>, t = 2..p-1, in order of t.  Count the choices of P_i nonzero
    multipliers per line whose columns sum to zero, over all subsets, and
    divide by the p-1 scalars (they act freely when some part is 1)."""
    lines = [(1, 0), (0, 1), (1, 1)] + [(1, t) for t in range(2, p)]
    line_sums = {P: _line_sum_counts(P, p) for P in set(parts)}

    def place(sums, P, line):
        # sums[x, y]: configurations so far whose columns add up to (x, y)
        out = np.zeros_like(sums)
        for s, c in enumerate(line_sums[P]):
            out += c * np.roll(sums, (s * line[0] % p, s * line[1] % p), axis=(0, 1))
        return out

    marked = np.zeros((p, p), dtype=np.int64)
    marked[0, 0] = 1
    for P, line in zip(parts[:3], lines[:3]):
        marked = place(marked, P, line)
    total = 0
    for subset in itertools.combinations(lines[3:], len(parts) - 3):
        sums = marked
        for P, line in zip(parts[3:], subset):
            sums = place(sums, P, line)
        total += int(sums[0, 0])
    assert total % (p - 1) == 0, (parts, p, total)
    return total // (p - 1)


def test_reference_rows_match_literal_marked_count():
    """Every reference row with a part 1 equals the literal marked count and
    count_types_rank2 at p = 5, 7, 11, 13; the three corrected rows at
    deg + 2 primes."""
    corrected = {(3, 2, 1): 17, (3, 1, 1, 1): 19, (2, 1, 1, 1, 1): 23}
    checks = 0
    for parts, modulus, branches in REFERENCE_ROWS:
        if 1 not in parts:
            continue
        last = corrected.get(parts, TABLE_PRIMES[-1])
        for p in (5, 7, 11, 13, 17, 19, 23):
            if p > last:
                break
            literal = literal_marked_count(parts, p)
            assert literal == count_types_rank2(PartitionType(parts), p).T, (parts, p)
            assert literal == _reference_value(parts, modulus, branches, p), (parts, p)
            checks += 1
    # 13 rows at four primes, and the corrected rows at 1, 2 and 3 more
    assert checks == 4 * 13 + 1 + 2 + 3, checks


def test_criterion_1_reference_table_values():
    """Closed-form counts reproduce the reference table at p = 5, 7, 11, 13."""
    _selfcheck_reference_rows()
    start = time.perf_counter()
    checks = 0
    mismatches = []
    for parts, modulus, branches in REFERENCE_ROWS:
        part = PartitionType(parts)
        for p in TABLE_PRIMES:
            expected = _reference_value(parts, modulus, branches, p)
            actual = count_types_rank2(part, p).T
            checks += 1
            if expected != actual:
                mismatches.append((str(part), p, expected, actual))
    elapsed = time.perf_counter() - start
    bad_rows = sorted({row for row, *_ in mismatches})
    status = "PASS" if not mismatches else "FAIL"
    print(f"ACCEPTANCE 1 reference table at p=5,7,11,13: {status} — "
          f"{checks - len(mismatches)}/{checks} evaluations agree "
          f"({elapsed:.2f}s)" + (f"; diverging rows: {', '.join(bad_rows)}"
                                 if bad_rows else ""))
    for row, p, expected, actual in mismatches:
        print(f"  {row} at p={p}: reference={expected}  computed={actual}")
    assert not mismatches, (
        f"{len(mismatches)} reference evaluations diverge (rows: {bad_rows})")
    assert elapsed < 1.0, f"budget 1s exceeded: {elapsed:.2f}s"


def test_criterion_2_polynomial_fits():
    """Exact interpolation from >= 6 primes > 3 (held-out verified) matches
    the reference coefficients."""
    _selfcheck_reference_rows()
    start = time.perf_counter()
    fitted = 0
    mismatches = []
    for parts, modulus, branches in REFERENCE_ROWS:
        part = PartitionType(parts)
        need = max(default_degree_bound(part) + 2, 6)
        pool = []
        for cls in branches:
            pool += _primes_in_class(cls, modulus, need, floor=part.n - 1)
        try:
            fit = fit_partition_polynomial(part, modulus=modulus, primes=pool)
        except PolynomialFitError as exc:
            mismatches.append((str(part), "-", f"did not fit: {exc}", ""))
            continue
        fitted += 1
        for cls, (coeffs, _) in branches.items():
            got = fit.branches[cls].coeffs
            if got != coeffs:
                mismatches.append((str(part), cls, coeffs, got))
    elapsed = time.perf_counter() - start
    bad_rows = sorted({row for row, *_ in mismatches})
    status = "PASS" if not mismatches else "FAIL"
    print(f"ACCEPTANCE 2 polynomial fits (>=6 primes, held-out verified): "
          f"{status} — {fitted}/{len(REFERENCE_ROWS)} rows fit exactly as "
          f"polynomials; {len(REFERENCE_ROWS) - len(bad_rows)}/"
          f"{len(REFERENCE_ROWS)} match the reference coefficients "
          f"({elapsed:.2f}s)"
          + (f"; diverging rows: {', '.join(bad_rows)}" if bad_rows else ""))
    for row, cls, expected, got in mismatches:
        print(f"  {row} (class {cls}): reference coeffs {expected}")
        print(f"  {' ' * len(row)}            fitted coeffs {got}")
    assert not mismatches, (
        f"fitted polynomials diverge from the reference on rows {bad_rows}")
    assert elapsed < 5.0, f"budget 5s exceeded: {elapsed:.2f}s"


def test_criterion_3_rank2_oracle_equivalence():
    """Rank-2 closed forms vs exhaustive orbit counts: p=3 R=3..6,
    p=5 R=3..6, p=7 R=3..5."""
    start = time.perf_counter()
    cases = [(3, (3, 4, 5, 6)), (5, (3, 4, 5, 6)), (7, (3, 4, 5))]
    checks = 0
    mismatches = []
    lines = []
    for p, Rs in cases:
        for R in Rs:
            table = count_orbits(p, 2, R)
            formula = {part: count_types_rank2(part, p).T
                       for part in admissible_partitions(p, 2, R)}
            keys = sorted(set(formula) | set(table.by_partition),
                          key=lambda q: (q.n, q.parts))
            for part in keys:
                got, want = table.by_partition.get(part, 0), formula.get(part, 0)
                checks += 1
                if got != want:
                    mismatches.append((p, R, str(part), got, want))
                    lines.append(f"  p={p} R={R} {part}: oracle={got} "
                                 f"closed-form={want}  MISMATCH")
            checks += 1
            if table.total != sum(formula.values()):
                mismatches.append((p, R, "total", table.total, sum(formula.values())))
                lines.append(f"  p={p} R={R} total: oracle={table.total} "
                             f"closed-form={sum(formula.values())}  MISMATCH")
    elapsed = time.perf_counter() - start
    status = "PASS" if not mismatches else "FAIL"
    print(f"ACCEPTANCE 3 rank-2 oracle equivalence: {status} — "
          f"{checks - len(mismatches)}/{checks} comparisons agree "
          f"({elapsed:.1f}s)")
    for line in lines:
        print(line)
    assert not mismatches, (
        f"{len(mismatches)} of {checks} comparisons diverge: the closed "
        "forms count marking-normalized scalar orbits, the oracle counts "
        "full-group orbits; they coincide only for rank 1 and p = 2 "
        "-- see README 'Known divergences'")
    assert elapsed < 300.0, f"budget 300s exceeded: {elapsed:.1f}s"


def test_criterion_4_rank1_oracle_equivalence():
    """Rank-1 closed form vs exhaustive orbit counts, all p in
    {2, 3, 5, 7, 11, 13}, R = 3..10 (p = 2 is the parity rule)."""
    start = time.perf_counter()
    checks = 0
    for p in (2, 3, 5, 7, 11, 13):
        for R in range(3, 11):
            got = count_orbits(p, 1, R).total
            want = count_types_rank1(R, p).T
            assert got == want, (p, R, got, want)
            checks += 1
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE 4 rank-1 oracle equivalence: PASS — {checks} cases "
          f"({elapsed:.1f}s)")
    assert elapsed < 10.0, f"budget 10s exceeded: {elapsed:.1f}s"


def test_criterion_5_klein_counts():
    """Klein 4-group (p=2, k=2) parity-rule counts vs exhaustive orbit
    counts, R = 3..10, per partition and in total."""
    start = time.perf_counter()
    checks = 0
    for R in range(3, 11):
        table = count_orbits(2, 2, R)
        for part in admissible_partitions(2, 2, R):
            assert table.count(part) == klein_type_count(part), (R, part)
            checks += 1
        assert table.total == count_types_klein(R), R
        checks += 1
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE 5 Klein 4-group counts: PASS — {checks} comparisons "
          f"({elapsed:.1f}s)")
    assert elapsed < 10.0, f"budget 10s exceeded: {elapsed:.1f}s"


def _all_partitions_up_to(total_max):
    for s in range(1, total_max + 1):
        def rec(remaining, cap):
            if remaining == 0:
                yield ()
                return
            for first in range(min(cap, remaining), 0, -1):
                for rest in rec(remaining - first, first):
                    yield (first,) + rest
        yield from rec(s, s)


def test_criterion_6_distributions_match_bruteforce():
    """Dynamic-programming distributions equal literal enumeration for every
    part multiset of sum <= 8, p in {3, 5, 7}, both variants, two weight
    vectors."""
    start = time.perf_counter()
    assert full_distribution((3,), (1,), 3).counts == (4, 3, 3)
    checks = 0
    for p in (3, 5, 7):
        for parts in _all_partitions_up_to(8):
            n = len(parts)
            for weights in ((1,) * n,
                            tuple(1 + (i % (p - 1)) for i in range(1, n + 1))):
                for zfc in (False, True):
                    dp = full_distribution(parts, weights, p, zero_first_column=zfc)
                    brute = distribution_bruteforce(parts, weights, p,
                                                    zero_first_column=zfc)
                    assert dp.counts == brute.counts, (p, parts, weights, zfc)
                    checks += 1
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE 6 residue distributions vs brute force: PASS — "
          f"{checks} comparisons ({elapsed:.1f}s)")
    assert elapsed < 30.0, f"budget 30s exceeded: {elapsed:.1f}s"


def test_criterion_7_recursion_order_independence():
    """|A| is independent of the order parts are fed to the recursion, for
    every admissible partition with R <= 8 and p in {5, 7, 11}."""
    start = time.perf_counter()
    checks = 0
    for p in (5, 7, 11):
        for R in range(3, 9):
            for part in admissible_partitions(p, 2, R):
                ref = card_A(part, p)
                for perm in set(itertools.permutations(part.parts)):
                    assert card_A(perm, p) == ref, (p, part, perm)
                    checks += 1
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE 7 recursion order independence: PASS — {checks} "
          f"orderings ({elapsed:.1f}s)")
    assert elapsed < 30.0, f"budget 30s exceeded: {elapsed:.1f}s"


def test_criterion_8_recursion_identities():
    """Shortcut, base-case, and unitary evaluations agree with the general
    recursion; two closed-form identities hold at p = 5, 7, 11, 13."""
    checks = 0
    for p in (5, 7, 11, 13):
        for R in range(3, 9):
            for part in admissible_partitions(p, 2, R):
                if part.n == 2:
                    assert card_A(part, p) == card_A_base2(*part.parts, p)
                    checks += 1
                if part.n == 3:
                    assert card_A(part, p) == card_A_base3(*part.parts, p)
                    checks += 1
                if sum(1 for P in part.parts if P % p not in (0, 1)) >= 2:
                    assert card_A_shortcut(part, p) == card_A(part, p), (p, part)
                    checks += 1
        for n in range(2, min(9, p + 1) + 1):
            assert card_A_unitary(n, p) == card_A((1,) * n, p), (p, n)
            checks += 1
        # worked identities
        assert card_A((1, 1, 2, 2), p) == (p - 1) ** 4 // 4
        assert count_types_rank2(PartitionType((2, 2, 1, 1)), p).T \
            == (p - 2) * (p - 1) ** 3 // 4
        checks += 2
    print(f"ACCEPTANCE 8 recursion identities: PASS — {checks} checks")


def _bounded_partition_count(ell, max_parts, max_size):
    def rec(remaining, parts_left, cap):
        if remaining == 0:
            return 1
        if parts_left == 0:
            return 0
        return sum(rec(remaining - first, parts_left - 1, first)
                   for first in range(1, min(cap, remaining) + 1))
    return rec(ell, max_parts, max_size)


def test_criterion_9_gaussian_binomials():
    """Gaussian binomial coefficients count bounded partitions (brute force,
    m, n <= 6) and are palindromic with binomial sum (m, n <= 8)."""
    checks = 0
    for m in range(7):
        for n in range(7):
            g = gaussian_binomial(m, n)
            for ell, coeff in enumerate(g.coeffs):
                assert coeff == _bounded_partition_count(ell, m, n)
                checks += 1
    for m in range(9):
        for n in range(9):
            g = gaussian_binomial(m, n)
            assert g.coeffs == tuple(reversed(g.coeffs))
            assert g(1) == binomial(m + n, m)
            checks += 2
    print(f"ACCEPTANCE 9 Gaussian binomials: PASS — {checks} checks")
