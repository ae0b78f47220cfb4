"""Brute-force ground truth by exhaustive enumeration.

Everything here counts by listing actual objects: generating column
multisets over F_p^k with their orbits under the full automorphism group
GL_k(F_p).  Nothing is shared with the formula modules beyond basic
binomials, so agreement between the two routes is meaningful evidence.

Vectors are numbered, never listed: in the lexicographic order of the
nonzero vectors of F_p^k, vector i (from 0) is numbered v = i + 1 =
u*p + w, so (u, w) = divmod(v, p), and for k = 1 the vector is (w,), the
case u = 0.  The line (cyclic subgroup) of (u, w) is numbered w/u mod p,
or p when u = 0.  Nothing is tabulated over F_p: a memo holds only the
scalars that the rows meet.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import NamedTuple

from .exact import multichoose
from .partitions import ActionParams, PartitionType, check_prime, check_rank

DEFAULT_MULTISET_LIMIT = 10**7
DEFAULT_STEP_LIMIT = 10**10


class GuardExceeded(RuntimeError):
    """Enumeration refused: the estimated work exceeds the feasibility guard."""


def _guard_multisets(p: int, k: int, R: int, m: int, multiset_limit) -> None:
    limit = DEFAULT_MULTISET_LIMIT if multiset_limit is None else int(multiset_limit)
    if m > limit:
        raise GuardExceeded(
            f"(p={p}, k={k}, R={R}): about {m} column multisets exceeds the "
            f"limit of {limit}"
        )


def group_order(p: int, k: int) -> int:
    """|GL_k(F_p)|."""
    order = 1
    for i in range(k):
        order *= p**k - p**i
    return order


def check_feasible(p: int, k: int, R: int, multiset_limit=None, step_limit=None) -> None:
    """Raise GuardExceeded when the work of ``count_orbits`` is out of budget.

    The estimate follows the algorithm: ``count_orbits`` walks at most
    ``multichoose(R-1-k, p^k-1)`` rows, since removing one e_k and, for
    k = 2, one e_1 from a row walked for (M, M2), and its forced last
    column, leaves a distinct nondecreasing prefix of R-1-k columns.  Each
    row is compared with one sorted R-column image per candidate basis: an
    ordered choice of k of the R columns, at most ``min(R!/(R-k)!, |GL_k|)``
    of them.  Memory is one R-column representative per orbit.
    """
    ActionParams(p, k, R)
    m = multichoose(R - 1 - k, p**k - 1)
    _guard_multisets(p, k, R, m, multiset_limit)
    step_limit = DEFAULT_STEP_LIMIT if step_limit is None else int(step_limit)
    steps = m * R * min(math.perm(R, k), group_order(p, k))
    if steps > step_limit:
        raise GuardExceeded(
            f"(p={p}, k={k}, R={R}): about {steps} canonicalization steps "
            f"exceeds the limit of {step_limit}"
        )


def _walk(p: int, k: int, n: int, sums: tuple, caps: tuple, lo: int = 1, skip: int = 0,
          pruned=None):
    """Nondecreasing n-tuples of vector numbers (see the module docstring)
    from ``lo`` on, none equal to ``skip``, whose coordinates sum to
    -``sums`` mod p, in lexicographic order.  A number below p (u = 0)
    occurs at most caps[0] times, any other at most caps[1] times.  The
    first n-1 entries are walked depth first and the last is forced by the
    sums; ``pruned(prefix)`` true drops every tuple extending ``prefix``."""
    top = p**k
    if n < 2:  # nothing to walk: the forced entry alone, or nothing
        f = -sums[0] % p * p + -sums[1] % p
        if n == 0 and f == 0 or n == 1 and f >= lo and f != skip:
            yield (f,)[:n]
        return
    stack = [((), 0, *sums)]  # (prefix, copies of its last entry, coordinate sums)
    while stack:
        free, run, su, sw = stack.pop()
        last, left = free[-1] if free else lo, n - len(free)
        if left == 2:  # each v = (u, w) and its forced f = (fu, c - w), with f >= v
            c = -sw % p
            for u in range(last // p, top // p):
                fu, cap, base = -(su + u) % p, caps[u > 0], u * p
                start = max(base, last) - base
                if fu > u:
                    ws = range(start, p)
                elif fu == u:
                    ws = itertools.chain(range(start, c // 2 + 1),
                                         range(max(start, c + 1), (c + p) // 2 + 1))
                else:
                    continue
                for w in ws:
                    v, f = base + w, fu * p + (c - w) % p
                    r = run + 1 if v == last else 1
                    if (r < cap or r == cap and f != v) and v != skip and f != skip:
                        yield free + (v, f)
            continue
        children = []
        for u in range(last // p, top // p):
            cap, base = caps[u > 0], u * p
            above = (top - base - p) * caps[1]  # room in the blocks after u
            for v in range(max(base, last), base + p):
                r = run + 1 if v == last else 1
                if r > cap or v == skip:
                    continue
                # room after v: its spare copies, then every larger number
                room = cap - r + (base + p - 1 - v) * cap + above
                prefix = free + (v,)
                if room >= left - 1 and (pruned is None or not pruned(prefix)):
                    children.append((prefix, r, su + u, sw + v - base))
        stack.extend(reversed(children))


class _Inverses(dict):
    """1/a mod p, computed for each a = 1..p-1 when first asked for."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        self.p = p

    def __missing__(self, a: int) -> int:
        self[a] = inv = pow(a, -1, self.p)
        return inv


def _imager(p: int, k: int):
    """The candidate images of rows over F_p^k.

    Returns ``images(row)``, a generator of the sorted images (lists) of a
    sorted row of vector numbers (see the module docstring) under each
    candidate map for its orbit minimum, the identity excepted.

    Of two sorted tuples of equal length, the smaller is the one whose
    multiplicity vector, read in vector order, is larger.  The first vector
    is e_k, so the minimizing g sends a column c_j of maximal multiplicity M
    to e_k.  For k = 1 that fixes g = c_j^{-1}.  For k = 2, the next
    vectors, (0,2)..(0,p-1), are the multiples of e_2 = (0,1), whose
    preimages t*c_j depend on c_j alone, and then comes e_1 = (1,0), the
    smallest vector off that line, which a map fixing e_2 can reach from
    any column off the line of c_j.  So the preimage c_i of e_1 has the
    largest multiplicity among the columns off the line of c_j, and
    g = [c_i c_j]^{-1}.  That largest multiplicity is M unless every column
    of multiplicity M lies on one line, and then it is the same for every
    c_j.  These conditions are necessary, so the least of the row and its
    images is the orbit minimum.  Maps come from one column per distinct
    value.
    """
    inverse = _Inverses(p)

    def images(row):
        counts = _counts(row)
        M = max(counts.values())
        tops = [v for v, m in counts.items() if m == M]
        if k == 1:  # g = c_j^{-1}
            for c in tops:
                if c != 1:
                    d = inverse[c]
                    yield sorted([d * v % p for v in row])
            return
        uw = [divmod(v, p) for v in row]
        line = {v: w * inverse[u] % p if u else p for v, (u, w) in zip(row, uw)}
        top_lines = {line[c] for c in tops}
        if len(top_lines) == 1:  # c_i: the most frequent columns off that line
            off = {v: m for v, m in counts.items() if line[v] not in top_lines}
            most = max(off.values(), default=0)
            partners = [v for v, m in off.items() if m == most]
        else:
            partners = tops
        # g v = d (D(v, c_j), D(c_i, v)) with D(a, b) = a_u b_w - a_w b_u
        # and d = 1/D(c_i, c_j): g c_j = e_2, g c_i = e_1
        against = {}  # D(c_i, v) for every column v
        for cj in tops:
            ju, jw = divmod(cj, p)
            dj = [(u * jw - w * ju) % p for u, w in uw]
            for ci in partners:
                if line[ci] == line[cj] or (cj, ci) == (1, p):
                    continue
                iu, iw = divmod(ci, p)
                if ci not in against:
                    against[ci] = [(iu * w - iw * u) % p for u, w in uw]
                d = inverse[(iu * jw - iw * ju) % p]
                yield sorted([d * a % p * p + d * b % p for a, b in zip(dj, against[ci])])

    return images


def _counts(row) -> dict:
    """Multiplicity of each entry of ``row``, in order of first appearance."""
    counts = {}
    for v in row:
        counts[v] = counts.get(v, 0) + 1
    return counts


def _below(row, images) -> bool:
    """Whether one of ``images(row)`` sorts below the row itself; the first
    one that does ends the search."""
    row = list(row)
    return any(image < row for image in images(row))


def _spans(row, p: int, k: int) -> bool:
    """Whether the vector numbers ``row`` span F_p^k: for k = 2, some column
    lies off the line of the first."""
    if len(row) < k:
        return False
    u0, w0 = divmod(row[0], p)
    return k == 1 or any((v // p * w0 - v % p * u0) % p for v in row)


def _columns(rows, p: int, k: int) -> list:
    """Column tuples of rows of vector numbers (see the module docstring).
    Rows share one tuple per distinct number: an orbit table keeps them all."""
    vec = {v: divmod(v, p)[2 - k:] for v in set().union(*rows)}.__getitem__
    return [tuple(map(vec, row)) for row in rows]


def enumerate_generating_sets(p: int, k: int, R: int, multiset_limit=None):
    """Yield every generating column multiset (zero row sums, rank k, no zero
    columns) once, columns ascending, in lexicographic order; the guard
    counts the walk's prefixes."""
    ActionParams(p, k, R)
    _guard_multisets(p, k, R, multichoose(R - 1, p**k - 1), multiset_limit)
    for row in _walk(p, k, R, (0, 0), (R, R)):
        if _spans(row, p, k):
            yield tuple(divmod(v, p)[2 - k:] for v in row)


def _numbers(columns, p: int, k: int) -> list:
    """Sorted vector numbers (see the module docstring) of columns over
    F_p^k; names a column of the wrong length or zero mod p."""
    out = []
    for v in columns:
        r = tuple(c % p for c in v)
        if len(r) != k:
            raise ValueError(f"column {tuple(v)} does not have k = {k} entries")
        if not any(r):
            raise ValueError(f"column {tuple(v)} is zero mod {p}")
        out.append(r[0] * p + r[1] if k == 2 else r[0])
    return sorted(out)


def _partition(row, p: int, inverse) -> PartitionType:
    """Partition type of a row of vector numbers: the multiset of its
    columns' counts per line (see the module docstring); ``inverse`` is an
    ``_Inverses(p)``."""
    lines = _counts([w * inverse[u] % p if u else p
                     for u, w in map(divmod, row, itertools.repeat(p))])
    return PartitionType._descending(tuple(sorted(lines.values(), reverse=True)))


def classify_partition(columns, p: int, k: int = 2) -> PartitionType:
    """Partition type of a column multiset of rank k: group columns by the
    cyclic subgroup they span (its line) and take the multiset of group
    sizes."""
    check_prime(p)
    check_rank(k)
    return _partition(_numbers(columns, p, k), p, _Inverses(p))


class OrbitTable(NamedTuple):
    """Orbit counts bucketed by partition type, plus canonical representatives.
    ``count`` is the orbit count of one partition type; it replaces
    ``tuple.count``."""

    p: int
    k: int
    R: int
    by_partition: dict
    total: int
    representatives: tuple

    def count(self, partition) -> int:
        part = partition if isinstance(partition, PartitionType) else PartitionType(tuple(partition))
        return self.by_partition.get(part, 0)


def count_orbits(p: int, k: int, R: int, multiset_limit=None, step_limit=None) -> OrbitTable:
    """Orbits of GL_k(F_p) acting columnwise on generating column multisets.

    Canonical representative of an orbit: the minimum, over all group
    elements, of the sorted image multiset.  Each orbit is listed once, by
    its minimum (orderly enumeration).  By ``_imager``'s lemma the minimum
    holds e_k at the maximal multiplicity M and, for k = 2, e_1 at the
    largest multiplicity M2 off the line of e_k.  So for each (M, M2) one
    walk (``_walk``) lists the other columns: nondecreasing, without e_k
    and e_1, at most M times on the line of e_k and M2 times off it, the
    last one forced by the zero sum.  A row is kept when none of its
    candidate images sorts below it.

    Once a walk passes e_1 (at once for k = 1), its prefix with the fixed
    columns is a prefix of the row's sorted columns; a map that sorts the
    prefix below itself sorts every row extending it below that row, so
    such a prefix is not extended.  A prefix is checked only when more
    vectors lie above its last column than a row has columns: below that,
    checking its few rows costs no more.
    The kept rows are sorted and classified by their columns' counts per
    line.
    """
    check_feasible(p, k, R, multiset_limit, step_limit)
    images, top = _imager(p, k), p**k
    reps = []
    for M in range(1, R + 1):
        for M2 in range(1, min(M, R - M) + 1) if k == 2 else (0,):
            head, mid = (1,) * M, (p,) * M2  # e_k is number 1, and e_1 = (1, 0) is p

            def row(free):
                split = bisect.bisect_left(free, p)
                return head + free[:split] + mid + free[split:]

            def pruned(free):
                v = free[-1]
                return (top - v > R and (k == 1 or v > p)
                        and _below(row(free), images))

            for free in _walk(p, k, R - M - M2, (M2, M), (M, M2), 2, p, pruned):
                full = row(free)
                if not _below(full, images):
                    reps.append(full)
    reps.sort()
    inverse = _Inverses(p)
    by_partition = _counts([_partition(full, p, inverse) for full in reps])
    return OrbitTable(p, k, R, by_partition, len(reps), tuple(_columns(reps, p, k)))


def canonical_form(columns, p: int, k: int):
    """Canonical representative of one rank-k multiset under the full group."""
    check_prime(p)
    check_rank(k)
    row = _numbers(columns, p, k)
    if not _spans(row, p, k):
        raise ValueError(f"columns do not span F_{p}^{k}")
    return _columns([min([row, *_imager(p, k)(row)])], p, k)[0]
