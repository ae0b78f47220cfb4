"""Brute-force ground truth by exhaustive enumeration.

Everything here counts by listing actual objects: generating column
multisets over F_p^k with their orbits under the full automorphism group
GL_k(F_p), and literal matrix enumerations for the weighted-sum
distributions.  Nothing is shared with the formula modules beyond basic
binomials, so agreement between the two routes is meaningful evidence.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from dataclasses import dataclass

from .exact import multichoose
from .partitions import PartitionType

DEFAULT_MULTISET_LIMIT = 10**7
DEFAULT_STEP_LIMIT = 10**10

ENV_STEP_LIMIT = "TOPOTYPE_GUARD_STEPS"


class GuardExceeded(RuntimeError):
    """Enumeration refused: the estimated work exceeds the feasibility guard."""


def _step_limit(step_limit):
    if step_limit is not None:
        return int(step_limit)
    env = os.environ.get(ENV_STEP_LIMIT)
    if env:
        return int(env)
    return DEFAULT_STEP_LIMIT


def _check_shape(k: int, R: int) -> None:
    if k not in (1, 2):
        raise ValueError("only ranks 1 and 2 are supported")
    if R < 3:
        raise ValueError("need R >= 3")


def _check_multisets(p: int, k: int, R: int, m: int, multiset_limit) -> None:
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

    The estimate follows the algorithm: ``multichoose(R-1-k, p^k-1)``
    normal-form prefixes, and for each multiset one sorted R-column image
    per candidate basis, of which there are at most ``min(R(R-1), |GL_2|)``
    for k = 2 and ``min(R, p-1)`` for k = 1.
    """
    _check_shape(k, R)
    m = multichoose(R - 1 - k, p**k - 1)
    _check_multisets(p, k, R, m, multiset_limit)
    step_limit = _step_limit(step_limit)
    bases = min(R * (R - 1), group_order(p, k)) if k == 2 else min(R, p - 1)
    steps = m * R * bases
    if steps > step_limit:
        raise GuardExceeded(
            f"(p={p}, k={k}, R={R}): about {steps} canonicalization steps "
            f"exceeds the limit of {step_limit}"
        )


def nonzero_vectors(p: int, k: int) -> list:
    """All nonzero vectors of F_p^k, lexicographically sorted."""
    return [v for v in itertools.product(range(p), repeat=k) if any(v)]


def gl_matrices(p: int, k: int) -> list:
    """All invertible k x k matrices over F_p (k = 1 or 2)."""
    if k == 1:
        return [((a,),) for a in range(1, p)]
    if k == 2:
        out = []
        for a, b, c, d in itertools.product(range(p), repeat=4):
            if (a * d - b * c) % p:
                out.append(((a, b), (c, d)))
        return out
    raise ValueError("only ranks 1 and 2 are supported")


def _survivors(p: int, k: int, R: int, fixed: tuple = ()):
    """Index form of every generating column multiset containing ``fixed``.

    Returns (vecs, array) where array rows are nondecreasing index tuples
    into vecs.  Enumeration: take the columns ``fixed``, choose the next
    R-1-len(fixed) columns as a multiset, force the last column to the
    negated sum; keep it when the forced column is nonzero, does not sort
    below the chosen prefix (each multiset appears exactly once), and the
    full set has rank k.
    """
    import numpy as np

    vecs = nonzero_vectors(p, k)
    # Each column packed as base-B digits; B exceeds any coordinate sum, so
    # one integer sum keeps every coordinate sum in its own digit.
    B = p * R
    packed = [v[0] * B + v[-1] if k == 2 else v[0] for v in vecs]
    base = sum(packed[i] for i in fixed)
    rows = []
    for prefix in itertools.combinations_with_replacement(range(len(vecs)), R - 1 - len(fixed)):
        s = base + sum(map(packed.__getitem__, prefix))
        if k == 2:
            sx, sy = divmod(s, B)
            fi = -sx % p * p + -sy % p - 1  # index of (-sx, -sy) mod p
        else:
            fi = -s % p - 1
        if fi < 0 or (prefix and fi < prefix[-1]):
            continue
        cols = fixed + prefix + (fi,)
        if k == 2:
            if not _has_rank2(cols, vecs, p):
                continue
        rows.append(cols)
    arr = np.array(rows, dtype=np.int64) if rows else np.zeros((0, R), dtype=np.int64)
    return vecs, np.sort(arr, axis=1)


def _has_rank2(cols, vecs, p) -> bool:
    v0 = vecs[cols[0]]
    for i in cols[1:]:
        v = vecs[i]
        if (v0[0] * v[1] - v0[1] * v[0]) % p:
            return True
    return False


def enumerate_generating_sets(p: int, k: int, R: int, multiset_limit=None):
    """Yield every generating column multiset (zero row sums, rank k, no zero
    columns), each exactly once, columns sorted ascending."""
    _check_shape(k, R)
    _check_multisets(p, k, R, multichoose(R, p**k - 1), multiset_limit)
    vecs, arr = _survivors(p, k, R)
    for row in arr:
        yield tuple(vecs[i] for i in row)


def _orbit_minima(arr, p: int, k: int):
    """Encoded orbit minimum of every row of ``arr`` under GL_k(F_p).

    Rows are nondecreasing index tuples into ``nonzero_vectors(p, k)`` of
    rank k; a row's code is its sorted image read as base-|vecs| digits, so
    the smallest code is the lexicographically smallest sorted image.  That
    image contains the basis e_1..e_k: e_k is the smallest nonzero vector,
    and a map fixing the e_k line pointwise sends any column off that line
    to e_1.  So the minimizing g sends some k columns of the row to the
    basis, and g = [c_i c_j]^{-1} over ordered pairs of independent columns
    (g = c_i^{-1} for k = 1) reaches it.  Columns repeating an earlier
    value give the same g and are skipped.
    """
    import numpy as np

    n, R = arr.shape
    V = p**k - 1
    cols = np.array(nonzero_vectors(p, k), dtype=np.int64)[arr]  # (n, R, k)
    inverse = np.array([0] + [pow(a, p - 2, p) for a in range(1, p)], dtype=np.int64)
    first = np.ones((n, R), dtype=bool)
    first[:, 1:] = arr[:, 1:] != arr[:, :-1]
    powers = V ** np.arange(R - 1, -1, -1, dtype=np.int64)
    best = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    x = cols[..., 0]
    y = cols[..., k - 1]
    for basis in itertools.permutations(range(R), k):
        i, j = basis[0], basis[-1]
        if k == 1:
            det = x[:, i]
        else:
            det = (x[:, i] * y[:, j] - x[:, j] * y[:, i]) % p
        rows = np.flatnonzero(first[:, i] & first[:, j] & (det != 0))
        if not rows.size:
            continue
        d = inverse[det[rows]][:, None]
        xr, yr = x[rows], y[rows]
        if k == 1:
            image = d * xr % p
        else:  # g = d * [[yj, -xj], [-yi, xi]]; index of (u, w) is u*p + w - 1
            xi, yi = x[rows, i, None], y[rows, i, None]
            xj, yj = x[rows, j, None], y[rows, j, None]
            image = d * (yj * xr - xj * yr) % p * p + d * (xi * yr - yi * xr) % p
        codes = np.sort(image - 1, axis=1) @ powers
        best[rows] = np.minimum(best[rows], codes)
    return best


def _decode(code: int, vecs: list, R: int) -> tuple:
    V = len(vecs)
    digits = []
    for _ in range(R):
        digits.append(code % V)
        code //= V
    return tuple(vecs[i] for i in reversed(digits))


def classify_partition(columns, p: int, k: int = 2) -> PartitionType:
    """Partition type of a column multiset: group columns by the cyclic
    subgroup they span (projective normalization: first nonzero coordinate
    scaled to 1) and take the multiset of group sizes."""
    buckets = Counter()
    for v in columns:
        pivot = next(c for c in v if c % p)
        inv = pow(pivot, p - 2, p)
        buckets[tuple((c * inv) % p for c in v)] += 1
    return PartitionType(tuple(sorted(buckets.values(), reverse=True)))


@dataclass(frozen=True)
class OrbitTable:
    """Orbit counts bucketed by partition type, plus canonical representatives."""

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
    elements, of the sorted image multiset.  It contains the basis, so only
    multisets containing the basis are enumerated, and each is
    canonicalized by the maps that send some of its columns to the basis
    (see ``_orbit_minima``).
    """
    import numpy as np

    check_feasible(p, k, R, multiset_limit, step_limit)
    V = p**k - 1
    if V**R > 2**62:
        raise GuardExceeded(f"encoding width |V|^R = {V**R} exceeds 64-bit range")
    basis = tuple(p ** (k - 1 - c) - 1 for c in range(k))  # indices of e_1..e_k
    vecs, arr = _survivors(p, k, R, basis)
    if arr.shape[0] == 0:
        return OrbitTable(p, k, R, {}, 0, ())
    by_partition: dict = {}
    reps = []
    for code in np.unique(_orbit_minima(arr, p, k)).tolist():
        cols = _decode(code, vecs, R)
        reps.append(cols)
        part = classify_partition(cols, p, k)
        by_partition[part] = by_partition.get(part, 0) + 1
    return OrbitTable(p, k, R, by_partition, len(reps), tuple(reps))


def canonical_form(columns, p: int, k: int):
    """Canonical representative of one rank-k multiset under the full group."""
    import numpy as np

    vecs = nonzero_vectors(p, k)
    index = {v: i for i, v in enumerate(vecs)}
    row = np.array([sorted(index[tuple(c % p for c in v)] for v in columns)], dtype=np.int64)
    code = int(_orbit_minima(row, p, k)[0])
    if code == np.iinfo(np.int64).max:
        raise ValueError(f"columns do not span F_{p}^{k}")
    return _decode(code, vecs, row.shape[1])


def rank1_orbit_count(p: int, R: int, multiset_limit=None, step_limit=None) -> int:
    """Orbits of F_p^* acting elementwise on zero-sum R-multisets of nonzero
    residues (rank-1 ground truth)."""
    return count_orbits(p, 1, R, multiset_limit, step_limit).total


def distribution_bruteforce(parts, weights, p: int, zero_first_column: bool = False,
                            multiset_limit=None):
    """Literal enumeration of the weighted-sum distribution.

    Materializes the weighted sum of every matrix (one row per part, row i a
    multiset of P_i column indices, first column excluded when requested)
    and buckets by residue.  Kept deliberately independent of the dynamic-
    programming route.
    """
    import numpy as np

    from .residues import Distribution  # local import: keep module layers separate

    parts = tuple(parts)
    weights = tuple(weights)
    if len(weights) != len(parts):
        raise ValueError("need one weight per part")
    multiset_limit = DEFAULT_MULTISET_LIMIT if multiset_limit is None else int(multiset_limit)
    total = 1
    for P in parts:
        cols = p - 1 if zero_first_column else p
        total *= multichoose(P, cols)
    if total > multiset_limit:
        raise GuardExceeded(f"{total} matrices exceeds the limit of {multiset_limit}")
    cur = np.zeros(1, dtype=np.int64)
    first = 1 if zero_first_column else 0
    for P, w in zip(parts, weights):
        sums = []
        for combo in itertools.combinations_with_replacement(range(first, p), P):
            sums.append(sum(w * j for j in combo) % p)
        row = np.array(sums, dtype=np.int64)
        cur = (cur[:, None] + row[None, :]).ravel() % p
    counts = np.bincount(cur, minlength=p)
    return Distribution(tuple(int(c) for c in counts))


def write_representatives(table: OrbitTable, path) -> int:
    """Write orbit representatives, one multiset per line, each column as a
    comma-separated coordinate tuple.  Returns the number of lines."""
    lines = []
    for cols in table.representatives:
        lines.append(" ".join(",".join(str(c) for c in v) for v in cols))
    text = "\n".join(lines) + ("\n" if lines else "")
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
    return len(lines)
