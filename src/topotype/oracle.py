"""Brute-force ground truth by exhaustive enumeration.

Everything here counts by listing actual objects: generating column
multisets over F_p^k with their orbits under the full automorphism group
GL_k(F_p).  Nothing is shared with the formula modules beyond basic
binomials, so agreement between the two routes is meaningful evidence.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .exact import multichoose
from .partitions import ActionParams, PartitionType, check_prime, check_rank

DEFAULT_MULTISET_LIMIT = 10**7
DEFAULT_STEP_LIMIT = 10**10

_CHUNK = 1 << 14  # most normal-form prefixes expanded at once
_SLICE = 1 << 14  # most image entries (candidates x R) sorted at once


class GuardExceeded(RuntimeError):
    """Enumeration refused: the estimated work exceeds the feasibility guard."""


def _guard_encoding(p: int, k: int, R: int) -> None:
    """An orbit is encoded as an R-digit number in base p^k-1, which must
    stay below 2^62 to fit an int64."""
    V = p**k - 1
    if V**R > 2**62:
        raise GuardExceeded(f"encoding width |V|^R = {V**R} exceeds 64-bit range")


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

    The estimate follows the algorithm: ``multichoose(R-1-k, p^k-1)``
    normal-form prefixes, and for each multiset one sorted R-column image
    per candidate basis: an ordered choice of k of the R columns, at most
    ``min(R!/(R-k)!, |GL_k|)`` of them; ``_guard_encoding`` bounds the
    orbit codes.

    At the default limits the step guard never refuses alone: over every
    prime below 400, k = 1, 2 and R = 3..69, only (3, 2, 31) and (3, 2, 32)
    pass the multiset guard and fail the step guard, and the encoding guard
    refuses both.  ``step_limit`` matters only when a caller lowers it
    (``verify --guard-steps``).
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
    _guard_encoding(p, k, R)


def nonzero_vectors(p: int, k: int) -> list:
    """All nonzero vectors of F_p^k, lexicographically sorted.  The oracle
    computes this order, never lists it: index i is the vector
    (u, w) = divmod(i + 1, p), and for k = 1 the vector (w,), the case u = 0."""
    return [v for v in itertools.product(range(p), repeat=k) if any(v)]


def gl_matrices(p: int, k: int) -> list:
    """All invertible k x k matrices over F_p (k = 1 or 2)."""
    check_rank(k)
    if k == 1:
        return [((a,),) for a in range(1, p)]
    out = []
    for a, b, c, d in itertools.product(range(p), repeat=4):
        if (a * d - b * c) % p:
            out.append(((a, b), (c, d)))
    return out


def _spread(counts):
    """(owner, step) of every slot when item g owns ``counts[g]`` consecutive
    slots, numbered from 0 within each item."""
    import numpy as np

    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


def _runs(sizes, cap: int):
    """Split consecutive items into runs whose sizes sum to at most ``cap``;
    an item larger than ``cap`` is a run of its own.  Yields (start, stop)."""
    import numpy as np

    ends = np.cumsum(sizes)
    start = 0
    while start < len(ends):
        base = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, base + cap, side="right")), start + 1)
        yield start, stop
        start = stop


def _stream(p: int, k: int, R: int, fixed: tuple = ()):
    """Yield every generating column multiset containing ``fixed``, in chunks.

    Each chunk is an array of nondecreasing rows of vector indices (see
    ``nonzero_vectors``), grown from at most ``_CHUNK`` prefixes.
    Enumeration: after the columns ``fixed``, the next R-1-len(fixed)
    columns form a nondecreasing prefix, expanded level by level, each level
    holding only its new column, the coordinate sums and a parent index into
    the level before; the last column is forced to the negated sums.  A row
    is kept when the forced column is nonzero and does not sort below the
    prefix (so each multiset appears exactly once), and, for k = 2, when it
    has rank 2; only the rows kept are assembled.  Rows come in the
    lexicographic order of their prefixes.
    """
    import numpy as np

    V = p**k - 1
    x, y = divmod(np.arange(1, V + 1), p)
    chunk = _CHUNK
    # completions[l][a]: nondecreasing l-tuples with entries >= a (capped)
    completions = [np.array([min(multichoose(l, V - a), chunk + 1) for a in range(V)])
                   for l in range(R - len(fixed))]

    def last(cols):
        return cols[:, -1] if cols.shape[1] else np.zeros(len(cols), dtype=np.int64)

    def expand(cols, sx, sy):
        parent, step = _spread(V - last(cols))
        new = last(cols)[parent] + step
        return np.column_stack([cols[parent], new]), sx[parent] + x[new], sy[parent] + y[new]

    def finish(cols, sx, sy, left):
        new, levels = last(cols), []  # levels: (parent index, new column)
        for _ in range(left):
            parent, step = _spread(V - new)
            new = new[parent] + step
            sx, sy = sx[parent] + x[new], sy[parent] + y[new]
            levels.append((parent, new))
        forced = -sx % p * p + -sy % p - 1
        at = np.flatnonzero(forced >= new)
        tail = [forced[at]]
        for parent, col in reversed(levels):
            tail.append(col[at])
            at = parent[at]
        rows = np.column_stack([cols[at], *reversed(tail)])
        if fixed:
            return np.sort(np.column_stack([np.tile(fixed, (len(rows), 1)), rows]), axis=1)
        if k == 2:  # some column off the line of the first one
            c = rows[:, :1]
            rows = rows[((x[c] * y[rows] - y[c] * x[rows]) % p).any(axis=1)]
        return rows

    def chunks(cols, sx, sy, left):
        sizes = completions[left][last(cols)]
        for a, b in _runs(sizes, chunk):
            if sizes[a] > chunk:  # one prefix with too many completions: split it
                yield from chunks(*expand(cols[a:b], sx[a:b], sy[a:b]), left - 1)
                continue
            rows = finish(cols[a:b], sx[a:b], sy[a:b], left)
            if len(rows):
                yield rows

    base = np.array([sum(x[list(fixed)])]), np.array([sum(y[list(fixed)])])
    yield from chunks(np.zeros((1, 0), dtype=np.int64), *base, R - 1 - len(fixed))


def enumerate_generating_sets(p: int, k: int, R: int, multiset_limit=None):
    """Yield every generating column multiset (zero row sums, rank k, no zero
    columns) once, columns ascending; the guard counts the stream's prefixes."""
    ActionParams(p, k, R)
    _guard_multisets(p, k, R, multichoose(R - 1, p**k - 1), multiset_limit)
    for rows in _stream(p, k, R):
        yield from _columns(rows.tolist(), p, k)


def _inverses(p: int, dtype):
    """Table of 1/a mod p for a = 0..p-1, with 0 for a = 0."""
    import numpy as np

    return np.array([0] + [pow(a, p - 2, p) for a in range(1, p)], dtype=dtype)


def _lines(u, w, inverse):
    """Line of every column (u, w) of an array of vector coordinates (see
    ``nonzero_vectors``): w/u, or p if u = 0; ``inverse`` is ``_inverses``'
    table for p."""
    import numpy as np

    p = len(inverse)
    return np.where(u, w * inverse[u] % p, p)


def _run_lengths(rows):
    """Where each run of equal entries starts in the sorted rows of ``rows``
    (a boolean array of their shape), and the runs' lengths, row by row."""
    import numpy as np

    first = np.ones(rows.shape, dtype=bool)
    first[:, 1:] = rows[:, 1:] != rows[:, :-1]
    return first, np.diff(np.r_[np.flatnonzero(first), rows.size])


def _orbit_minima(arr, p: int, k: int):
    """Encoded orbit minimum of every row of ``arr`` under GL_k(F_p).

    Rows are nondecreasing tuples of vector indices (see
    ``nonzero_vectors``); a row's code is its sorted image read as base
    p^k - 1 digits, so the smallest code is the lexicographically smallest
    sorted image.  Rows not of rank k get the largest int64.

    Of two sorted tuples of equal length, the smaller is the one whose
    multiplicity vector, read in vector-index order, is larger.  Index 0 is
    e_k, so the minimizing g sends a column c_j of maximal multiplicity M to
    e_k.  For k = 1 that fixes g = c_j^{-1}.  For k = 2, indices 1..p-2 are
    the multiples of e_2 = (0,1), whose preimages t*c_j depend on c_j
    alone, and index p-1 is e_1 = (1,0), the smallest vector off that line,
    which a map fixing e_2 can reach from any column off the line of c_j.
    So the preimage c_i of e_1 has the largest multiplicity among the
    columns off the line of c_j, and g = [c_i c_j]^{-1}.  That largest
    multiplicity is M unless every column of multiplicity M lies on one
    line, and then it is the same for every c_j.  These conditions are
    necessary, so the minimum over the pairs that meet them is the orbit
    minimum.  Pairs are built from one position per distinct value, and
    their images are sorted in slices of at most ``_SLICE`` entries.
    """
    import numpy as np

    n, R = arr.shape
    V = p**k - 1
    # int32 products stay exact: coordinates and entries of g are below p
    X, Y = divmod((arr + 1).astype(np.int32 if p < 2**15 else np.int64), p)
    inverse = _inverses(p, X.dtype)
    # multiplicity at every position, from the run lengths of the sorted rows
    first, lengths = _run_lengths(arr)
    mult = np.repeat(lengths, lengths).reshape(n, R)
    top = first & (mult == mult.max(axis=1)[:, None])  # candidates for c_j
    if k == 1:  # g = c_j^{-1}; one dummy partner per row
        partner = np.zeros_like(top)
        partner[:, 0] = True
    else:
        lines = _lines(X, Y, inverse)
        low = np.where(top, lines, p + 1).min(axis=1)
        one_line = low == np.where(top, lines, -1).max(axis=1)
        off = np.where(lines != low[:, None], mult, 0).max(axis=1)
        partner = first & (mult == np.where(one_line, off, mult.max(axis=1))[:, None])
    powers = V ** np.arange(R - 1, -1, -1, dtype=np.int64)
    best = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    tops, partners = top.sum(axis=1), partner.sum(axis=1)
    partner_start = np.cumsum(partners) - partners
    for a, b in _runs(tops * partners * R, _SLICE):
        # every pair (c_i, c_j) of a partner and a top column of one row
        jr, jc = np.nonzero(top[a:b])
        jr += a
        pair, step = _spread(partners[jr])
        r, j = jr[pair], jc[pair]
        i = np.nonzero(partner[a:b])[1][partner_start[r] - partner_start[a] + step]
        if k == 2:
            off_line = lines[r, i] != lines[r, j]
            r, i, j = r[off_line], i[off_line], j[off_line]
        if not len(r):
            continue
        Xr, Yr = X[r], Y[r]
        if k == 1:
            image = inverse[Y[r, j]][:, None] * Yr % p
        else:  # g = d * [[yj, -xj], [-yi, xi]]
            xi, yi, xj, yj = X[r, i], Y[r, i], X[r, j], Y[r, j]
            d = inverse[(xi * yj - xj * yi) % p]
            g = [(d * e % p)[:, None] for e in (yj, -xj, -yi, xi)]
            image = (g[0] * Xr + g[1] * Yr) % p * p + (g[2] * Xr + g[3] * Yr) % p
        image -= 1
        image.sort(axis=1)
        codes = image @ powers
        head = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
        best[r[head]] = np.minimum.reduceat(codes, head)
    return best


def _distinct(codes):
    """Sorted distinct values, like ``np.unique`` but without the hash table
    that numpy 2 allocates on its first call."""
    import numpy as np

    codes = np.sort(codes)
    keep = np.ones(len(codes), dtype=bool)
    keep[1:] = codes[1:] != codes[:-1]
    return codes[keep]


def _columns(rows, p: int, k: int) -> list:
    """Column tuples of rows of vector indices (see ``nonzero_vectors``).
    Rows share one tuple per distinct index: an orbit table keeps them all."""
    vec = {i: divmod(i + 1, p)[2 - k:] for i in set().union(*rows)}.__getitem__
    return [tuple(map(vec, row)) for row in rows]


def _digits(codes, V: int, R: int):
    """Rows of vector indices of encoded sorted rows (base V = p^k - 1 digits)."""
    import numpy as np

    return codes[:, None] // V ** np.arange(R - 1, -1, -1, dtype=np.int64) % V


def _indices(columns, p: int, k: int) -> list:
    """Sorted vector indices (see ``nonzero_vectors``) of columns over F_p^k;
    names a column of the wrong length or zero mod p."""
    out = []
    for v in columns:
        r = tuple(c % p for c in v)
        if len(r) != k:
            raise ValueError(f"column {tuple(v)} does not have k = {k} entries")
        if not any(r):
            raise ValueError(f"column {tuple(v)} is zero mod {p}")
        out.append(r[0] * p + r[1] - 1 if k == 2 else r[0] - 1)
    return sorted(out)


def _partition_counts(rows, p: int) -> dict:
    """Number of rows of each partition type, for an array of rows of vector
    indices: a row's type is the multiset of its columns' counts per line."""
    import numpy as np

    n, R = rows.shape
    u, w = divmod(rows + 1, p)
    first, lengths = _run_lengths(np.sort(_lines(u, w, _inverses(p, u.dtype)), axis=1))
    # hist[r, m]: lines holding m columns of row r, one histogram per type
    hist = np.bincount(np.nonzero(first)[0] * (R + 1) + lengths, minlength=n * (R + 1))
    hist = hist.reshape(n, R + 1)
    hist = hist[np.lexsort(hist.T)]
    new = np.ones(n, dtype=bool)
    new[1:] = (hist[1:] != hist[:-1]).any(axis=1)
    heads = np.flatnonzero(new)
    sizes = np.arange(R + 1)
    return {PartitionType(tuple(np.repeat(sizes, hist[h]).tolist())): int(c)
            for h, c in zip(heads, np.diff(np.r_[heads, n]))}


def classify_partition(columns, p: int, k: int = 2) -> PartitionType:
    """Partition type of a column multiset of rank k: group columns by the
    cyclic subgroup they span (its line, see ``_lines``) and take the
    multiset of group sizes.  The one-row case of ``_partition_counts``."""
    import numpy as np

    check_prime(p)
    check_rank(k)
    (part,) = _partition_counts(np.array([_indices(columns, p, k)], dtype=np.int64), p)
    return part


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
    elements, of the sorted image multiset.  It contains the basis, so only
    multisets containing the basis are enumerated, streamed in chunks, and
    each is canonicalized by the maps that send a column of maximal
    multiplicity, and a partner, to the basis (see ``_orbit_minima``).
    Only the distinct minima are kept, so memory is one chunk plus one
    code per orbit; they are decoded to one array and classified in one
    pass (``_partition_counts``).
    """
    import numpy as np

    check_feasible(p, k, R, multiset_limit, step_limit)
    basis = tuple(p ** (k - 1 - c) - 1 for c in range(k))  # indices of e_1..e_k
    seen = np.zeros(0, dtype=np.int64)
    pending = []
    for rows in _stream(p, k, R, basis):
        pending.append(_distinct(_orbit_minima(rows, p, k)))
        if sum(map(len, pending)) > max(_CHUNK, len(seen)):
            seen = _distinct(np.concatenate([seen, *pending]))
            pending = []
    rows = _digits(_distinct(np.concatenate([seen, *pending])), p**k - 1, R)
    by_partition = _partition_counts(rows, p)
    reps = _columns(rows.tolist(), p, k)
    return OrbitTable(p, k, R, by_partition, len(reps), tuple(reps))


def canonical_form(columns, p: int, k: int):
    """Canonical representative of one rank-k multiset under the full group."""
    import numpy as np

    check_prime(p)
    check_rank(k)
    _guard_encoding(p, k, len(columns))
    row = np.array([_indices(columns, p, k)], dtype=np.int64)
    # fewer than k columns cannot span, and _orbit_minima needs a column
    if row.shape[1] < k or (code := _orbit_minima(row, p, k))[0] == np.iinfo(np.int64).max:
        raise ValueError(f"columns do not span F_{p}^{k}")
    return _columns(_digits(code, p**k - 1, row.shape[1]).tolist(), p, k)[0]
