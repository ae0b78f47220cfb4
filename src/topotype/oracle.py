"""Brute-force ground truth by exhaustive enumeration.

Everything here counts by listing actual objects: generating column
multisets over F_p^k with their orbits under the full automorphism group
GL_k(F_p).  Nothing is shared with the formula modules beyond basic
binomials, so agreement between the two routes is meaningful evidence.

Vectors are numbered, never listed: in the lexicographic order of the
nonzero vectors of F_p^k, vector i (from 0) is numbered v = i + 1 =
u*p + w, so (u, w) = divmod(v, p), and for k = 1 the vector is (w,), the
case u = 0.  The line (cyclic subgroup) of (u, w) is numbered w/u mod p,
or p when u = 0.  Nothing is tabulated over F_p, and inverses are not
kept: memos hold only the lines and column tuples of rows kept or given.
"""

from __future__ import annotations

import bisect
import itertools
import marshal
import math
import os
from collections import Counter
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
        raise GuardExceeded(f"(p={p}, k={k}, R={R}): about {m} column multisets "
                            f"exceeds the limit of {limit}")


def group_order(p: int, k: int) -> int:
    """|GL_k(F_p)|."""
    return math.prod(p**k - p**i for i in range(k))


def check_feasible(p: int, k: int, R: int, multiset_limit=None, step_limit=None) -> int:
    """Raise GuardExceeded when the work of the orbit walk (``_minima``) is
    out of budget, else return the step estimate, which ``count_orbits_many`` deals by.

    The estimate follows the algorithm: the walk lists at most
    ``multichoose(R-1-k, p^k-1)`` rows, since removing one e_k and, for
    k = 2, one e_1 from a row walked for (M, M2), and its forced last
    column, leaves a distinct nondecreasing prefix of R-1-k columns.  Each
    row is compared with at most ``min(R!/(R-k)!, |GL_k|)`` images, one per
    candidate basis, of at most R steps each (one per run): an upper bound.
    Memory is not guarded: ``count_orbits`` keeps each orbit, ``_tally`` none.
    """
    ActionParams(p, k, R)
    m = multichoose(R - 1 - k, p**k - 1)
    _guard_multisets(p, k, R, m, multiset_limit)
    step_limit = DEFAULT_STEP_LIMIT if step_limit is None else int(step_limit)
    steps = m * R * min(math.perm(R, k), group_order(p, k))
    if steps > step_limit:
        raise GuardExceeded(f"(p={p}, k={k}, R={R}): about {steps} canonicalization "
                            f"steps exceeds the limit of {step_limit}")
    return steps


def _walk(p: int, k: int, n: int, sums: tuple, caps: tuple, lo: int = 1, skip: int = 0,
          pruned=None):
    """Nondecreasing n-tuples of vector numbers (see the module docstring)
    from ``lo`` on, none equal to ``skip``, with coordinate sums -``sums``
    mod p, in lexicographic order, as runs ``((v, m), ...)``: each distinct
    v once, ascending, with its count m.  Numbers below p (u = 0) occur at
    most caps[0] times, others caps[1].  The first n-1 entries are walked
    depth first, the last is forced by the sums; ``pruned(prefix)`` true
    drops every tuple extending ``prefix``."""
    top = p**k
    if n < 2:  # nothing to walk: the forced entry alone, or nothing
        f = -sums[0] % p * p + -sums[1] % p
        if n == 0 and f == 0 or n == 1 and f >= lo and f != skip:
            yield ((f, 1),)[:n]
        return
    stack = [((), n, *sums)]  # (prefix, entries left, coordinate sums)
    while stack:
        free, left, su, sw = stack.pop()
        last, run = free[-1] if free else (lo, 0)
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
                    head, r = (free[:-1], run + 1) if v == last else (free, 1)
                    if (r < cap or r == cap and f != v) and v != skip and f != skip:
                        yield head + ((v, r + 1),) if f == v else head + ((v, r), (f, 1))
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
                # for k = 1 a leaf's pair sums to c: is there one from v on?
                if room < left - 1 or k == 1 and left == 3 and v > (c := -(sw + v) % p) // 2 and (
                        v > (c + p) // 2 or c + 1 > (c + p) // 2):
                    continue
                prefix = (free[:-1] if v == last else free) + ((v, r),)
                if pruned is None or not pruned(prefix):
                    children.append((prefix, left - 1, su + u, sw + v - base))
        stack.extend(reversed(children))


class _Memo(dict):
    """``f(key)``, computed for each key when first asked for."""

    def __init__(self, f):
        self.f = f

    def __missing__(self, key):
        self[key] = value = self.f(key)
        return value


def _imager(p: int, k: int):
    """The candidate images of rows over F_p^k.

    Returns ``least(runs, M)``, the keep rule: of a row given as runs (see
    ``_walk``) with largest multiplicity M, the key list (``_keys`` at scale
    M) of the first image under the candidate maps for its orbit minimum,
    bar the identity, that sorts below the row, else None.  At M = 1 the
    keys are the numbers, so rank 2's images skip the counts, which pays
    where nearly every column is distinct (mid-sized p).

    Of two sorted tuples of equal length, the smaller has the larger
    multiplicity vector, read in vector order, and e_k is the first vector,
    so the minimizing g sends a column c_j of maximal multiplicity M to e_k:
    for k = 1, g = c_j^{-1}.  For k = 2 the multiples (0,2)..(0,p-1) of
    e_2 = (0,1) come next, whose preimages t*c_j depend on c_j alone, then
    e_1 = (1,0), which a map fixing e_2 can reach from any column off the
    line of c_j.  So the preimage c_i of e_1 has the largest multiplicity
    off that line (M unless every column of multiplicity M lies on one
    line, and then the same for every c_j), and g = [c_i c_j]^{-1}.  These
    conditions are necessary, so the orbit minimum is a candidate image of
    every other row of the orbit.
    """
    def least(runs, M):
        row = _keys(runs, M)
        tops = [j for j, (_, m) in enumerate(runs) if m == M]  # the c_j
        if k == 1:  # g = c_j^{-1}
            for d in (pow(runs[j][0], -1, p) for j in tops if runs[j][0] != 1):
                image = sorted([(d * v % p + 1) * M - m for v, m in runs])
                if image < row:
                    return image
            return None
        # g v = d (D(v, c_j), D(c_i, v)), D(a, b) = a_u b_w - a_w b_u, d = 1/D(c_i, c_j)
        uw, against = [divmod(v, p) for v, _ in runs], {}  # against: D(c_i, v)
        for j in tops:
            ju, jw = uw[j]
            dj = [(u * jw - w * ju) % p for u, w in uw]  # D(v, c_j): 0 on its line
            if j == tops[0]:  # c_i: the tops if one is off this line, else the most frequent off it
                most = max([m for (_, m), d in zip(runs, dj) if d], default=0)
                partners = [i for i, ((_, m), d) in enumerate(zip(runs, dj))
                            if m == most and (d or m == M)]
            for i in partners:
                if not dj[i] or (runs[j][0], runs[i][0]) == (1, p):  # same line, identity
                    continue
                if i not in against:
                    iu, iw = uw[i]
                    against[i] = [(iu * w - iw * u) % p for u, w in uw]
                d = pow(dj[i], -1, p)
                image = sorted([d * a % p * p + d * b % p for a, b in zip(dj, against[i])]
                               if M == 1 else [(d * a % p * p + d * b % p + 1) * M - m
                                               for a, b, (_, m) in zip(dj, against[i], runs)])
                if image < row:
                    return image
        return None

    return least


def _keys(runs, S: int) -> list:
    """Sort keys ``(v+1)*S - m`` of a row given as runs, for a scale S at
    least every count m; at S = 1 (every count 1) they are the numbers v.

    Lemma: for two sorted tuples of equal length, the key lists order them as
    the tuples are ordered.  A key is v*S + (S - m) with 0 <= S - m < S, so at
    the first differing run a smaller v, or the same v with more copies, gives
    both the smaller entry and the smaller key; equal lengths leave no run over."""
    return [(v + 1) * S - m for v, m in runs]


def _unkeys(keys, S: int) -> list:
    """The runs whose keys (``_keys``, scale S) are ``keys``."""
    return [(key // S, S - key % S) for key in keys]


def _spans(runs, p: int, k: int) -> bool:
    """Whether runs span F_p^k: a column, and for k = 2 one off the first's line."""
    u0, w0 = divmod(runs[0][0], p) if runs else (0, 0)
    return bool(runs) if k == 1 else any((v // p * w0 - v % p * u0) % p for v, _ in runs)


def _expander(p: int, k: int):
    """``columns(runs)``: the column tuple of a row given as runs.  Each run is
    converted once, so the rows share its tuples: an orbit table keeps them."""
    copies = _Memo(lambda run: (divmod(run[0], p)[2 - k:],) * run[1]).__getitem__
    return lambda runs: tuple(itertools.chain.from_iterable(map(copies, runs)))


def enumerate_generating_sets(p: int, k: int, R: int, multiset_limit=None):
    """Yield every generating column multiset (zero row sums, rank k, no zero
    columns) once, columns ascending, in lexicographic order; the guard
    counts the walk's prefixes."""
    ActionParams(p, k, R)
    _guard_multisets(p, k, R, multichoose(R - 1, p**k - 1), multiset_limit)
    yield from map(_expander(p, k),
                   filter(lambda runs: _spans(runs, p, k), _walk(p, k, R, (0, 0), (R, R))))


def _runs(columns, p: int, k: int) -> tuple:
    """Runs (see ``_walk``) of the sorted vector numbers of columns over
    F_p^k; names a column of the wrong length or zero mod p."""
    out = []
    for v in columns:
        r = tuple(c % p for c in v)
        if len(r) != k:
            raise ValueError(f"column {tuple(v)} does not have k = {k} entries")
        if not any(r):
            raise ValueError(f"column {tuple(v)} is zero mod {p}")
        out.append(r[0] * p + r[1] if k == 2 else r[0])
    return tuple((v, len(list(copies))) for v, copies in itertools.groupby(sorted(out)))


def _classifier(p: int):
    """``parts(runs)``: the parts, descending, of the partition type of a row
    given as runs, its columns' counts per line (see the module docstring)."""
    line = _Memo(lambda v: v % p * pow(v // p, -1, p) % p if v >= p else p)

    def parts(runs):
        counts = {}
        for v, m in runs:  # a run adds its m to its line
            counts[line[v]] = counts.get(line[v], 0) + m
        return tuple(sorted(counts.values(), reverse=True))

    return parts


def classify_partition(columns, p: int, k: int = 2) -> PartitionType:
    """Partition type of a column multiset of rank k: group columns by the
    cyclic subgroup (line) they span and take the multiset of group sizes."""
    check_prime(p)
    check_rank(k)
    return PartitionType._descending(_classifier(p)(_runs(columns, p, k)))


class OrbitTable(NamedTuple):
    """Orbit counts bucketed by partition type, plus canonical representatives;
    ``count`` (replacing ``tuple.count``) is the count of one partition type."""

    p: int
    k: int
    R: int
    by_partition: dict
    total: int
    representatives: tuple

    def count(self, partition) -> int:
        part = partition if isinstance(partition, PartitionType) else PartitionType(tuple(partition))
        return self.by_partition.get(part, 0)


def _minima(p: int, k: int, R: int):
    """Runs and parts (``_classifier``) of each orbit minimum of an admitted case.

    Canonical representative of an orbit: the minimum, over all group
    elements, of the sorted image multiset.  Each orbit is listed once, by
    its minimum (orderly enumeration).  By ``_imager``'s lemma the minimum
    holds e_k at the maximal multiplicity M and, for k = 2, e_1 at the
    largest multiplicity M2 off the line of e_k.  So for each (M, M2) one
    walk (``_walk``) lists the other columns as runs: without e_k and e_1,
    at most M times on the line of e_k and M2 times off it, the last one
    forced by the zero sum.  A row is kept when no candidate image sorts
    below it.  Past e_1 (at once for k = 1), a map that sorts a prefix
    (with the fixed columns) below itself sorts every row extending it
    below that row, so the walk drops the prefix; it checks one only when
    more vectors lie above its last column than a row has columns.  A kept
    row is classified per run by line; nothing is held but the walk's stack.
    """
    top, least, classify = p**k, _imager(p, k), _classifier(p)
    for M in range(R, 0, -1):
        for M2 in range(1, min(M, R - M) + 1) if k == 2 else (0,):
            head, mid = ((1, M),), ((p, M2),)[:M2]  # e_k is number 1, e_1 = (1, 0) is p

            def row(free):  # the row of ``free``, or None if an image sorts below it
                split = bisect.bisect_left(free, (p,))
                runs = head + free[:split] + mid + free[split:]
                return runs if least(runs, M) is None else None

            def pruned(free):
                v = free[-1][0]
                return top - v > R and (k == 1 or v > p) and row(free) is None

            walk = _walk(p, k, R - M - M2, (M2, M), (M, M2), 2, p, pruned)
            for runs in filter(None, map(row, walk)):  # for k = 1 all R columns share a line
                yield runs, classify(runs) if k == 2 else (R,)


def count_orbits(p: int, k: int, R: int, multiset_limit=None, step_limit=None) -> OrbitTable:
    """Orbits of GL_k(F_p) acting columnwise on generating column multisets:
    each minimum of ``_minima`` expanded into columns, in sorted order."""
    check_feasible(p, k, R, multiset_limit, step_limit)
    columns = _expander(p, k)
    kept = sorted([(columns(runs), parts) for runs, parts in _minima(p, k, R)])
    by_partition = {PartitionType._descending(q): n for q, n in Counter(q for _, q in kept).items()}
    return OrbitTable(p, k, R, by_partition, len(kept), tuple(cols for cols, _ in kept))


def _tally(p: int, k: int, R: int) -> dict:
    """``{parts: n}``: an admitted case's orbits counted by type in one walk."""
    return dict(Counter(parts for _, parts in _minima(p, k, R)))


# A forked child costs about 3 ms (fork, exit and copy-on-write, measured in
# a process that has run count_orbits), so a child is forked only for a
# share estimated at this many steps or more.  Measured shares leave a wide
# window: the would-be child of ``verify --k 2 --p 5,7 --R 3..5`` holds
# about 3.4e4 steps (its largest case, (7, 2, 5), is 1.2e5 steps and about
# 8 ms), while the children of ``verify --k 2 --p 3 --R 3..16`` and
# ``verify --k 1 --p 11,13 --R 3..10`` hold 2e6 steps or more.
FORK_MIN_STEPS = 3 * 10**5


def count_orbits_many(p_values, k: int, R_values, multiset_limit=None, step_limit=None) -> list:
    """For every p of ``p_values`` and R of ``R_values``, in ``for p: for R:``
    order, ``count_orbits(p, k, R, ...).by_partition`` or the ``GuardExceeded``
    it would raise, as a value, counted in one walk (``_tally``) keeping no orbit.

    ``check_feasible`` judges every case before any work, so a bad input
    raises here as ``count_orbits`` would, having run nothing.  The cases
    it admits run on up to one worker per usable core, this process being
    the first.  Dealt by step estimate, largest first, each to the
    least-loaded worker, they give every other worker a share; each share
    of ``FORK_MIN_STEPS`` or more gets a forked child.  With children the
    workers pull the cases, largest first, from one queue, so a worker that
    is done early takes the next one, and each child sends its counts back
    through a pipe; cases past what the queue holds (over 16,000 on Linux)
    run here after it.  Without ``os.fork`` or ``os.sched_getaffinity`` this
    process runs every case.  Every child is reaped before this returns or
    raises; if a child fails, this raises ``RuntimeError`` naming the cases
    it left undone.
    """
    out, cases = [], []  # cases: (estimate, index in out, p, R) of each admitted case
    for p in p_values:
        for R in R_values:
            try:
                cases.append((check_feasible(p, k, R, multiset_limit, step_limit),
                              len(out), p, R))
                out.append(None)
            except GuardExceeded as exc:
                out.append(exc)
    cases.sort(key=lambda case: -case[0])
    usable = (len(os.sched_getaffinity(0))
              if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1)
    loads = [0] * max(1, min(usable, len(cases)))
    for case in cases:
        loads[loads.index(min(loads))] += case[0]
    forks = sum(load >= FORK_MIN_STEPS for load in loads[1:])
    children, failures = [], []  # children: (pid, read end) of each child not yet reaped
    queue, queued = _queue(len(cases)) if forks else (None, 0)
    try:
        for _ in range(forks):
            children.append(_fork(cases, k, queue))
        for j in itertools.chain(_pulled(queue), range(queued, len(cases))):
            _, i, p, R = cases[j]
            out[i] = _tally(p, k, R)
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            try:
                tallies = marshal.loads(data)
            except (EOFError, ValueError, TypeError):
                tallies = None
            if status or not isinstance(tallies, list):
                failures.append(tallies if isinstance(tallies, str) else f"wait status {status}")
                continue
            for j, counts in tallies:
                out[cases[j][1]] = counts
        if failures:
            undone = ", ".join(f"(p={p}, k={k}, R={R})" for _, i, p, R in cases if out[i] is None)
            raise RuntimeError(f"oracle worker for {undone} failed: {'; '.join(failures)}")
    finally:
        if queue is not None:
            os.close(queue)
        if children:  # only a run that raised leaves any; signal takes about 1 ms to import
            import signal

            for pid, pipe in children:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return [{PartitionType._descending(parts): n for parts, n in counts.items()}
            if isinstance(counts, dict) else counts for counts in out]


def _queue(n: int) -> tuple:
    """A pipe's read end holding the case positions 0, 1, ... below n, 4
    bytes each, as many as the pipe takes without blocking, with its write
    end closed; and how many it holds."""
    queue, feed = os.pipe()
    os.set_blocking(feed, False)
    queued = 0
    try:
        while queued < n:  # 512 bytes, which POSIX writes whole or not at all
            chunk = range(queued, min(queued + 128, n))
            os.write(feed, b"".join(j.to_bytes(4, "big") for j in chunk))
            queued = chunk.stop
    except BlockingIOError:
        pass
    finally:
        os.close(feed)
    return queue, queued


def _pulled(queue):
    """The case positions this worker reads from ``queue`` (if any) until
    it is empty."""
    while queue is not None and (record := os.read(queue, 4)):
        yield int.from_bytes(record, "big")


def _fork(cases, k: int, queue: int):
    """Fork a child that writes ``(position, _tally(p, k, R))`` of each case it
    pulls from ``queue`` to a pipe as ``marshal`` data; return its pid and the
    pipe's read end.  The child stops before its next case once its parent
    has gone; if it raises, it writes the error's text instead and exits 1."""
    parent = os.getpid()
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, open(read, "rb")
    status, data, case, tallies = 1, b"", None, []
    try:
        os.close(read)
        for j in _pulled(queue):
            if os.getppid() != parent:  # orphaned: nobody reads the counts
                os._exit(status)
            _, _, p, R = cases[j]
            case = (p, k, R)
            tallies.append((j, _tally(p, k, R)))
        data, status = marshal.dumps(tallies), 0
    except BaseException as exc:
        data = marshal.dumps(f"(p, k, R) = {case}: {type(exc).__name__}: {exc}")
    finally:
        try:
            with open(write, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(status)


def canonical_form(columns, p: int, k: int):
    """Canonical representative of one rank-k multiset under the full group,
    its orbit minimum: the last row of a descent by ``_imager``'s keep rule."""
    check_prime(p)
    check_rank(k)
    runs = _runs(columns, p, k)
    if not _spans(runs, p, k):
        raise ValueError(f"columns do not span F_{p}^{k}")
    M, least = max(m for _, m in runs), _imager(p, k)
    while (image := least(runs, M)) is not None:
        runs = _unkeys(image, M)
    return _expander(p, k)(runs)
