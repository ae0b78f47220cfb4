"""Partition types and admissibility for fully ramified Z_p^k surface actions.

A partition type records, for each nontrivial cyclic subgroup appearing as a
stabilizer, how many of the R branch points it accounts for.  Admissibility
is one rule set for both ranks: the part count (``check_part_count``) and,
with exactly k parts, no part 1 (``check_admissible``); rank 1, with one
subgroup, has the single type {R}.
This module also holds the package's one check of each input: p, k, R and
the part count.
"""

from __future__ import annotations

from .exact import binomial, is_prime


class AdmissibilityError(ValueError):
    """A partition type violates one of the structural restrictions."""


class NotHyperbolicError(ValueError):
    """The requested parameters do not give a hyperbolic surface (genus > 1)."""


class PartitionType:
    """Multiset of positive parts, stored in canonical descending order."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        ps = tuple(sorted(map(int, parts), reverse=True))
        if not ps or ps[-1] < 1:
            raise ValueError("parts must be positive integers")
        self.parts = ps

    @classmethod
    def _descending(cls, parts: tuple) -> PartitionType:
        """The type of ``parts``, a nonempty tuple of positive ints already in
        descending order, built without sorting or checking it again."""
        part = object.__new__(cls)
        part.parts = parts
        return part

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"PartitionType(parts={self.parts!r})"

    @property
    def R(self) -> int:
        return sum(self.parts)

    @property
    def n(self) -> int:
        return len(self.parts)

    def multiplicity(self, i: int) -> int:
        return self.parts.count(i)

    def __str__(self):
        return "{" + ",".join(str(x) for x in self.parts) + "}"


class ActionParams:
    """Parameters (p, k, R) of a fully ramified Z_p^k action on a surface."""

    __slots__ = ("p", "k", "R")

    def __init__(self, p: int, k: int, R: int):
        check_prime(p)
        check_rank(k)
        if R < 3:
            raise ValueError(f"R = {R}: need R >= 3")
        self.p, self.k, self.R = p, k, R


def check_prime(p: int) -> None:
    """Raise ValueError unless p is prime.  ``ActionParams`` runs it first;
    entries that take p without a full (p, k, R) call it directly."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime: need an odd prime or 2")


def check_rank(k: int) -> None:
    """Raise ValueError unless k is a supported rank, 1 or 2."""
    if k not in (1, 2):
        raise ValueError(f"k = {k}: only ranks 1 and 2 are supported")


def check_part_count(n: int, p: int, k: int = 2) -> None:
    """Raise AdmissibilityError unless n parts can be marked with distinct
    cyclic subgroups of Z_p^k: k <= n <= (p^k - 1)/(p - 1), at least one
    part per generator and at most one per subgroup."""
    if n < k:
        raise AdmissibilityError(
            f"fewer parts ({n}) than the rank (k={k}); the columns could not generate"
        )
    n_max = (p**k - 1) // (p - 1)
    if n > n_max:
        raise AdmissibilityError(
            f"{n} parts but only {n_max} cyclic subgroups available (p={p}, k={k})"
        )


def genus_of(params: ActionParams) -> int:
    """Genus of the covering surface: g = 1 + R p^(k-1)(p-1)/2 - p^k.

    Raises NotHyperbolicError when the result is not an integer > 1 (no
    hyperbolic action with these parameters).
    """
    p, k, R = params.p, params.k, params.R
    ram = R * p ** (k - 1) * (p - 1)
    if ram % 2:
        raise NotHyperbolicError(
            f"(p={p}, k={k}, R={R}): total ramification is odd, no action exists"
        )
    g = 1 + ram // 2 - p**k
    if g <= 1:
        raise NotHyperbolicError(f"(p={p}, k={k}, R={R}): genus {g} is not hyperbolic")
    return g


def _partitions_into(total: int, n: int, max_part: int, memo: dict) -> list:
    """Descending n-part partitions of ``total`` with no part above
    ``max_part``, in ascending lex order; ``memo`` keeps each sub-list, for
    the length of one caller's call."""
    key = (total, n, max_part)
    if key not in memo:
        if n == 1:
            memo[key] = [(total,)] if 1 <= total <= max_part else []
        else:
            # first (largest) part a, remaining n-1 parts each <= a
            lo = -(-total // n)  # ceil: largest part is at least the average
            memo[key] = [(a,) + rest for a in range(lo, min(max_part, total - (n - 1)) + 1)
                         for rest in _partitions_into(total - a, n - 1, a, memo)]
    return memo[key]


def admissible_partitions(p: int, k: int, R: int) -> list[PartitionType]:
    """All admissible partition types for (p, k, R), deterministic order:
    the partitions of R that ``check_admissible`` accepts.  For k = 1 the
    one subgroup gives the single type {R}.  Ordered by part count, then
    ascending lexicographically.
    """
    if R < 3:
        raise ValueError("need R >= 3")
    n_max = (p**k - 1) // (p - 1)
    out, memo = [], {}
    for n in range(k, min(n_max, R) + 1):
        for parts in _partitions_into(R, n, R, memo):
            if n == k and parts[-1] < 2:
                continue
            out.append(PartitionType._descending(parts))
    return out


def check_admissible(partition: PartitionType, p: int, k: int) -> None:
    """Raise AdmissibilityError naming the violated restriction, if any: the
    part count of ``check_part_count``, and with exactly k parts no part 1
    (a single column in a direction cannot have zero row sum)."""
    check_part_count(partition.n, p, k)
    if partition.n == k and partition.parts[-1] < 2:
        raise AdmissibilityError(
            f"{partition}: with exactly k={k} parts every part must be >= 2 "
            "(a single column in a direction cannot have zero row sum)"
        )


def marking_count(p: int, n: int, k: int = 2) -> int:
    """Number of ways to mark the n parts of a rank-k type with distinct
    cyclic subgroups, after normalizing three of them: binomial(p-2, n-3),
    taken as 1 for n <= 3 so all part counts share one code path."""
    check_part_count(n, p, k)
    if n <= 3:
        return 1
    return binomial(p - 2, n - 3)


def parse_partition(text: str) -> PartitionType:
    """Parse '2,2,1' or exponent notation '1^4' (mixing allowed: '2,1^3')."""
    parts = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ValueError(f"empty part in partition {text!r}")
        base_s, caret, exp_s = token.partition("^")
        try:
            base, exp = int(base_s), int(exp_s) if caret else 1
        except ValueError:
            raise ValueError(f"part {token!r} of partition {text!r} is not an integer "
                             "or base^exponent") from None
        if exp < 1:
            raise ValueError(f"exponent must be positive in {token!r}")
        parts.extend([base] * exp)
    return PartitionType(tuple(parts))
