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

from .exact import RationalPolynomial, binomial, is_prime


class AdmissibilityError(ValueError):
    """A partition type violates one of the structural restrictions."""


class NotHyperbolicError(ValueError):
    """The requested parameters do not give a hyperbolic surface (genus > 1)."""


class PartitionType:
    """Multiset of positive parts, stored in canonical descending order."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        ps = tuple(sorted(integer_parts(parts), reverse=True))
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


def integer_parts(parts) -> tuple:
    """``parts`` as a tuple; raises ValueError naming a part that is not an int."""
    parts = tuple(parts)
    for x in parts:
        check_integer("part", x)
    return parts


class ActionParams:
    """Parameters (p, k, R) of a fully ramified Z_p^k action on a surface."""

    __slots__ = ("p", "k", "R")

    def __init__(self, p: int, k: int, R: int):
        check_prime(p)
        check_rank(k)
        check_integer("R", R)
        if R < 3:
            raise ValueError(f"R = {R}: need R >= 3")
        self.p, self.k, self.R = p, k, R


def check_integer(name: str, value) -> None:
    """Raise ValueError naming ``value`` unless it is an int (a bool is not):
    a float or a string would pass a comparison, or fail later as a
    TypeError.  The one rule for p, k, R and the parts of a partition."""
    if type(value) is not int:
        raise ValueError(f"{name} = {value!r} is not an integer")


def check_prime(p: int) -> None:
    """Raise ValueError unless p is an int and prime.  ``ActionParams`` runs
    it first; entries that take p without a full (p, k, R) call it directly."""
    check_integer("p", p)
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime: need an odd prime or 2")


def check_rank(k: int) -> None:
    """Raise ValueError unless k is a supported rank, the int 1 or 2."""
    check_integer("k", k)
    if k not in (1, 2):
        raise ValueError(f"k = {k}: only ranks 1 and 2 are supported")


def check_part_count(n: int, p: int, k: int = 2) -> None:
    """Raise AdmissibilityError unless n parts can be marked with distinct
    cyclic subgroups of Z_p^k: k <= n <= (p^k - 1)/(p - 1), at least one
    part per generator and at most one per subgroup; k in (1, 2), p >= 2 (no primality test)."""
    check_rank(k)
    check_integer("p", p)
    if p < 2:
        raise ValueError(f"p = {p} is not prime: need an odd prime or 2")
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


# The most types ``admissible_partitions`` lists: every one is held before
# any is counted.  The oracle's DEFAULT_MULTISET_LIMIT budget; it admits
# every R <= 76 at any p (p(76) = 9,289,091 partitions) and, from p = 31
# on, no R >= 77 (p(77) = 10,619,863).
TYPE_LIMIT = 10**7


def check_type_count(p: int, k: int, R: int) -> None:
    """Raise ValueError, naming the count and the bound, when (p, k, R) has
    more than ``TYPE_LIMIT`` admissible types.  Rank 1 has one.  Rank 2 has
    the partitions of R into at most p+1 parts but {R} and {R-1, 1}: at
    least the round(R^2/12) with 3 parts, and a DP over the largest allowed
    part (conjugation) counts the rest, stopping once past the bound."""
    count = 1 if k == 1 else (R * R + 6) // 12
    if k == 2 and count <= TYPE_LIMIT:
        ways = [1] + [0] * R  # partitions of each total into parts <= j
        for j in range(1, min(p + 1, R) + 1):
            for total in range(j, R + 1):
                ways[total] += ways[total - j]
            if (count := ways[R] - 2) > TYPE_LIMIT:
                break
    if count > TYPE_LIMIT:
        raise ValueError(f"(p={p}, k={k}, R={R}) has at least {count} admissible types, "
                         f"more than the {TYPE_LIMIT} that can be listed")


def admissible_partitions(p: int, k: int, R: int) -> list[PartitionType]:
    """All admissible partition types for (p, k, R), deterministic order:
    the partitions of R that ``check_admissible`` accepts.  For k = 1 the
    one subgroup gives the single type {R}.  Ordered by part count, then
    ascending lexicographically.  ``check_type_count`` bounds how many.
    """
    ActionParams(p, k, R)
    check_type_count(p, k, R)
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


def marking_count(p, n: int, k: int = 2):
    """Number of ways to mark the n parts of a rank-k type with distinct
    cyclic subgroups, after normalizing three of them: binomial(p-2, n-3),
    taken as 1 for n <= 3 so all part counts share one code path.  A p that
    is not a ``RationalPolynomial`` is checked with n first;
    ``counting._values`` also runs it with p the variable of one, unchecked."""
    if not isinstance(p, RationalPolynomial):
        check_part_count(n, p, k)
    return binomial(p - 2, max(0, n - 3))


def partition_tokens(text: str) -> list:
    """(part, exponent) of each token of '2,2,1' or '1^4' (mixing allowed: '2,1^3'):
    the part count, their exponents' sum, is known before any part is expanded."""
    tokens = []
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
        tokens.append((base, exp))
    return tokens


def parse_partition(text: str) -> PartitionType:
    """Parse '2,2,1' or exponent notation '1^4' (mixing allowed: '2,1^3')."""
    return PartitionType([base for base, exp in partition_tokens(text) for _ in range(exp)])
