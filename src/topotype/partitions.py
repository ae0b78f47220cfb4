"""Partition types and admissibility for fully ramified Z_p^k surface actions.

A partition type records, for each nontrivial cyclic subgroup appearing as a
stabilizer, how many of the R branch points it accounts for.  Admissibility
encodes the constraints forced by generation and the Riemann-Hurwitz count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import binomial, is_prime


class AdmissibilityError(ValueError):
    """A partition type violates one of the structural restrictions."""


class NotHyperbolicError(ValueError):
    """The requested parameters do not give a hyperbolic surface (genus > 1)."""


@dataclass(frozen=True)
class PartitionType:
    """Multiset of positive parts, stored in canonical descending order."""

    parts: tuple

    def __post_init__(self):
        ps = tuple(sorted((int(x) for x in self.parts), reverse=True))
        if not ps or any(x < 1 for x in ps):
            raise ValueError("parts must be positive integers")
        object.__setattr__(self, "parts", ps)

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


@dataclass(frozen=True)
class ActionParams:
    """Parameters (p, k, R) of a fully ramified Z_p^k action on a surface."""

    p: int
    k: int
    R: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.k not in (1, 2):
            raise ValueError(f"rank k = {self.k} unsupported (must be 1 or 2)")
        if self.R < 3:
            raise ValueError(f"R = {self.R} too small (need R >= 3)")


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
    """All admissible partition types for (p, k, R), deterministic order.

    Restrictions: k <= n <= (p^k - 1)/(p - 1); if n = k every part >= 2;
    no part exceeds R - k.  For k = 1 the single part {R} is the unique
    type (every branch point has the full cyclic group as stabilizer).
    Ordered by part count, then ascending lexicographically.
    """
    if R < 3:
        raise ValueError("need R >= 3")
    if k == 1:
        return [PartitionType((R,))]
    n_max = (p**k - 1) // (p - 1)
    out, memo = [], {}
    for n in range(k, min(n_max, R) + 1):
        for parts in _partitions_into(R, n, R - k, memo):
            if n == k and parts[-1] < 2:
                continue
            out.append(PartitionType(parts))
    return out


def check_admissible(partition: PartitionType, p: int, k: int) -> None:
    """Raise AdmissibilityError naming the violated restriction, if any."""
    n, R = partition.n, partition.R
    if k == 1:
        if n != 1:
            raise AdmissibilityError("rank 1 actions have a single part {R}")
        return
    n_max = (p**k - 1) // (p - 1)
    if n < k:
        raise AdmissibilityError(
            f"{partition}: fewer parts ({n}) than the rank ({k}); "
            "the columns could not generate"
        )
    if n > n_max:
        raise AdmissibilityError(
            f"{partition}: {n} parts but only {n_max} distinct cyclic "
            f"subgroups exist for p={p}, k={k}"
        )
    if n == k and min(partition.parts) < 2:
        raise AdmissibilityError(
            f"{partition}: with exactly k={k} parts every part must be >= 2 "
            "(a single column in a direction cannot have zero row sum)"
        )
    if max(partition.parts) > R - k:
        raise AdmissibilityError(
            f"{partition}: largest part {max(partition.parts)} exceeds "
            f"R - k = {R - k}"
        )


def marking_count(p: int, n: int) -> int:
    """Number of ways to mark the parts with distinct cyclic subgroups,
    after normalizing three of them; equals binomial(p-2, n-3), taken as 1
    for n in {2, 3} so all part counts share one code path."""
    if n < 2:
        raise ValueError("need at least two parts")
    if n > p + 1:
        raise AdmissibilityError(
            f"{n} parts but only {p + 1} cyclic subgroups available (p={p})"
        )
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
        if "^" in token:
            base_s, _, exp_s = token.partition("^")
            base, exp = int(base_s), int(exp_s)
            if exp < 1:
                raise ValueError(f"exponent must be positive in {token!r}")
            parts.extend([base] * exp)
        else:
            parts.append(int(token))
    if any(x < 1 for x in parts):
        raise ValueError(f"parts must be positive in {text!r}")
    return PartitionType(tuple(parts))
