"""Seeded command lines for each benchmark workload.

A workload is a list of ``topotype`` command lines.  The seed only picks
inputs (argument order, primes, partitions); every input any seed can
produce has its answers pinned in ``pinned.json`` by ``pin.py``.
Why each workload exists is recorded in NOTES.md.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    """One CLI invocation and where its pinned answers live."""

    kind: str  # verify | table | total | count
    argv: tuple  # arguments after ``topotype``
    key: str  # key into pinned.json
    k: int = 0  # verify: the rank
    primes: tuple = ()  # verify: the primes, in the order sent
    ranks: tuple = ()  # verify: the values of R


def is_prime(n: int) -> bool:
    """Trial division; the benchmark's own, independent of the program's."""
    return n > 1 and all(n % q for q in range(2, int(n**0.5) + 1))


def _check_primes(modulus: int, low: int) -> tuple:
    """The least prime >= ``low`` in each unit class mod ``modulus``."""
    primes = []
    for c in range(modulus):
        if math.gcd(c, modulus) == 1:
            q = c
            while q < low or not is_prime(q):
                q += modulus
            primes.append(q)
    return tuple(sorted(primes))


# Every table row's modulus divides TABLE_MODULUS (pin.py checks this), so
# one check prime per unit class of it reaches every branch of every row.
TABLE_MODULUS = 840
TABLE_CHECK_PRIMES = _check_primes(TABLE_MODULUS, 100)  # 192 primes, 101 to 4283
BIG_PRIMES = (1000003, 1000033, 1000037, 1000039)
COUNT_PRIMES = (101, 103, 107)
COUNT_RANKS = range(6, 13)


def _table_partitions(R: int) -> list:
    """Rank-2 partitions of R admissible for every prime p >= R - 1: at least
    two parts, no part above R - 2, both parts >= 2 when there are two."""

    def into(total, n, cap):
        if n == 1:
            return [(total,)] if 1 <= total <= cap else []
        return [(a,) + rest
                for a in range(-(-total // n), min(cap, total - n + 1) + 1)
                for rest in into(total - a, n - 1, a)]

    return [parts for n in range(2, R + 1) for parts in into(R, n, R - 2)
            if n > 2 or parts[-1] >= 2]


COUNT_POOL = tuple((p, parts) for R in COUNT_RANKS for parts in _table_partitions(R)
                   for p in COUNT_PRIMES)


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def verify(k: int, ps, lo: int, hi: int, rng: random.Random) -> Command:
    """``verify`` over R = lo..hi with the primes in seeded order; the
    answers are keyed by (p, R, partition), so the order does not change them."""
    ps = list(ps)
    key = f"verify k={k} p={_join(sorted(ps))} R={lo}..{hi}"
    rng.shuffle(ps)
    return Command("verify", ("verify", "--k", str(k), "--p", _join(ps), "--R", f"{lo}..{hi}",
                              "--format", "json"), key, k, tuple(ps), tuple(range(lo, hi + 1)))


def table(R: int) -> Command:
    return Command("table", ("table", "--R", str(R), "--format", "json"), f"table R={R}")


def total(p: int, R: int) -> Command:
    return Command("total", ("total", "--p", str(p), "--k", "2", "--R", str(R), "--format", "json"),
                   f"total p={p} k=2 R={R}")


def count(p: int, parts) -> Command:
    return Command("count", ("count", "--p", str(p), "--k", "2", "--partition", _join(parts),
                             "--format", "json"), f"count p={p} k=2 partition={_join(parts)}")


def _verify_canon(rng):
    return [verify(2, (5, 7), 3, 5, rng)]


def _verify_enum(rng):
    cmds = [verify(2, (3,), 3, 16, rng), verify(1, (11, 13), 3, 10, rng)]
    rng.shuffle(cmds)
    return cmds


def _table_fit(_rng):
    return [table(9)]


def _closed_forms(rng):
    return [total(rng.choice(BIG_PRIMES), 30)] + [count(p, parts)
                                                  for p, parts in rng.sample(COUNT_POOL, 8)]


WORKLOADS = {
    "verify-canon": _verify_canon,
    "verify-enum": _verify_enum,
    "table-fit": _table_fit,
    "closed-forms": _closed_forms,
}


def commands(workload: str, seed: int) -> list:
    """The command lines one run of ``workload`` sends, made from ``seed``."""
    return WORKLOADS[workload](random.Random(seed))


def toy_commands() -> list:
    """One toy-size command per command kind, for the self-test."""
    rng = random.Random(0)
    return [verify(2, (3,), 3, 4, rng), table(5), total(7, 6),
            count(101, (2, 2, 1, 1))]


def pinned_commands() -> list:
    """Every command any seed can produce, plus the toy ones."""
    rng = random.Random(0)
    return ([verify(2, (5, 7), 3, 5, rng), verify(2, (3,), 3, 16, rng),
             verify(1, (11, 13), 3, 10, rng), table(9)]
            + [total(p, 30) for p in BIG_PRIMES]
            + [count(p, parts) for p, parts in COUNT_POOL]
            + toy_commands())
