"""Permutations of {1..n} as tuples: p[i-1] is the image of i.

Small-n utilities shared by the character, tabloid, and module layers.
Everything here is pure and exact; group enumeration is only used at desk
scale (n <= 8).
"""

from bisect import bisect_right
from functools import lru_cache
from itertools import permutations as _itp
from math import factorial

from .partitions import Partition, make_partition, partitions_of

Perm = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: (p*q)(x) = p(q(x))."""
    return tuple(p[q[i] - 1] for i in range(len(p)))


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def inversion_sign(values) -> int:
    """(-1)^(number of inversions) of a sequence: pairs i < j with
    values[i] > values[j], so equal values count as no inversion."""
    seen: list = []
    odd = 0
    for v in values:
        at = bisect_right(seen, v)
        odd ^= (len(seen) - at) & 1
        seen.insert(at, v)
    return -1 if odd else 1


def cycles(p: Perm) -> list[tuple[int, ...]]:
    """Cycle decomposition, fixed points included, each cycle from its minimum."""
    seen = [False] * len(p)
    out = []
    for start in range(1, len(p) + 1):
        if seen[start - 1]:
            continue
        cyc = [start]
        seen[start - 1] = True
        x = p[start - 1]
        while x != start:
            cyc.append(x)
            seen[x - 1] = True
            x = p[x - 1]
        out.append(tuple(cyc))
    return out


def cycle_type(p: Perm) -> Partition:
    return make_partition(len(c) for c in cycles(p))


def sign(p: Perm) -> int:
    return -1 if (len(p) - len(cycles(p))) % 2 else 1


def from_cycles(n: int, cycs) -> Perm:
    out = list(range(1, n + 1))
    for cyc in cycs:
        for i, v in enumerate(cyc):
            out[v - 1] = cyc[(i + 1) % len(cyc)]
    return tuple(out)


def class_representative(rho: Partition, n: int) -> Perm:
    """Canonical permutation of cycle type rho: cycles on consecutive blocks."""
    out = []
    start = 1
    for part in rho:
        out.append(tuple(range(start, start + part)))
        start += part
    return from_cycles(n, out)


# bounded: one gate-session pass asks for ~70 cycle types
@lru_cache(maxsize=4096)
def class_size(rho: Partition) -> int:
    """Number of permutations of cycle type rho: n! / centralizer order."""
    return factorial(sum(rho)) // centralizer_order(rho)


def centralizer_order(rho: Partition) -> int:
    z = 1
    mult: dict[int, int] = {}
    for part in rho:
        mult[part] = mult.get(part, 0) + 1
    for part, m in mult.items():
        z *= part**m * factorial(m)
    return z


def all_perms(n: int):
    """Iterate S_n (n! tuples); desk scale only."""
    return _itp(range(1, n + 1))


def generators(n: int) -> list[Perm]:
    """Coxeter-free generating pair: the transposition (1 2) and the n-cycle."""
    if n <= 1:
        return [identity(n)]
    swap = from_cycles(n, [(1, 2)])
    if n == 2:
        return [swap]
    return [swap, from_cycles(n, [tuple(range(1, n + 1))])]


def classes(n: int) -> tuple[Partition, ...]:
    """Conjugacy classes of S_n as cycle types, (n) first (lex-descending)."""
    return partitions_of(n)
