"""Partition arithmetic: padding notations, horizontal strips, and orderings.

Partitions are plain tuples of weakly decreasing positive integers; the empty
tuple is the unique partition of 0.  All constructors normalize (sort, drop
zeros), so a partition is always a canonical hashable key.
"""

from functools import cache
from math import factorial

Partition = tuple[int, ...]


def make_partition(parts) -> Partition:
    """Normalize an iterable of nonnegative integers into a partition."""
    p = tuple(sorted((int(x) for x in parts if int(x) != 0), reverse=True))
    if any(x < 0 for x in p):
        raise ValueError(f"negative part in {parts!r}")
    return p


def check_partition(p: Partition) -> None:
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)) or any(x < 1 for x in p):
        raise ValueError(f"{p!r} is not a partition")


def size(p: Partition) -> int:
    return sum(p)


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in decreasing lexicographic order ((n) first)."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def gen(remaining: int, maxpart: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, maxpart), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


def pad(lam: Partition, n: int) -> Partition:
    """The padded partition (n-k, lam_1, ..., lam_l) of n, for n >= k + lam_1."""
    check_partition(lam)
    k = sum(lam)
    first = lam[0] if lam else 0
    if n < k + first:
        raise ValueError(f"pad({lam}, {n}): need n >= {k + first}")
    if n == k:  # only possible for lam = (), n = 0
        return lam
    return (n - k,) + lam


def unpad(mu: Partition) -> Partition:
    """Inverse of pad: the stable label of a partition of n (drop the first part)."""
    return mu[1:]


def angle_pad(mu: Partition, n: int) -> Partition:
    """Block-size partition (mu_1+1, ..., mu_m+1, 1, ..., 1) with n-|mu| parts."""
    check_partition(mu)
    q = sum(mu)
    m = len(mu)
    if n - q < m:
        raise ValueError(f"angle_pad({mu}, {n}): need n - |mu| >= {m}")
    return tuple(x + 1 for x in mu) + (1,) * (n - q - m)


def curly_pad(mu: Partition) -> Partition:
    """Increment the first part: (mu_1+1, mu_2, ...)."""
    check_partition(mu)
    if not mu:
        raise ValueError("curly_pad requires a nonempty partition")
    return (mu[0] + 1,) + mu[1:]


def leadsto(lam: Partition, n: int) -> tuple[Partition, ...]:
    """All mu of n obtained from lam by adding a horizontal strip.

    Adding n-|lam| boxes with no two in the same column is equivalent to the
    interlacing condition mu_1 >= lam_1 >= mu_2 >= lam_2 >= ...; rows are
    enumerated top-down within those bounds, so nothing is filtered and each
    mu arises exactly once.
    """
    check_partition(lam)
    k = sum(lam)
    if n < k:
        raise ValueError(f"leadsto({lam}, {n}): need n >= {k}")
    ell = len(lam)
    tail = [sum(lam[i:]) for i in range(ell + 1)] + [0]
    out: list[Partition] = []

    def build(i: int, remaining: int, prefix: tuple[int, ...]):
        if i == ell + 1:
            if remaining == 0:
                out.append(prefix)
            return
        lo = lam[i] if i < ell else 0
        hi = remaining - tail[i + 1]
        if i > 0:
            hi = min(hi, lam[i - 1])
        for row in range(hi, max(lo, 1) - 1, -1):
            build(i + 1, remaining - row, prefix + (row,))
        if lo == 0 and remaining == 0:
            out.append(prefix)

    build(0, n, ())
    return tuple(sorted(out, reverse=True))


def lex_compare(mu: Partition, nu: Partition) -> int:
    """-1, 0, or 1; total order on partitions of the same integer."""
    if sum(mu) != sum(nu):
        raise ValueError(f"lex_compare: |{mu}| != |{nu}|")
    if mu == nu:
        return 0
    return 1 if mu > nu else -1


@cache
def dim_irrep(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam (hook length formula)."""
    check_partition(lam)
    n = sum(lam)
    if n == 0:
        return 1
    conj = conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    num = factorial(n)
    if num % hooks:
        raise ArithmeticError(f"hook product {hooks} does not divide {n}!")
    return num // hooks


def contents(lam: Partition) -> tuple[int, ...]:
    """Contents j - i of the boxes (i, j) of the Young diagram, row by row."""
    return tuple(j - i for i, row in enumerate(lam) for j in range(row))


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not lam:
        return ()
    return tuple(sum(1 for row in lam if row > j) for j in range(lam[0]))


def format_partition(p: Partition) -> str:
    """CLI text form: comma-separated parts, `0` for the empty partition."""
    return ",".join(str(x) for x in p) if p else "0"


def parse_partition(text: str) -> Partition:
    """Inverse of format_partition; validates weak decrease."""
    text = text.strip()
    if text in ("", "0"):
        return ()
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse partition {text!r}") from exc
    check_partition(parts)
    return parts
