"""Pseudo-tableaux, pseudo-tabloids, column stabilizers, and the S_n action.

A pseudo-tableau of shape lam (a partition of k) in ambient n is an injective
labeling of the Young diagram by a k-element subset of {1..n}.  A pseudo-
tabloid is its row-equivalence class; the canonical representative sorts each
row ascending.  Ambient n is part of the identity: the same labeling at
levels n and n+1 are distinct basis vectors.

Both are frozen value types on the fields (n, rows) (_record.Frozen):
hashed, compared and ordered as that tuple, and equal only within their
class, so a tableau never equals the tabloid or the plain tuple with the
same rows.

The sums over tableaux work below these types, on positions: column_group
holds the column stabilizer of a shape once, as (position permutation,
sign) pairs that any tableau of the shape reads its labels through
(column_stabilizer is that relabelling), and deal_table holds the dealings
of m positions into rows of given sizes once (row_splits of range(m)),
which any m sorted labels are read through.  Both caches are bounded.
"""

from functools import lru_cache
from itertools import accumulate, combinations, permutations, product

from ._record import Frozen
from .partitions import Partition, check_partition
from .perms import Perm, inversion_sign

Rows = tuple[tuple[int, ...], ...]
_set = object.__setattr__


class _Rows(Frozen):
    """Fields n and rows, ordered as the tuple (n, rows) within one class,
    as @dataclass(frozen=True, order=True) would."""

    __slots__ = _fields = ("n", "rows")

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.rows) < (other.n, other.rows)
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.rows) <= (other.n, other.rows)
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.rows) > (other.n, other.rows)
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.rows) >= (other.n, other.rows)
        return NotImplemented

    @property
    def shape(self) -> Partition:
        return tuple(len(r) for r in self.rows)

    def supp(self) -> frozenset:
        return frozenset(x for row in self.rows for x in row)

    def render(self) -> str:
        """Rows joined by `;`, entries by `,` (the CLI text form)."""
        return ";".join(",".join(str(x) for x in row) for row in self.rows)


class PseudoTableau(_Rows):
    """PseudoTableau(n, rows): an injective labeling of a Young diagram by
    labels in 1..n, row by row."""

    __slots__ = ()

    def __init__(self, n: int, rows: Rows):
        labels = [x for row in rows for x in row]
        if len(set(labels)) != len(labels):
            raise ValueError(f"labels not injective: {rows}")
        if labels and (min(labels) < 1 or max(labels) > n):
            raise ValueError(f"labels outside 1..{n}: {rows}")
        check_partition(tuple(len(r) for r in rows))
        _set(self, "n", n)
        _set(self, "rows", rows)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows if len(row) > j)

    def columns(self) -> list[tuple[int, ...]]:
        width = len(self.rows[0]) if self.rows else 0
        return [self.column(j) for j in range(width)]

    def tabloid(self) -> "PseudoTabloid":
        return PseudoTabloid(self.n, tuple(tuple(sorted(r)) for r in self.rows))


class PseudoTabloid(_Rows):
    """Canonical row-sorted representative of a row-equivalence class."""

    __slots__ = ()

    def __init__(self, n: int, rows: Rows):
        for row in rows:
            if tuple(sorted(row)) != row:
                raise ValueError(f"tabloid rows must be sorted: {rows}")
        _set(self, "n", n)
        _set(self, "rows", rows)


def parse_tableau(text: str, n: int) -> PseudoTableau:
    """Inverse of render: `7,2,1;5,3;4` with ambient n."""
    rows = tuple(
        tuple(int(x) for x in chunk.split(",")) for chunk in text.split(";") if chunk
    )
    return PseudoTableau(n, rows)


def act(sigma: Perm, t: PseudoTableau) -> PseudoTableau:
    """Relabel every box by sigma; sigma is a permutation of the ambient set."""
    if len(sigma) != t.n:
        raise ValueError(f"permutation of {len(sigma)} applied at ambient {t.n}")
    return PseudoTableau(t.n, tuple(tuple(sigma[x - 1] for x in row) for row in t.rows))


def act_tabloid(sigma: Perm, t: PseudoTabloid) -> PseudoTabloid:
    if len(sigma) != t.n:
        raise ValueError(f"permutation of {len(sigma)} applied at ambient {t.n}")
    return PseudoTabloid(
        t.n, tuple(tuple(sorted(sigma[x - 1] for x in row)) for row in t.rows)
    )


def row_labels(t: PseudoTabloid) -> tuple[int, ...]:
    """The row index of each point x at index x (-1 off the support, and at
    the unused index 0): t as a function of its points, which sigma relabels
    as act_tabloid does."""
    labels = [-1] * (t.n + 1)
    for j, row in enumerate(t.rows):
        for x in row:
            labels[x] = j
    return tuple(labels)


# One pass of the acceptance gate's calls reads 32 shapes.
@lru_cache(maxsize=256)
def column_group(shape: Partition) -> tuple:
    """The column stabilizer of a tableau of this shape, on box positions:
    one (p, sign) pair per element, p[i] the row-major position whose label
    the element moves into position i (so sigma . T reads labels[p[i]] at
    box i).  The order is the lex order of the product over the columns of
    length > 1, left to right, each column's arrangements in the order of
    itertools.permutations; the group has the product of the factorials of
    the column lengths as its order."""
    starts = [end - part for part, end in zip(shape, accumulate(shape))]
    width = shape[0] if shape else 0
    factors = []
    for j in range(width):
        col = [start + j for start, part in zip(starts, shape) if part > j]
        if len(col) > 1:
            # each arrangement as its (position, source) moves and its sign
            factors.append(
                [(list(zip(col, [col[i] for i in order])), inversion_sign(order)) for order in permutations(range(len(col)))]
            )
    out = []
    for choice in product(*factors):
        p = list(range(sum(shape)))
        sign = 1
        for moves, s in choice:
            for at, source in moves:
                p[at] = source
            sign *= s
        out.append((tuple(p), sign))
    return tuple(out)


def column_stabilizer(t: PseudoTableau):
    """Yield (sigma, sign) over the group preserving each column's entry set:
    column_group(t.shape) relabelled by the labels of t, in its order."""
    labels = [x for row in t.rows for x in row]
    for p, sign in column_group(t.shape):
        sigma = list(range(1, t.n + 1))
        for x, source in zip(labels, p):
            sigma[x - 1] = labels[source]
        yield tuple(sigma), sign


def column_stabilizer_order(t: PseudoTableau) -> int:
    from math import factorial

    out = 1
    for col in t.columns():
        out *= factorial(len(col))
    return out


def added_boxes(lam: Partition, mu: Partition) -> list[tuple[int, int]]:
    """Boxes of Y_mu not in Y_lam as (row, col), requiring a horizontal strip."""
    if sum(1 for i in range(1, len(mu)) if mu[i] > (lam[i - 1] if i - 1 < len(lam) else 0)):
        raise ValueError(f"{lam} does not lead to {mu} (column collision)")
    boxes = []
    for i, row in enumerate(mu):
        start = lam[i] if i < len(lam) else 0
        if row < start:
            raise ValueError(f"{lam} is not contained in {mu}")
        boxes.extend((i, j) for j in range(start, row))
    return boxes


def strip(t: PseudoTableau, lam: Partition) -> PseudoTableau:
    """Delete the boxes of shape(t)/lam together with their labels.

    Defined on tableaux only; the operation does not descend to tabloids.
    """
    boxes = set(added_boxes(lam, t.shape))
    rows = []
    for i in range(len(lam)):
        rows.append(tuple(t.rows[i][j] for j in range(len(t.rows[i])) if (i, j) not in boxes))
    return PseudoTableau(t.n, tuple(rows))


def row_splits(items, sizes):
    """Every way to deal the items into consecutive groups of the given sizes
    (sum(sizes) == len(items)), each group a combination in sorted order:
    nested combinations, in the lex order of the concatenated groups."""
    if not sizes:
        yield ()
        return
    for first in combinations(items, sizes[0]):
        rest = [x for x in items if x not in first]
        for tail in row_splits(rest, sizes[1:]):
            yield (first,) + tail


# One pass of the acceptance gate's calls reads 43 tables.
@lru_cache(maxsize=256)
def deal_table(m: int, sizes: tuple[int, ...]) -> tuple:
    """row_splits(range(m), sizes) as a tuple: every dealing of the positions
    0..m-1 into groups of the given sizes.  Dealing m sorted items is this
    table read through the items, in the same order."""
    return tuple(row_splits(range(m), sizes))


def pseudo_tabloids(lam: Partition, n: int) -> list[PseudoTabloid]:
    """All pseudo-tabloids of shape lam in ambient n, in sorted order: each
    k-subset of 1..n dealt into rows of lam's sizes.  The row tuples are
    sorted before they are wrapped, which gives the same order, since
    tabloids of one ambient order as their rows."""
    check_partition(lam)
    return [
        PseudoTabloid(n, rows)
        for rows in sorted(
            rows
            for supp in combinations(range(1, n + 1), sum(lam))
            for rows in row_splits(supp, lam)
        )
    ]


def pseudo_tableaux(lam: Partition, n: int):
    """Iterate all pseudo-tableaux of shape lam in ambient n."""
    check_partition(lam)
    for supp in combinations(range(1, n + 1), sum(lam)):
        for arranged in permutations(supp):
            yield _filled(lam, n, arranged)


def row_major_tableau(mu: Partition, n: int) -> PseudoTableau:
    """The canonical generating tableau: boxes filled 1, 2, ... row by row."""
    return _filled(mu, n, range(1, sum(mu) + 1))


def _filled(lam: Partition, n: int, labels) -> PseudoTableau:
    """The tableau of shape lam whose rows, top to bottom, read the labels."""
    return PseudoTableau(n, tuple(tuple(labels[end - part:end]) for part, end in zip(lam, accumulate(lam))))
