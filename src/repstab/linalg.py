"""Exact sparse linear algebra over the rationals.

Vectors are dicts mapping orderable keys to int/Fraction coefficients; zero
coefficients are never stored.  Echelon keeps a fully reduced basis as
primitive integer rows, so membership tests, normal forms and coordinates
are single integer passes; only basis() and reduce() produce fractions.
It is the one reduced basis, behind Rep, kernel_basis and the block spaces.
span_dim only counts: its rows are eliminated forward and never reduced.
"""

from bisect import insort
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm


def add_into(dst: dict, src: dict, coeff=1) -> None:
    for k, x in src.items():
        val = dst.get(k, 0) + coeff * x
        if val:
            dst[k] = val
        else:
            dst.pop(k, None)


def _integral(v: dict) -> tuple[dict, int]:
    """(w, den) with w an int vector and v = w / den, den the lcm of the
    denominators of v's entries; a new dict even when every entry is an
    int, since callers modify w."""
    if all(type(x) is int for x in v.values()):
        return dict(v), 1
    den = lcm(*[x.denominator for x in v.values()])
    return {k: x.numerator * (den // x.denominator) for k, x in v.items()}, den


def _primitive(v: dict, pivot) -> dict:
    """v divided by the gcd of its entries, signed so that v[pivot] > 0."""
    g = gcd(*v.values())
    if v[pivot] < 0:
        g = -g
    return v if g == 1 else {k: x // g for k, x in v.items()}


def _pivot_of(row: tuple) -> object:
    return row[0]


class Echelon:
    """Reduced row echelon basis of a subspace of the free module on orderable keys.

    Rows are stored fraction-free: each is the primitive integer multiple of
    its reduced row, with a positive entry a_i at its pivot, the row's minimal
    key.  Every pivot is zero in every other row, so v's coordinate on row i
    is v[pivot_i] / a_i, and reducing v touches only the rows whose pivots
    are keys of v, found in the {pivot: row} map beside the sorted rows.
    basis() divides each row by a_i and returns the reduced rows with pivots
    normalized to 1.
    """

    def __init__(self, vectors=None):
        self.rows: list[tuple[object, dict]] = []  # (pivot, primitive int row), sorted by pivot
        self._at: dict = {}  # pivot -> its row in rows
        if vectors:
            for v in vectors:
                self.insert(v)

    @classmethod
    def from_reduced(cls, rows) -> "Echelon":
        """The Echelon whose rows are the given (pivot, row) pairs, already in
        its form: each row primitive and integral with a positive entry at its
        pivot, its minimal key, and every pivot zero in every other row.  The
        rows are taken as they are, with no elimination."""
        ech = cls()
        ech.rows = sorted(rows, key=_pivot_of)
        ech._at = dict(ech.rows)
        return ech

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _residual(self, v: dict) -> tuple[dict, int]:
        """(r, den): r an int vector with r / den the normal form of v."""
        w, den = _integral(v)
        hits = []
        scale = 1
        at = self._at
        for pivot, c in w.items():
            row = at.get(pivot)
            if row is not None:
                a = row[pivot]
                hits.append((c, a, row))
                if scale % a:
                    scale = lcm(scale, a)
        if scale != 1:
            w = {k: x * scale for k, x in w.items()}
        for c, a, row in hits:
            add_into(w, row, -c * (scale // a))
        return w, den * scale

    def reduce(self, v: dict) -> dict:
        """Normal form of v modulo the span; does not modify the basis."""
        r, den = self._residual(v)
        if den == 1:
            return r
        return {k: Fraction(x, den) for k, x in r.items()}

    def coords(self, v: dict):
        """(coefficients per reduced basis row, residual normal form)."""
        return [v.get(pivot, 0) for pivot, _ in self.rows], self.reduce(v)

    def contains(self, v: dict) -> bool:
        return not self._residual(v)[0]

    def insert(self, v: dict) -> bool:
        """Add v to the span; returns True if the dimension grew."""
        r, _ = self._residual(v)
        if not r:
            return False
        pivot = min(r)
        r = _primitive(r, pivot)
        a = r[pivot]
        for i, (p, row) in enumerate(self.rows):
            c = row.get(pivot)
            if c:
                g = gcd(a, c)
                if a != g:
                    row = {k: x * (a // g) for k, x in row.items()}
                add_into(row, r, -(c // g))
                row = _primitive(row, p)
                self.rows[i] = (p, row)
                self._at[p] = row
        insort(self.rows, (pivot, r), key=_pivot_of)
        self._at[pivot] = r
        return True

    def basis(self) -> list[dict]:
        return [{k: Fraction(x, row[pivot]) for k, x in row.items()} for pivot, row in self.rows]


def span_dim(vectors) -> int:
    """dim of the span, by forward fraction-free elimination.

    Back-substitution only clears each pivot from the other rows, which a
    reduced basis needs and a count does not: the rank is the number of
    distinct pivots either way.  So each row is stored once, under its
    pivot, its smallest key, as a primitive integer vector, and is never
    touched again.  A new vector's keys go on a heap and are popped in
    increasing order; a key that is some row's pivot is eliminated by that
    row, whose other keys are all larger and join the heap, and the first
    key that is no row's pivot becomes the new pivot.

    The keys' order is the elimination order, so it decides how dense the
    rows grow: callers that know a good order (E2Page.differential_rank
    keys its rows by target-cell index) pass int keys in it.  Other keys
    are relabelled by their sorted positions, which keeps every pivot and
    makes each comparison an int one.
    """
    vectors = [v for v in vectors if v]
    if len(vectors) < 2:
        return len(vectors)
    keys = {k for v in vectors for k in v}
    if not all(type(k) is int for k in keys):
        position = {k: i for i, k in enumerate(sorted(keys))}
        vectors = [{position[k]: x for k, x in v.items()} for v in vectors]
    rows: dict = {}  # pivot -> primitive int row
    for v in vectors:
        w, _ = _integral(v)
        heap = list(w)
        heapify(heap)
        while heap:
            pivot = heappop(heap)
            c = w.get(pivot)
            if not c:  # cancelled, or a key pushed twice
                continue
            row = rows.get(pivot)
            if row is None:
                rows[pivot] = _primitive(w, pivot)
                break
            a = row[pivot]
            g = gcd(a, c)
            if a != g:
                w = {k: x * (a // g) for k, x in w.items()}
            c //= g
            for k, x in row.items():
                if k in w:
                    val = w[k] - c * x
                    if val:
                        w[k] = val
                    else:
                        del w[k]
                else:
                    w[k] = -c * x
                    heappush(heap, k)
    return len(rows)


def kernel_basis(images: list[dict], domain: list[dict]) -> list[dict]:
    """Basis of the kernel of the linear map sending domain_i to images_i,
    as vectors sum c_i domain_i for a basis of the relations
    {c : sum c_i images_i = 0}; the domain vectors must be independent.

    One Echelon over augmented vectors: image i, its keys relabelled to
    0..m-1, plus a tag 1 at m + (T - 1 - i).  Tags sort after every image
    key and later images get smaller tags, so an image that depends on
    the earlier ones leaves a row whose pivot is its own tag: the primitive
    integer relation expressing it through the earlier independent images,
    positive on its own index.
    """
    position = {k: i for i, k in enumerate(sorted({k for v in images for k in v}))}
    last = len(position) + len(images) - 1  # image i is tagged at last - i
    ech = Echelon()
    kernel = []
    for i, v in enumerate(images):
        aug = {position[k]: x for k, x in v.items()}
        aug[last - i] = 1
        ech.insert(aug)
        row = ech._at.get(last - i)
        if row is not None:
            combo: dict = {}
            for tag, c in row.items():
                add_into(combo, domain[last - tag], c)
            kernel.append(combo)
    return kernel
