"""Exact sparse linear algebra over the rationals.

Vectors are dicts mapping orderable keys to int/Fraction coefficients; zero
coefficients are never stored.  Echelon keeps a fully reduced basis as
primitive integer rows, so membership tests, normal forms and coordinates
are single integer passes; only basis() and reduce() produce fractions.
"""

from bisect import insort
from fractions import Fraction
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
    denominators of v's entries."""
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
    is v[pivot_i] / a_i.  basis() divides each row by a_i and returns the
    reduced rows with pivots normalized to 1.
    """

    def __init__(self, vectors=None):
        self.rows: list[tuple[object, dict]] = []  # (pivot, primitive int row), sorted by pivot
        if vectors:
            for v in vectors:
                self.insert(v)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _residual(self, v: dict) -> tuple[dict, int]:
        """(r, den): r an int vector with r / den the normal form of v."""
        w, den = _integral(v)
        hits = []
        scale = 1
        for pivot, row in self.rows:
            c = w.get(pivot)
            if c:
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
                self.rows[i] = (p, _primitive(row, p))
        insort(self.rows, (pivot, r), key=_pivot_of)
        return True

    def basis(self) -> list[dict]:
        return [{k: Fraction(x, row[pivot]) for k, x in row.items()} for pivot, row in self.rows]

    def pivots(self) -> list:
        return [pivot for pivot, _ in self.rows]


def span_dim(vectors) -> int:
    ech = Echelon()
    for v in vectors:
        ech.insert(v)
    return ech.dim


def kernel_basis(images: list[dict], domain: list[dict]) -> list[dict]:
    """Basis of the kernel of the linear map sending domain_i to images_i,
    as vectors sum c_i domain_i for a basis of the relations
    {c : sum c_i images_i = 0}; the domain vectors must be independent.

    Fraction-free: each image is scaled to integer entries, and every row is
    kept as a primitive integer vector together with its trace (the same
    combination of the images), so elimination runs on ints.  Rows stay in
    pivot order without back-substitution, which one forward reduction pass
    needs.
    """
    rows: list[tuple[object, dict, dict]] = []  # (pivot, row, trace), sorted by pivot
    kernel = []
    for idx, v in enumerate(images):
        v, scale = _integral(v)
        trace = {idx: scale}
        for pivot, row, tr in rows:
            c = v.get(pivot)
            if c:
                a = row[pivot]
                g = gcd(a, c)
                if a != g:
                    v = {k: x * (a // g) for k, x in v.items()}
                    trace = {k: x * (a // g) for k, x in trace.items()}
                add_into(v, row, -(c // g))
                add_into(trace, tr, -(c // g))
        g = gcd(*v.values(), *trace.values())
        if g > 1:
            v = {k: x // g for k, x in v.items()}
            trace = {k: x // g for k, x in trace.items()}
        if not v:
            combo: dict = {}
            for i, c in trace.items():
                add_into(combo, domain[i], c)
            kernel.append(combo)
            continue
        pivot = min(v)
        insort(rows, (pivot, v, trace), key=_pivot_of)
    return kernel
