"""Exact sparse linear algebra over the rationals.

Vectors are dicts mapping orderable keys to int/Fraction coefficients; zero
coefficients are never stored.  Echelon keeps a fully reduced basis so that
membership tests and coordinate extraction are single reduction passes.
"""

from bisect import insort
from fractions import Fraction
from math import gcd, lcm


def vec_scale(v: dict, c) -> dict:
    if c == 0:
        return {}
    return {k: c * x for k, x in v.items()}


def vec_add(a: dict, b: dict, coeff=1) -> dict:
    out = dict(a)
    for k, x in b.items():
        val = out.get(k, 0) + coeff * x
        if val:
            out[k] = val
        else:
            out.pop(k, None)
    return out


def add_into(dst: dict, src: dict, coeff=1) -> None:
    for k, x in src.items():
        val = dst.get(k, 0) + coeff * x
        if val:
            dst[k] = val
        else:
            dst.pop(k, None)


class Echelon:
    """Reduced row echelon basis of a subspace of the free module on orderable keys.

    Pivots are the minimal keys of their rows and are normalized to 1;
    every pivot is eliminated from every other row.
    """

    def __init__(self, vectors=None):
        self.rows: list[tuple[object, dict]] = []  # (pivot, vector), sorted by pivot
        if vectors:
            for v in vectors:
                self.insert(v)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: dict) -> dict:
        """Normal form of v modulo the span; does not modify the basis."""
        v = dict(v)
        for pivot, row in self.rows:
            c = v.get(pivot)
            if c:
                add_into(v, row, -c)
        return v

    def coords(self, v: dict):
        """(coefficients per basis row, residual normal form)."""
        v = dict(v)
        out = []
        for pivot, row in self.rows:
            c = v.get(pivot, 0)
            out.append(c)
            if c:
                add_into(v, row, -c)
        return out, v

    def contains(self, v: dict) -> bool:
        return not self.reduce(v)

    def insert(self, v: dict) -> bool:
        """Add v to the span; returns True if the dimension grew."""
        v = self.reduce(v)
        if not v:
            return False
        pivot = min(v)
        inv = Fraction(1, 1) / v[pivot]
        v = {k: x * inv for k, x in v.items()}
        for _, row in self.rows:
            c = row.get(pivot)
            if c:
                add_into(row, v, -c)
        self.rows.append((pivot, v))
        self.rows.sort(key=lambda pr: pr[0])
        return True

    def basis(self) -> list[dict]:
        return [dict(row) for _, row in self.rows]

    def pivots(self) -> list:
        return [pivot for pivot, _ in self.rows]


def span_dim(vectors) -> int:
    ech = Echelon()
    for v in vectors:
        ech.insert(v)
    return ech.dim


def kernel_basis(vectors: list[dict]) -> list[dict]:
    """Basis of {c : sum c_i vectors_i = 0}, keys are input indices.

    Fraction-free: each input is scaled to integer entries, and every row is
    kept as a primitive integer vector together with its trace (the same
    combination of the inputs), so elimination runs on ints.  Rows stay in
    pivot order without back-substitution, which one forward reduction pass
    needs.
    """
    rows: list[tuple[object, dict, dict]] = []  # (pivot, row, trace), sorted by pivot
    kernel = []
    for idx, v in enumerate(vectors):
        scale = lcm(*(Fraction(x).denominator for x in v.values()))
        v = {k: int(x * scale) for k, x in v.items()}
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
            kernel.append(trace)
            continue
        pivot = min(v)
        insort(rows, (pivot, v, trace), key=lambda r: r[0])
    return kernel


def matrix_rank(columns: list[dict]) -> int:
    return span_dim(columns)
