import random
from bisect import insort
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from repstab.configspaces import load_manifold
from repstab.e2 import E2Page
from repstab.linalg import Echelon, _integral, _pivot_of, _primitive, add_into, kernel_basis, span_dim

coeff = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
).filter(lambda x: x != 0)
vec = st.dictionaries(st.integers(min_value=0, max_value=5), coeff, max_size=4)


@settings(max_examples=80, deadline=None)
@given(st.lists(vec, max_size=7))
def test_kernel_basis_is_a_basis_of_the_relations(vectors):
    kernel = kernel_basis(vectors, [{i: 1} for i in range(len(vectors))])
    for combo in kernel:
        total = {}
        for idx, c in combo.items():
            add_into(total, vectors[idx], c)
        assert total == {}
        assert combo[max(combo)] > 0
    assert len(kernel) == len(vectors) - span_dim(vectors)
    assert span_dim(kernel) == len(kernel)


def test_kernel_basis_scales_fractions_to_integers():
    vectors = [{0: Fraction(1, 2)}, {0: Fraction(1, 3)}, {1: 1}]
    assert kernel_basis(vectors, [{i: 1} for i in range(3)]) == [{0: -2, 1: 3}]


class FractionRREF:
    """Reference reduced row echelon form: Fraction rows with pivots 1."""

    def __init__(self, vectors):
        self.rows = []
        for v in vectors:
            self.insert(v)

    def coords(self, v):
        v = {k: Fraction(x) for k, x in v.items()}
        out = []
        for pivot, row in self.rows:
            c = v.get(pivot, 0)
            out.append(c)
            if c:
                add_into(v, row, -c)
        return out, v

    def insert(self, v):
        _, v = self.coords(v)
        if not v:
            return
        pivot = min(v)
        v = {k: x / v[pivot] for k, x in v.items()}
        for _, row in self.rows:
            c = row.get(pivot)
            if c:
                add_into(row, v, -c)
        self.rows.append((pivot, v))
        self.rows.sort(key=lambda r: r[0])


@settings(max_examples=150, deadline=None)
@given(st.lists(vec, max_size=7), vec)
def test_echelon_matches_fraction_rref(vectors, probe):
    ech, ref = Echelon(vectors), FractionRREF(vectors)
    assert ech.dim == len(ref.rows)
    assert [pivot for pivot, _ in ech.rows] == [pivot for pivot, _ in ref.rows]
    basis = ech.basis()
    assert basis == [row for _, row in ref.rows]
    assert all(type(x) is Fraction for row in basis for x in row.values())
    for v in vectors + [probe]:
        coords, residual = ref.coords(v)
        assert ech.reduce(v) == residual
        assert ech.coords(v) == (coords, residual)
        assert ech.contains(v) == (not residual)


@settings(max_examples=150, deadline=None)
@given(st.lists(vec, max_size=7))
def test_echelon_rows_are_primitive_integer_vectors(vectors):
    ech = Echelon(vectors)
    pivots = [pivot for pivot, _ in ech.rows]
    assert pivots == sorted(pivots)
    for pivot, row in ech.rows:
        assert all(type(x) is int for x in row.values())
        assert pivot == min(row) and row[pivot] > 0
        assert gcd(*row.values()) == 1
        assert not any(other in row for other in pivots if other != pivot)


def test_echelon_keeps_integer_multiple_of_reduced_row():
    ech = Echelon([{0: Fraction(-1, 3), 1: Fraction(-1, 2), 2: 1}, {2: 4}])
    assert ech.rows == [(0, {0: 2, 1: 3}), (2, {2: 1})]
    assert ech.basis() == [{0: 1, 1: Fraction(3, 2)}, {2: 1}]
    assert ech.reduce({1: 1}) == {1: 1}
    assert ech.reduce({0: 1, 1: 1}) == {1: Fraction(-1, 2)}
    assert ech.coords({0: 1, 2: 5}) == ([1, 5], {1: Fraction(-3, 2)})


def test_kernel_basis_recombines_over_the_domain():
    # 2 * images[0] - images[1] = 0, so the kernel is -2 * domain[0] + domain[1]
    images = [{0: 1}, {0: 2}, {1: 1}]
    domain = [{"a": 1}, {"a": 1, "b": 1}, {"c": 5}]
    assert kernel_basis(images, domain) == [{"a": -1, "b": 1}]


def test_integral_returns_a_new_dict():
    # callers modify the result in place, so an all-int vector is copied
    v = {1: 3, 4: -2}
    w, den = _integral(v)
    assert (w, den) == (v, 1) and w is not v
    w, den = _integral({1: Fraction(1, 2), 2: 3})
    assert (w, den) == ({1: 1, 2: 6}, 2)
    assert all(type(x) is int for x in w.values())


class RowScanEchelon:
    """Echelon as it was before the {pivot: row} map: _residual looks every
    stored row's pivot up in the vector."""

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


def _random_vector(rng: random.Random, keys: list) -> dict:
    v = {}
    for k in rng.sample(keys, rng.randint(0, 5)):
        x = rng.choice([rng.randint(-6, 6), Fraction(rng.randint(-6, 6), rng.randint(1, 4))])
        if x:
            v[k] = x
    return v


@pytest.mark.parametrize("seed", range(12))
def test_echelon_matches_the_row_scan(seed):
    rng = random.Random(seed)
    keys = [(a, (b,)) for a in range(6) for b in range(5)]
    fast, slow = Echelon(), RowScanEchelon()
    for _ in range(40):
        v = _random_vector(rng, keys)
        probe = _random_vector(rng, keys)
        assert fast.reduce(probe) == slow.reduce(probe)
        assert fast.coords(probe) == slow.coords(probe)
        assert fast.contains(probe) == slow.contains(probe)
        assert fast.contains(v) == slow.contains(v)
        assert fast.insert(v) == slow.insert(v)
        assert fast.rows == slow.rows
    assert Echelon.from_reduced(slow.rows).reduce(probe) == slow.reduce(probe)


@pytest.mark.parametrize("name, n_max", [("torus", 4), ("s2", 5)])
def test_span_dim_of_explicit_differentials_matches_the_row_scan(name, n_max):
    desc = load_manifold(name)
    for n in range(1, n_max + 1):
        page = E2Page(desc, n)
        for p, q in page.cells:
            images = [page.diff_key(key) for key in page.basis(p, q)]
            assert span_dim(images) == RowScanEchelon(images).dim, (name, n, p, q)


@st.composite
def spans(draw):
    """Sparse vectors with zero, repeated and dependent ones among them:
    each extra vector is a combination of two earlier ones."""
    vectors = draw(st.lists(vec, max_size=8))
    for _ in range(draw(st.integers(min_value=0, max_value=3)) if vectors else 0):
        combo = {}
        for _ in range(2):
            add_into(combo, draw(st.sampled_from(vectors)), draw(coeff))
        vectors.insert(draw(st.integers(min_value=0, max_value=len(vectors))), combo)
    return vectors


@settings(max_examples=200, deadline=None)
@given(spans())
def test_span_dim_matches_echelon(vectors):
    dim = Echelon(vectors).dim
    assert span_dim(vectors) == dim
    assert span_dim(vectors + vectors[:2]) == dim
    # reversed key order: other pivots, same rank
    assert span_dim([{-k: x for k, x in v.items()} for v in vectors]) == dim
    # tuple keys, relabelled by sorted position, in two more orders
    assert span_dim([{(k % 2, (k,)): x for k, x in v.items()} for v in vectors]) == dim
    assert span_dim([{(-k, "x"): x for k, x in v.items()} for v in vectors]) == dim


def test_span_dim_reenters_a_cancelled_key():
    # the fourth vector eliminates pivot 0, which cancels key 2 and brings in
    # key 1, itself a pivot; eliminating 1 brings key 2 back onto the heap,
    # and pivot 2's row leaves key 3 as the new pivot
    vectors = [{2: 1, 3: 1}, {0: 1, 1: 1, 2: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}]
    assert span_dim(vectors) == Echelon(vectors).dim == 4
    assert span_dim(vectors + [{0: 2, 2: 2}]) == 4
    assert span_dim([{0: 3, 1: 3, 2: 3}, {0: 2, 1: 2, 2: 2}]) == 1
    assert span_dim([{0: Fraction(1, 2), 1: 1}, {0: 1, 1: 2}, {1: Fraction(2, 3)}]) == 2
