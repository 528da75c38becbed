from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from repstab.linalg import Echelon, _integral, add_into, kernel_basis, span_dim

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
