from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repstab.linalg import add_into, kernel_basis, span_dim

coeff = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
).filter(lambda x: x != 0)
vec = st.dictionaries(st.integers(min_value=0, max_value=5), coeff, max_size=4)


@settings(max_examples=80, deadline=None)
@given(st.lists(vec, max_size=7))
def test_kernel_basis_is_a_basis_of_the_relations(vectors):
    kernel = kernel_basis(vectors)
    for combo in kernel:
        total = {}
        for idx, c in combo.items():
            add_into(total, vectors[idx], c)
        assert total == {}
    assert len(kernel) == len(vectors) - span_dim(vectors)
    assert span_dim(kernel) == len(kernel)


def test_kernel_basis_scales_fractions_to_integers():
    vectors = [{0: Fraction(1, 2)}, {0: Fraction(1, 3)}, {1: 1}]
    assert kernel_basis(vectors) == [{0: -2, 1: 3}]
