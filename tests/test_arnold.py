from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from repstab.arnold import (
    act_monomial,
    all_monomials,
    arnold_report,
    format_polynomial,
    induced_cyclic_sign_character,
    poincare_polynomial,
    straighten,
    top_basis,
    top_character,
    top_character_direct,
    trivial_multiplicity,
)
from repstab.characters import decompose
from repstab.linalg import add_into
from repstab.perms import all_perms, inversion_sign


def test_poincare_polynomial_m2():
    for d in (2, 3, 4):
        assert poincare_polynomial(2, d) == {0: 1, d - 1: 1}


def test_poincare_polynomial_m3_d2():
    assert poincare_polynomial(3, 2) == {0: 1, 1: 3, 2: 2}


def test_top_dimension_counts():
    for m in range(2, 8):
        assert len(top_basis(m)) == factorial(m - 1)


def test_monomial_counts_match_polynomial():
    for m in range(1, 7):
        for d in (2, 3):
            coeffs = poincare_polynomial(m, d)
            by_degree = {}
            for mono in all_monomials(m):
                deg = (d - 1) * len(mono)
                by_degree[deg] = by_degree.get(deg, 0) + 1
            assert by_degree == coeffs


def test_square_zero():
    assert straighten([(1, 2), (1, 2)], 2) == {}
    assert straighten([(1, 2), (3, 4), (1, 2)], 3) == {}


def test_orientation_signs():
    assert straighten([(2, 1)], 3) == {((1, 2),): -1}
    assert straighten([(2, 1)], 2) == {((1, 2),): 1}


def test_three_term_relation_straightens_to_zero():
    for d in (2, 3, 4, 5):
        for (i, j, k) in permutations((1, 2, 3)):
            total = {}
            add_into(total, straighten([(i, j), (j, k)], d))
            add_into(total, straighten([(j, k), (k, i)], d))
            add_into(total, straighten([(k, i), (i, j)], d))
            assert not {key: v for key, v in total.items() if v}


def test_straighten_idempotent_on_normal_forms():
    for d in (2, 3):
        for mono in all_monomials(4):
            assert straighten(list(mono), d) == ({mono: 1} if mono else {(): 1})


def test_straighten_collision_example():
    # G_13 * G_23 lands in normal form with distinct second indices
    for d in (2, 3):
        out = straighten([(1, 3), (2, 3)], d)
        assert out
        for mono in out:
            seconds = [b for _, b in mono]
            assert len(set(seconds)) == len(seconds)
        total = {}
        for mono, c in out.items():
            add_into(total, straighten(list(mono), d), c)
        assert total == out


def test_factor_order_consistency():
    # straightening a permuted factor list equals the Koszul-signed original
    for d in (2, 3):
        kappa = -1 if d % 2 == 0 else 1
        base = [(1, 2), (1, 3), (2, 4)]
        swapped = [(1, 3), (1, 2), (2, 4)]
        lhs = straighten(swapped, d)
        rhs = {k: kappa * v for k, v in straighten(base, d).items()}
        assert lhs == rhs


def test_action_is_equivariant_homomorphism():
    for d in (2, 3):
        for sigma in all_perms(4):
            for mono in [((1, 2), (1, 3)), ((1, 2), (3, 4)), ((2, 3),)]:
                image = act_monomial(sigma, mono, d)
                # acting then straightening again is stable
                total = {}
                for mono2, c in image.items():
                    add_into(total, straighten(list(mono2), d), c)
                assert total == image


def test_action_composition():
    from repstab.perms import compose

    d = 2
    monos = top_basis(4)[:8]
    perms = list(all_perms(4))[::5]
    for sigma in perms:
        for tau in perms:
            st_ = compose(sigma, tau)
            for mono in monos:
                direct = act_monomial(st_, mono, d)
                via = {}
                for mid, c in act_monomial(tau, mono, d).items():
                    add_into(via, act_monomial(sigma, mid, d), c)
                assert direct == {k: v for k, v in via.items() if v}


def test_straightened_products_span_basis():
    # products of q generators straighten onto the full degree-q(d-1) span
    from itertools import product as iproduct

    from repstab.linalg import add_into as _add

    m = 4
    gens = [(a, b) for b in range(2, m + 1) for a in range(1, b)]
    for d in (2, 3):
        for q in (1, 2, 3):
            ech_keys = set()
            rank_rows = []
            for combo in iproduct(gens, repeat=q):
                out = straighten(list(combo), d)
                if out:
                    rank_rows.append(out)
                    ech_keys.update(out)
            from repstab.linalg import span_dim

            expected = sum(1 for mono in all_monomials(m) if len(mono) == q)
            assert span_dim(rank_rows) == expected
            assert all(len(mono) == q for mono in ech_keys)


def test_top_character_m2():
    for d in (2, 4):
        chi = top_character(2, d)
        assert chi.values == (1, 1)  # trivial: classes (2), (1,1)
    for d in (3, 5):
        chi = top_character(2, d)
        assert chi.value((2,)) == -1  # sign representation


def test_top_character_m3_d2():
    chi = top_character(3, 2)
    assert chi.value((1, 1, 1)) == 2
    assert chi.value((2, 1)) == 0
    assert chi.value((3,)) == -1
    assert decompose(chi).counts == {(2, 1): 1}


def test_top_character_parity_only():
    for m in range(2, 6):
        even = top_character_direct(m, 2)
        for d in (4, 6):
            assert top_character_direct(m, d) == even
        odd = top_character_direct(m, 3)
        for d in (5,):
            assert top_character_direct(m, d) == odd


def test_top_character_degree():
    for m in range(2, 7):
        for d in (2, 3):
            assert top_character(m, d).degree() == factorial(m - 1)


def test_even_top_character_is_induced_from_cyclic():
    for m in range(2, 7):
        assert top_character(m, 2) == induced_cyclic_sign_character(m)


def test_odd_top_character_has_no_trivial_part():
    for m in range(2, 7):
        chi = top_character(m, 3)
        assert trivial_multiplicity(chi) == 0


def test_even_top_character_no_trivial_for_m_ge_3():
    for m in range(3, 7):
        assert trivial_multiplicity(top_character(m, 2)) == 0


def test_induced_cyclic_character_is_a_character():
    for m in range(2, 8):
        mv = decompose(induced_cyclic_sign_character(m))
        assert mv.total_dim() == factorial(m - 1)


def test_arnold_report_shape():
    report = arnold_report(3, 2)
    assert report["poincare"] == {0: 1, 1: 3, 2: 2}
    assert report["top_decomposition"] == {(2, 1): 1}
    assert format_polynomial(report["poincare"]) == "1 + 3t + 2t^2"


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=3),
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5)),
        min_size=1,
        max_size=4,
    ),
)
def test_straighten_always_normal(d, factors):
    if any(x == y for x, y in factors):
        with pytest.raises(ValueError):
            straighten(factors, d)
        return
    out = straighten(factors, d)
    for mono in out:
        seconds = [b for _, b in mono]
        assert len(set(seconds)) == len(seconds)
        assert all(a < b for a, b in mono)
        assert list(mono) == sorted(mono, key=lambda ab: (ab[1], ab[0]))


def reference_keyed_inversion_parity(oriented):
    """The O(k^2) inversion count the straightening sign used before
    perms.inversion_sign, copied verbatim: pairs (b, a) compared strictly."""
    keyed = [((b, a), (a, b)) for a, b in oriented]
    inversions = 0
    for i in range(len(keyed)):
        for j in range(i + 1, len(keyed)):
            if keyed[i][0] > keyed[j][0]:
                inversions += 1
    return inversions % 2


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=9))
def test_straightening_inversion_sign_matches_quadratic_count(oriented):
    # repeated generators are ties, which count as no inversion
    keys = [(b, a) for a, b in oriented]
    expected = -1 if reference_keyed_inversion_parity(oriented) else 1
    assert inversion_sign(keys) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 5), max_size=12))
def test_inversion_sign_matches_quadratic_count_with_repeats(values):
    inversions = sum(
        1 for i in range(len(values)) for j in range(i + 1, len(values)) if values[i] > values[j]
    )
    assert inversion_sign(values) == (-1 if inversions % 2 else 1)
