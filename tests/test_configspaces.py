import pytest

from repstab.arnold import poincare_polynomial
from repstab.configspaces import (
    NotComputable,
    betti_unordered,
    colored_betti,
    correspondence_injective,
    euler_characteristic_consistency,
    graded_invariants_dim,
    ordered_betti,
    stabilization_onset,
    stable_range_report,
    tensor_power_invariants_dim,
)
from repstab.e2 import BudgetExceeded
from repstab.manifolds import load_manifold, parse_descriptor

TORUS = load_manifold("torus")
S2 = load_manifold("s2")
S3 = load_manifold("s3")


def test_torus_betti_published_values():
    assert betti_unordered(TORUS, 2, 2) == 1
    for n in (3, 4, 5, 6):
        assert betti_unordered(TORUS, n, 2) == 3
    assert betti_unordered(TORUS, 3, 3) == 4
    for n in (4, 5, 6):
        assert betti_unordered(TORUS, n, 3) == 5
    assert betti_unordered(TORUS, 4, 4) == 4
    for n in (5, 6):
        assert betti_unordered(TORUS, n, 4) == 7


def test_torus_betti_one_stable():
    for n in range(2, 7):
        assert betti_unordered(TORUS, n, 1) == 2


def test_sphere_h1_vanishes():
    for n in (2, 3, 4):
        assert betti_unordered(S2, n, 1) == 0


def test_s3_closed_form_matches_partition_sum():
    P = S3.poincare()
    for n in range(0, 9):
        for i in range(0, 7):
            assert betti_unordered(S3, n, i) == graded_invariants_dim(P, n, i)


def test_s3_betti_values():
    for n in range(1, 9):
        assert betti_unordered(S3, n, 0) == 1
        assert betti_unordered(S3, n, 3) == 1
        for i in (1, 2, 4, 5, 6):
            assert betti_unordered(S3, n, i) == 0


def test_graded_invariants_examples():
    # Lambda^p V^(1) is the last summand to appear, exactly at n = p
    from math import comb

    V = {0: 1, 1: 3}
    for p in range(0, 4):
        assert graded_invariants_dim(V, p, p) == comb(3, p)
        if p >= 1:
            assert graded_invariants_dim(V, p - 1, p) == 0
    assert graded_invariants_dim({0: 1, 3: 1}, 5, 0) == 1


def test_stabilization_onset():
    P = S3.poincare()
    assert stabilization_onset(P, 3) == 1
    assert stabilization_onset(P, 6) == 2
    for p in range(0, 7):
        onset = stabilization_onset(P, p)
        values = {n: graded_invariants_dim(P, n, p) for n in range(onset, 9)}
        assert len(set(values.values())) == 1


def test_cycle_index_equals_partition_sum_generic():
    for P in ({0: 1, 1: 2, 2: 1}, {0: 1, 2: 3}, {0: 1, 1: 1, 2: 1, 3: 1}):
        for n in range(0, 6):
            for p in range(0, 7):
                assert tensor_power_invariants_dim(P, n, p) == graded_invariants_dim(P, n, p)


def test_not_computable_without_flag():
    text = (
        "name mystery\ndim 2\nflag closed\nclass 1 0\nclass pt 2\n"
        "diag 1 pt 1\ndiag pt 1 1\n"
    )
    desc = parse_descriptor(text)
    desc.flags.discard("single_differential")
    with pytest.raises(NotComputable):
        betti_unordered(desc, 2, 1)


def test_colored_reduces_to_unordered():
    for n in (2, 3):
        for i in range(0, 4):
            assert colored_betti(TORUS, n, i, ()) == betti_unordered(TORUS, n, i)


def test_transfer_consistency_two_routes():
    # invariants-then-cohomology (invariant subcomplex) agrees with
    # cohomology-then-invariants (trivial part of the surviving page)
    from repstab.configspaces import _colored_via_characters

    for n in (2, 3, 4):
        for i in range(0, 5):
            via_characters = _colored_via_characters(TORUS, n, i, (), 200_000)
            assert via_characters == betti_unordered(TORUS, n, i)


def test_colored_full_coloring_is_ordered():
    for n in (2, 3):
        for i in range(0, 4):
            assert colored_betti(TORUS, n, i, (1,) * n) == ordered_betti(TORUS, n, i)


def test_colored_s3_stabilization():
    # B_{n,(1)}(S^3): one marked point; stable once n >= max(2i, 2)
    values = {}
    for i in range(0, 5):
        values[i] = [colored_betti(S3, n, i, (1,)) for n in range(1, 5)]
    # degree 0: always 1
    assert values[0] == [1, 1, 1, 1]
    # stabilization at n >= max(2i, 2|mu|) observed within the window
    for i in (0, 1, 2):
        onset = max(2 * i, 2)
        tail = values[i][onset - 1:]
        assert len(set(tail)) <= 1


def test_colored_rejects_oversized_mu():
    with pytest.raises(ValueError):
        colored_betti(TORUS, 2, 1, (2, 1))


def test_colored_rejects_negative_degree_and_n():
    for n, i in ((2, -1), (-1, 1)):
        with pytest.raises(ValueError, match="need n, i >= 0"):
            colored_betti(TORUS, n, i, (1,))


def test_euler_consistency():
    for desc in (TORUS, S2):
        for n in (2, 3):
            assert euler_characteristic_consistency(desc, n)


def test_unordered_euler_is_ordered_over_factorial():
    # the action on the ordered space is free, so chi(B_n) = chi(C_n)/n!
    from math import factorial

    for desc, chi_m in ((TORUS, 0), (S2, 2)):
        for n in (2, 3, 4):
            chi_cn = 1
            for j in range(n):
                chi_cn *= chi_m - j
            top = 2 * n + 2
            chi_bn = sum((-1) ** i * betti_unordered(desc, n, i) for i in range(top))
            assert chi_bn * factorial(n) == chi_cn


def test_homological_stability_corollary_on_sphere():
    # b_i(B_n(S^2)) is constant for n > i on the computable window
    for i in range(0, 4):
        values = [betti_unordered(S2, n, i) for n in range(max(i + 1, 1), 6)]
        assert len(set(values)) == 1


def test_cached_pages_honour_budget():
    # a page cached under the default budget is refused under a smaller one
    assert betti_unordered(TORUS, 4, 2) == 3
    with pytest.raises(BudgetExceeded):
        betti_unordered(TORUS, 4, 2, budget=10)
    assert ordered_betti(TORUS, 4, 2) == 30
    with pytest.raises(BudgetExceeded):
        ordered_betti(TORUS, 4, 2, budget=10)


def test_correspondence_injectivity_torus():
    for n, i in ((2, 1), (3, 1), (3, 2), (4, 2)):
        if n > i:
            assert correspondence_injective(TORUS, n, i)


def test_stable_range_report_values():
    rows = dict(stable_range_report(TORUS, 3))
    assert rows["ordered"] == "n >= 12"
    assert rows["unordered"] == "n >= 4"
    assert rows["colored"] == "n >= max(12, 2|mu|)"

    rows = dict(stable_range_report(S3, 3))
    assert rows["ordered"] == "n >= 6"
    assert "unordered-improved" not in rows  # b_1 = b_2 = 0 and b_3 is top

    text = (
        "name hk\ndim 4\nflag open\nclass 1 0\nclass x 3\n"
    )
    desc = parse_descriptor(text)
    rows = dict(stable_range_report(desc, 6))
    assert rows["unordered-improved"] == "n >= 3 (k = 3)"


def test_ordered_betti_lie_group_splitting():
    # C_n(S^3) = S^3 x C_{n-1}(R^3) since S^3 is a Lie group
    for n in (2, 3, 4):
        euclid = poincare_polynomial(n - 1, 3)
        for i in range(0, 3 * n):
            expected = euclid.get(i, 0) + euclid.get(i - 3, 0)
            assert ordered_betti(S3, n, i) == expected
