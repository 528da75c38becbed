import re
from math import factorial, prod

import pytest

from repstab.arnold import poincare_polynomial
import repstab.configspaces as configspaces
from repstab.configspaces import (
    BoundedCache,
    NotComputable,
    _invariant_complex,
    betti_unordered,
    colored_betti,
    colored_pattern_bound,
    correspondence_injective,
    euler_characteristic_consistency,
    graded_invariants_dim,
    ordered_betti,
    stabilization_onset,
    stable_range_report,
    tensor_power_invariants_dim,
)
from repstab.characters import decompose, young_invariants_dim
from repstab.e2 import BudgetExceeded, E2Page, block_space
from repstab.manifolds import load_manifold, parse_descriptor
from repstab.partitions import partitions_of

TORUS = load_manifold("torus")
S2 = load_manifold("s2")
S3 = load_manifold("s3")
CP1 = load_manifold("cp1")


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
    # the runtime graded-symmetric power against the cycle-index sum
    P = S3.poincare()
    for n in range(0, 11):
        for i in range(0, 7):
            assert betti_unordered(S3, n, i) == tensor_power_invariants_dim(P, n, i)


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


def test_dim_one_pages_refuse():
    # every row of a d = 1 page would sit in degree q(d-1) = 0, so the cells
    # of C_n(S^1), (n-1)! circles, would collide
    s1 = parse_descriptor(
        "name s1\ndim 1\nflag single_differential\nclass 1 0\nclass t 1\ndiag 1 t 1\ndiag t 1 -1\n"
    )
    message = re.escape("s1: the E2 bigrading (p, q(d-1)) needs dim >= 2, got 1")
    for n in (2, 3, 4):
        with pytest.raises(NotComputable, match=message):
            ordered_betti(s1, n, 1)
        with pytest.raises(NotComputable, match=message):
            configspaces.e2_page(s1, n)
        with pytest.raises(NotComputable, match=message):
            euler_characteristic_consistency(s1, n)


def test_colored_reduces_to_unordered():
    for n in (2, 3):
        for i in range(0, 4):
            assert colored_betti(TORUS, n, i, ()) == betti_unordered(TORUS, n, i)


_SURVIVING: dict = {}


def _colored_via_characters(desc, n: int, i: int, mu) -> int:
    """The character route, the oracle for colored_betti: decompose the
    character of each surviving cell of total degree i on the explicit page
    into irreducibles, each contributing its Young-invariant dimension.  Rows
    run to q = n - 1.  The decompositions are kept per (desc, n, i)."""
    if (desc.name, n, i) not in _SURVIVING:
        page = E2Page(desc, n)
        counts: dict = {}
        for q in range(n):
            p = i - q * (desc.d - 1)
            if p < 0 or not page.basis(p, q):
                continue
            for lam, mult in decompose(page.cohomology_cell_character(p, q)).counts.items():
                counts[lam] = counts.get(lam, 0) + mult
        _SURVIVING[(desc.name, n, i)] = counts
    return sum(mult * young_invariants_dim(lam, mu) for lam, mult in _SURVIVING[(desc.name, n, i)].items())


def test_transfer_consistency_two_routes():
    # invariants-then-cohomology (orbit-representative complex) agrees with
    # cohomology-then-invariants (trivial part of the surviving page)
    for desc, n_max in ((TORUS, 4), (S2, 5), (CP1, 5)):
        for n in range(2, n_max + 1):
            for i in range(0, 5):
                via_characters = _colored_via_characters(desc, n, i, ())
                assert via_characters == betti_unordered(desc, n, i)


@pytest.mark.parametrize("desc, n_max", ((TORUS, 4), (S2, 5), (CP1, 5)), ids=("torus", "s2", "cp1"))
def test_colored_coinvariants_match_character_route(desc, n_max):
    # every mu with 1 <= |mu| <= 2 and every degree of C_n(M)
    for n in range(1, n_max + 1):
        for mu in [mu for k in (1, 2) if k <= n for mu in partitions_of(k)]:
            for i in range(n * desc.d + 1):
                assert colored_betti(desc, n, i, mu) == _colored_via_characters(desc, n, i, mu), (n, mu, i)


def test_colored_betti_pinned_values():
    assert [colored_betti(TORUS, n, 3, (1,)) for n in (3, 4, 5)] == [6, 14, 15]
    assert [colored_betti(S2, n, 3, (2,)) for n in (4, 5)] == [1, 1]
    # the character route with rows cut at q = n // 2 gave 56
    assert colored_betti(TORUS, 5, 4, (1, 1)) == 58


def test_colored_full_coloring_is_ordered():
    # mu = (1^n) and mu = (1^(n-1)) both colour every point apart
    for desc, n_max in ((TORUS, 5), (S2, 4), (CP1, 4), (S3, 4)):
        for n in range(1, n_max + 1):
            for mu in {(1,) * n, (1,) * (n - 1)}:
                for i in range(0, 5):
                    assert colored_betti(desc, n, i, mu) == ordered_betti(desc, n, i), (desc.name, n, mu, i)


def test_colored_betti_builds_no_page_cells(monkeypatch):
    # the explicit torus page at n = 12 would have 4*5*...*15 elements
    def refuse(*args):
        raise AssertionError("colored_betti took a cell character")

    monkeypatch.setattr(E2Page, "cohomology_cell_character", refuse)
    assert colored_betti(TORUS, 12, 3, (1,)) == 15
    assert "cells" not in _invariant_complex(TORUS, 12, (1,)).page.__dict__


def test_colored_pattern_bound():
    # q! for q = min(n - 1, i // (d - 1)) edges
    assert colored_pattern_bound(TORUS, 12, 3) == 6
    assert colored_pattern_bound(TORUS, 3, 5) == 2
    assert colored_pattern_bound(S3, 9, 5) == 2
    assert colored_pattern_bound(TORUS, 2, -1) == 1
    # the bound is met: the largest block space solved has q! keys
    for desc, n, i in ((TORUS, 5, 4), (S2, 5, 4), (S3, 5, 6)):
        young = _invariant_complex(desc, n, (1,))
        largest = max(
            len(block_space(comp, desc.d % 2)[1])
            for q in range(n)
            for p in range(i + 1)
            for pattern in young.patterns(p, q)
            if p + q * (desc.d - 1) <= i
            for _, comp, _ in pattern
        )
        assert largest == colored_pattern_bound(desc, n, i)


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
    assert euler_characteristic_consistency(TORUS, 4)
    with pytest.raises(BudgetExceeded):
        euler_characteristic_consistency(TORUS, 4, budget=10)
    assert ordered_betti(TORUS, 4, 2) == 30
    with pytest.raises(BudgetExceeded):
        ordered_betti(TORUS, 4, 2, budget=10)


def test_betti_builds_no_page_cells():
    # the explicit torus page at n = 12 would have 4*5*...*15 elements
    assert betti_unordered(TORUS, 12, 4) == 7
    assert "cells" not in _invariant_complex(TORUS, 12).page.__dict__


def test_bounded_cache_evicts_least_recently_used():
    cache = BoundedCache(2)
    assert cache.fetch("a", lambda: 1) == 1
    assert cache.fetch("b", lambda: 2) == 2
    assert cache.fetch("a", lambda: None) == 1  # a is now the most recent
    assert cache.fetch("c", lambda: 3) == 3
    assert list(cache) == ["a", "c"]
    assert cache.fetch("b", lambda: 4) == 4  # rebuilt after eviction


def test_bounded_page_caches_stay_correct_past_their_bound(monkeypatch):
    ordered = {n: ordered_betti(S2, n, 2) for n in (2, 3, 4, 5)}
    monkeypatch.setattr(configspaces, "_INVARIANT", BoundedCache(2))
    monkeypatch.setattr(configspaces, "_PAGES", BoundedCache(2))
    unordered = {2: 1, 3: 3, 4: 3, 5: 3}
    for n in (2, 3, 4, 5, 2, 3):
        assert betti_unordered(TORUS, n, 2) == unordered[n]
        assert ordered_betti(S2, n, 2) == ordered[n]
    assert [key[2] for key in configspaces._INVARIANT] == [2, 3]
    assert [key[2] for key in configspaces._PAGES] == [2, 3]
    assert len(configspaces._PAGES) == 2


def _generalised_binomial(x: int, n: int) -> int:
    return prod(range(x - n + 1, x + 1)) // factorial(n)


def test_unordered_euler_characteristic_is_generalised_binomial():
    # chi(B_n(M)) = binom(chi(M), n), independent of the complex
    for desc in (TORUS, S2, CP1):
        chi_m = sum((-1) ** deg * dim for deg, dim in desc.poincare().items())
        for n in range(0, 11):
            top = n * desc.d
            chi_bn = sum((-1) ** i * betti_unordered(desc, n, i) for i in range(top + 1))
            assert chi_bn == _generalised_binomial(chi_m, n), (desc.name, n)


def test_unordered_betti_constant_from_the_stable_range():
    # b_i(B_n) is constant from the start stable_range_report gives, to n = 12
    for desc in (TORUS, S2, CP1):
        for i in range(0, 9):
            rows = dict(stable_range_report(desc, i))
            start = int(rows.get("unordered-improved", rows["unordered"]).split()[2])
            values = {betti_unordered(desc, n, i) for n in range(start, 13)}
            assert len(values) == 1, (desc.name, i, start)


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
