from itertools import combinations, permutations
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from repstab.partitions import check_partition, partitions_of
from repstab.perms import all_perms, compose, identity, inversion_sign
from repstab.tabloids import (
    PseudoTableau,
    PseudoTabloid,
    act,
    act_tabloid,
    added_boxes,
    column_group,
    column_stabilizer,
    column_stabilizer_order,
    deal_table,
    parse_tableau,
    pseudo_tabloids,
    pseudo_tableaux,
    row_major_tableau,
    row_splits,
    strip,
)


def test_identity_action():
    t = PseudoTableau(3, ((1, 2), (3,)))
    assert act(identity(3), t) == t


def test_row_swap_same_tabloid():
    t = PseudoTableau(3, ((1, 2), (3,)))
    swapped = act((2, 1, 3), t)
    assert swapped.rows == ((2, 1), (3,))
    assert swapped.tabloid() == t.tabloid()


def test_action_descends_to_tabloids():
    # exhaustive: {sigma T} depends only on {T}, shape (2,1), n = 3
    tableaux = list(pseudo_tableaux((2, 1), 3))
    for sigma in all_perms(3):
        images = {}
        for t in tableaux:
            key = t.tabloid()
            img = act(sigma, t).tabloid()
            assert images.setdefault(key, img) == img


def test_action_is_group_action():
    tabloids = pseudo_tabloids((2, 1), 4)
    for sigma in all_perms(4):
        for tau in all_perms(4):
            st = compose(sigma, tau)
            for t in tabloids:
                assert act_tabloid(st, t) == act_tabloid(sigma, act_tabloid(tau, t))


def test_column_stabilizer_orders():
    assert column_stabilizer_order(row_major_tableau((3,), 3)) == 1
    assert column_stabilizer_order(row_major_tableau((2, 1), 3)) == 2
    t = PseudoTableau(7, ((1, 2, 3), (5, 6), (7,)))
    assert column_stabilizer_order(t) == 12
    assert sum(1 for _ in column_stabilizer(t)) == 12


def test_column_stabilizer_signs():
    t = row_major_tableau((2, 2), 4)  # columns (1,3) and (2,4)
    elements = dict(column_stabilizer(t))
    assert len(elements) == 4
    assert elements[identity(4)] == 1
    swap_first = (3, 2, 1, 4)
    assert elements[swap_first] == -1


def test_column_stabilizer_preserves_columns():
    t = PseudoTableau(6, ((1, 4), (2, 5), (6,)))
    for sigma, _ in column_stabilizer(t):
        image = act(sigma, t)
        for col, new_col in zip(t.columns(), image.columns()):
            assert set(col) == set(new_col)


def test_strip_worked_example():
    t = PseudoTableau(7, ((1, 2, 3, 4), (5, 6), (7,)))
    stripped = strip(t, (3, 2, 1))
    assert stripped.rows == ((1, 2, 3), (5, 6), (7,))
    assert stripped.supp() == frozenset({1, 2, 3, 5, 6, 7})


def test_strip_identity_and_single_row():
    t = row_major_tableau((2, 1), 3)
    assert strip(t, (2, 1)) == t
    u = PseudoTableau(2, ((1, 2),))
    assert strip(u, (1,)).rows == ((1,),)


def test_strip_rejects_non_strip():
    t = row_major_tableau((2, 2), 4)
    with pytest.raises(ValueError):
        strip(t, (1, 1))  # (2,2)/(1,1) has two boxes in the second column


def test_added_boxes():
    assert added_boxes((3, 2, 1), (4, 2, 1)) == [(0, 3)]
    assert added_boxes((3, 2, 1), (3, 2, 1, 1)) == [(3, 0)]
    assert added_boxes((2,), (3, 1)) == [(0, 2), (1, 0)]


def test_tabloid_count_formula():
    for lam in [(1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2), (2, 1, 1), (3, 2), (2, 2, 1)]:
        k = sum(lam)
        for n in range(k, 8):
            expected = comb(n, k) * factorial(k)
            for part in lam:
                expected //= factorial(part)
            assert len(pseudo_tabloids(lam, n)) == expected


def test_tabloid_canonicalization_idempotent():
    for t in pseudo_tableaux((2, 2, 1), 6):
        tab = t.tabloid()
        assert PseudoTabloid(tab.n, tab.rows) == tab


def test_render_parse_roundtrip():
    t = parse_tableau("7,2,1;5,3;4", 7)
    assert t.rows == ((7, 2, 1), (5, 3), (4,))
    assert t.render() == "7,2,1;5,3;4"
    assert t.supp() == frozenset({1, 2, 3, 4, 5, 7})


def test_ambient_is_part_of_identity():
    a = PseudoTabloid(3, ((1, 2), (3,)))
    b = PseudoTabloid(4, ((1, 2), (3,)))
    assert a != b


def reference_arrangement_sign(base, arranged):
    """The column-stabilizer sign before perms.inversion_sign, copied verbatim."""
    pos = [base.index(x) for x in arranged]
    inversions = sum(
        1 for i in range(len(pos)) for j in range(i + 1, len(pos)) if pos[i] > pos[j]
    )
    return -1 if inversions % 2 else 1


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=6, unique=True), st.randoms(use_true_random=False))
def test_arrangement_sign_matches_quadratic_count(base, rng):
    arranged = list(base)
    rng.shuffle(arranged)
    expected = reference_arrangement_sign(tuple(base), tuple(arranged))
    assert inversion_sign([base.index(x) for x in arranged]) == expected


def reference_pseudo_tabloids(lam, n):
    """pseudo_tabloids with its nested split, before row_splits, copied verbatim."""
    check_partition(lam)
    k = sum(lam)
    out = []

    def split(rest, shape, rows):
        if not shape:
            out.append(PseudoTabloid(n, rows))
            return
        for chosen in combinations(rest, shape[0]):
            remaining = tuple(x for x in rest if x not in chosen)
            split(remaining, shape[1:], rows + (chosen,))

    for supp in combinations(range(1, n + 1), k):
        split(supp, lam, ())
    return sorted(out)


def test_pseudo_tabloids_match_nested_split():
    for k in range(5):
        for lam in partitions_of(k):
            for n in range(k, 9):
                assert pseudo_tabloids(lam, n) == reference_pseudo_tabloids(lam, n), (lam, n)


def reference_column_stabilizer(t):
    """column_stabilizer as a lazy recursion over the columns, before
    column_group, copied verbatim."""
    cols = [c for c in t.columns() if len(c) > 1]

    def rec(i, sigma, sgn):
        if i == len(cols):
            yield tuple(sigma), sgn
            return
        base = cols[i]
        for arranged in permutations(base):
            s = inversion_sign([base.index(x) for x in arranged])
            for orig, new in zip(base, arranged):
                sigma[orig - 1] = new
            yield from rec(i + 1, sigma, sgn * s)
        for orig in base:
            sigma[orig - 1] = orig

    yield from rec(0, list(range(1, t.n + 1)), 1)


def test_column_group_matches_the_row_major_column_stabilizer():
    # the row-major tableau labels position i by i + 1, so its column
    # stabilizer reads p off directly, in order and with its signs
    for k in range(7):
        for lam in partitions_of(k):
            expected = [
                (tuple(x - 1 for x in sigma), sign)
                for sigma, sign in reference_column_stabilizer(row_major_tableau(lam, k))
            ]
            assert list(column_group(lam)) == expected, lam
            assert len(column_group(lam)) == column_stabilizer_order(row_major_tableau(lam, k))


def test_column_stabilizer_relabels_the_column_group():
    for k in range(6):
        for lam in partitions_of(k):
            for n in (k, k + 2):
                tableaux = list(pseudo_tableaux(lam, n))
                for t in tableaux[:: max(1, len(tableaux) // 25)]:
                    assert list(column_stabilizer(t)) == list(reference_column_stabilizer(t)), t


def test_deal_table_is_row_splits_of_positions():
    items = (2, 3, 5, 7, 11, 13)
    for m in range(7):
        for lam in partitions_of(m):
            # pi_mu deals into rows with no added box too: sizes may hold 0
            for sizes in {lam, lam[::-1], (0,) + lam}:
                assert deal_table(m, sizes) == tuple(row_splits(range(m), sizes))
                # dealing m sorted items reads the table through them
                dealt = [tuple(tuple(items[i] for i in g) for g in split) for split in deal_table(m, sizes)]
                assert dealt == list(row_splits(items[:m], sizes))
