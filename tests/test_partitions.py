from math import comb

import pytest
from hypothesis import given, strategies as st

from repstab.partitions import (
    added_box_content,
    angle_pad,
    conjugate,
    contents,
    curly_pad,
    dim_irrep,
    format_partition,
    leadsto,
    lex_compare,
    make_partition,
    pad,
    parse_partition,
    partitions_of,
)


def count_standard_tableaux(shape):
    """Brute-force oracle: fill boxes 1..n respecting row/column increase."""
    n = sum(shape)
    if n == 0:
        return 1
    rows = [[0] * r for r in shape]

    def fill(value):
        if value > n:
            return 1
        total = 0
        for i, row in enumerate(rows):
            j = next((c for c, v in enumerate(row) if v == 0), None)
            if j is None:
                continue
            if i > 0 and rows[i - 1][j] == 0:
                continue
            row[j] = value
            total += fill(value + 1)
            row[j] = 0
        return total

    return fill(1)


@st.composite
def partition_strategy(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    bits = draw(st.lists(st.integers(min_value=1, max_value=max(n, 1)), max_size=4))
    parts = []
    rem = n
    for b in bits:
        if rem == 0:
            break
        take = min(b, rem)
        parts.append(take)
        rem -= take
    if rem:
        parts.append(rem)
    return make_partition(parts)


def test_pad_examples():
    assert pad((1,), 4) == (3, 1)
    assert pad((), 5) == (5,)
    with pytest.raises(ValueError):
        pad((2, 1), 4)


def test_pad_properties():
    for lam in [(), (1,), (2,), (1, 1), (3, 2), (2, 2, 1)]:
        k = sum(lam)
        first = lam[0] if lam else 0
        for n in range(k + first, k + first + 4):
            mu = pad(lam, n)
            assert sum(mu) == n
            assert all(mu[i] >= mu[i + 1] for i in range(len(mu) - 1))


def test_angle_pad_examples():
    assert angle_pad((2, 2), 8) == (3, 3, 1, 1)
    assert angle_pad((), 3) == (1, 1, 1)
    assert angle_pad((1,), 3) == (2, 1)
    with pytest.raises(ValueError):
        angle_pad((2, 2), 5)


def test_angle_pad_length():
    for mu in [(), (1,), (2, 1), (3,)]:
        for n in range(sum(mu) + len(mu), sum(mu) + len(mu) + 3):
            out = angle_pad(mu, n)
            assert sum(out) == n
            assert len(out) == n - sum(mu)


def test_curly_pad():
    assert curly_pad((3, 1)) == (4, 1)
    assert curly_pad((5,)) == (6,)
    assert curly_pad(pad((1,), 4)) == pad((1,), 5)
    with pytest.raises(ValueError):
        curly_pad(())


def test_curly_pad_pad_identity():
    for lam in [(), (1,), (2, 1), (2, 2)]:
        k = sum(lam)
        first = lam[0] if lam else 0
        for n in range(max(k + first, 1), k + first + 4):
            assert curly_pad(pad(lam, n)) == pad(lam, n + 1)


def test_leadsto_worked_example():
    assert set(leadsto((3, 2, 1), 7)) == {(4, 2, 1), (3, 3, 1), (3, 2, 2), (3, 2, 1, 1)}


def test_leadsto_trivial():
    assert leadsto((), 4) == ((4,),)
    assert set(leadsto((2,), 4)) == {(4,), (3, 1), (2, 2)}


def test_leadsto_is_horizontal_strip():
    # oracle: filter all partitions of n by the containment + one-per-column rule
    for lam in [(), (1,), (2, 1), (2, 2), (3, 1)]:
        for n in range(sum(lam), sum(lam) + 4):
            expected = set()
            for mu in partitions_of(n):
                padded_lam = tuple(lam) + (0,) * (len(mu) - len(lam))
                if len(mu) < len(lam):
                    continue
                if any(m < l for m, l in zip(mu, padded_lam)):
                    continue
                # no two added boxes in one column: mu_i <= lam_{i-1}
                if any(mu[i] > padded_lam[i - 1] for i in range(1, len(mu))):
                    continue
                expected.add(mu)
            assert set(leadsto(lam, n)) == expected


def test_leadsto_dimension_sum():
    # sum of dim over the strip equals dim of the induced module
    for lam in [(1,), (2,), (1, 1), (2, 1), (3, 2)]:
        k = sum(lam)
        for n in range(k, 9):
            total = sum(dim_irrep(mu) for mu in leadsto(lam, n))
            assert total == dim_irrep(lam) * comb(n, k)


def test_lex_compare():
    assert lex_compare((4,), (3, 1)) == 1
    assert lex_compare((2, 2), (2, 1, 1)) == 1
    assert lex_compare((2, 1), (2, 1)) == 0
    with pytest.raises(ValueError):
        lex_compare((2,), (1,))


def test_lex_total_order():
    for n in range(1, 7):
        parts = partitions_of(n)
        assert parts[0] == (n,)
        for i, mu in enumerate(parts):
            for j, nu in enumerate(parts):
                cmp = lex_compare(mu, nu)
                assert cmp == (0 if i == j else (1 if i < j else -1))


def test_dim_irrep_against_enumeration():
    for n in range(0, 8):
        for lam in partitions_of(n):
            assert dim_irrep(lam) == count_standard_tableaux(lam)


def test_dim_irrep_families():
    for n in range(1, 9):
        assert dim_irrep((n,)) == 1
        if n > 1:
            assert dim_irrep((n - 1, 1)) == n - 1
    assert dim_irrep((2, 1)) == 2


def test_conjugate():
    assert conjugate((3, 2, 1)) == (3, 2, 1)
    assert conjugate((4, 1)) == (2, 1, 1, 1)
    assert conjugate(()) == ()


def test_added_box_content():
    assert [added_box_content((2, 1), nu) for nu in ((3, 1), (2, 2), (2, 1, 1))] == [2, 0, -2]
    assert added_box_content((), (1,)) == 0
    for nu in ((4,), (3, 2), (2, 1), (1, 1, 1, 1)):
        assert added_box_content((2, 1), nu) is None
    assert added_box_content((1, 1, 1), (3, 1)) is None


@given(partition_strategy())
def test_added_box_contents_are_the_content_differences(mu):
    # the box added to mu in each nu = mu + box: distinct contents, each the
    # difference of the content sums
    grown = [nu for nu in partitions_of(sum(mu) + 1) if added_box_content(mu, nu) is not None]
    found = [added_box_content(mu, nu) for nu in grown]
    assert len(set(found)) == len(found)
    assert found == [sum(contents(nu)) - sum(contents(mu)) for nu in grown]


@given(partition_strategy())
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam


@given(partition_strategy(), st.integers(min_value=0, max_value=4))
def test_pad_roundtrip(lam, extra):
    k = sum(lam)
    first = lam[0] if lam else 0
    n = k + first + extra
    assert pad(lam, n)[1:] == lam


def test_serialization():
    assert format_partition((3, 2, 1)) == "3,2,1"
    assert format_partition(()) == "0"
    assert parse_partition("3,2,1") == (3, 2, 1)
    assert parse_partition("0") == ()
    with pytest.raises(ValueError):
        parse_partition("1,2")
