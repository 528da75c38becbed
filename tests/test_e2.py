import random
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import factorial
from types import SimpleNamespace

import pytest

import repstab.e2 as e2_module
from repstab.arnold import act_monomial, all_monomials, top_character
from repstab.characters import (
    ClassFunction,
    decompose,
    induced_character,
    young_invariants_dim,
    young_permutation_character,
)
from repstab.e2 import (
    E2Page,
    InvariantComplex,
    block_character_on_k,
    block_dim,
    block_rows,
    block_space,
    blocks_of,
    e2_cell_character,
    e2_cell_dim,
    graded_power,
    invariant_cell_dim,
    set_partitions_of_shape,
)
from repstab.linalg import Echelon, add_into, span_dim
from repstab.manifolds import load_manifold
from repstab.partitions import partitions_of, unpad
from repstab.perms import all_perms, class_representative

TORUS = load_manifold("torus")
S2 = load_manifold("s2")
S3 = load_manifold("s3")
CP1 = load_manifold("cp1")


def test_blocks_of():
    assert blocks_of((), 3) == ((1,), (2,), (3,))
    assert blocks_of(((1, 2),), 3) == ((1, 2), (3,))
    assert blocks_of(((1, 2), (2, 3)), 4) == ((1, 2, 3), (4,))


def reference_blocks_of(mono, n):
    """blocks_of by union-find, before it read the blocks off the forest,
    copied verbatim."""
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in mono:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
    for x in range(1, n + 1):
        groups.setdefault(find(x), []).append(x)
    return tuple(tuple(sorted(v)) for _, v in sorted(groups.items()))


def test_blocks_of_matches_union_find():
    for n in range(8):
        for mono in all_monomials(n):
            assert blocks_of(mono, n) == reference_blocks_of(mono, n), mono


def test_set_partitions_of_shape_counts():
    assert len(set_partitions_of_shape(4, (2, 2))) == 3
    assert len(set_partitions_of_shape(4, (2, 1, 1))) == 6
    assert len(set_partitions_of_shape(6, (3, 2, 1))) == 60


def test_torus_n2_cell_dims():
    page = E2Page(TORUS, 2)
    dims = page.cell_dims()
    assert [dims.get((p, 0), 0) for p in range(5)] == [1, 4, 6, 4, 1]
    assert [dims.get((p, 1), 0) for p in range(3)] == [1, 2, 1]


def test_single_point_page():
    page = E2Page(TORUS, 1)
    dims = page.cell_dims()
    assert dims == {(0, 0): 1, (1, 0): 2, (2, 0): 1}


def test_d_squared_zero():
    for desc in (TORUS, S2, S3):
        for n in (2, 3):
            assert E2Page(desc, n).check_d_squared()


def test_d_squared_zero_on_coinvariants():
    # s3 at n = 6, mu = (2, 2) is where a canonical that drops the Koszul
    # sign of an odd run of identical blocks gives d o d != 0
    cases = [
        (desc, n, mu)
        for desc in (TORUS, S2, S3, CP1)
        for n in range(1, 6)
        for mu in ((), (1,), (2,), (1, 1), (2, 1))
        if sum(mu) <= n
    ]
    for desc, n, mu in cases + [(S3, 6, (2, 2))]:
        assert InvariantComplex(E2Page(desc, n), mu).check_d_squared(), (desc.name, n, mu)


def test_differential_equivariance():
    page = E2Page(TORUS, 3)
    for sigma in all_perms(3):
        for (p, q), keys in page.cells.items():
            if q == 0:
                continue
            for key in keys[::7]:
                lhs = page.act_vec(sigma, page.diff_key(key))
                rhs = page.diff_vec(page.act_key(sigma, key))
                assert lhs == rhs


def test_explicit_dims_match_character_backend():
    for desc in (TORUS, S2, S3):
        for n in (2, 3, 4):
            page = E2Page(desc, n)
            assert page.total_dim == sum(map(len, page.cells.values()))  # closed form
            d = desc.d
            for (p, q), keys in page.cells.items():
                qd1 = q * (d - 1)
                assert e2_cell_dim(desc, n, p, qd1) == len(keys)
                assert e2_cell_character(desc, n, p, qd1).degree() == len(keys)


def test_explicit_traces_match_character_backend():
    for desc in (TORUS, S2, CP1, S3):
        for n in (2, 3, 4, 5):
            page = E2Page(desc, n)
            d = desc.d
            for (p, q), keys in page.cells.items():
                values = []
                for rho in partitions_of(n):
                    g = class_representative(rho, n)
                    values.append(sum(page.act_key(g, key).get(key, 0) for key in keys))
                explicit = ClassFunction(n, tuple(values))
                assert explicit == e2_cell_character(desc, n, p, q * (d - 1))


def test_equivariant_euler_characteristic_of_cohomology():
    # d raises p + q(d-1) by one, so the alternating sum of the E3 characters
    # equals that of the E2 characters of the character backend
    for desc in (TORUS, S2, CP1):
        for n in (2, 3, 4):
            page = E2Page(desc, n)
            d = desc.d
            zero = ClassFunction(n, tuple(0 for _ in partitions_of(n)))
            e3, e2 = zero, zero
            for p, q in page.cells:
                sign = (-1) ** (p + q * (d - 1))
                e3 = e3 + page.cohomology_cell_character(p, q) * sign
                e2 = e2 + e2_cell_character(desc, n, p, q * (d - 1)) * sign
            assert e3 == e2


def test_c2_sphere_betti():
    # C_2(S^2) is homotopy equivalent to S^2 (forget-a-point bundle with
    # contractible fiber): Betti (1, 0, 1, 0), Euler characteristic 2
    page = E2Page(S2, 2)
    assert [page.betti(i) for i in range(4)] == [1, 0, 1, 0]
    assert page.euler_characteristic() == 2


def test_c2_torus_betti():
    # C_2(T^2) = T^2 x (T^2 minus a point): Poincare (1,2,1)*(1,2,0)
    page = E2Page(TORUS, 2)
    assert [page.betti(i) for i in range(5)] == [1, 4, 5, 2, 0]


def test_euler_characteristic_of_page():
    # chi(C_n(M)) = chi(M)(chi(M)-1)...(chi(M)-n+1)
    for desc, chi_m in ((TORUS, 0), (S2, 2)):
        for n in (2, 3):
            expected = 1
            for j in range(n):
                expected *= chi_m - j
            page = E2Page(desc, n)
            assert page.euler_characteristic() == expected
            top = max(p + qd1 for (p, qd1) in page.cell_dims())
            total = sum((-1) ** i * page.betti(i) for i in range(top + 1))
            assert total == expected


def test_cell_dims_sum_to_page_without_cells():
    # the closed-form cells of a page of any size, against its element count
    # (the rising factorial) and its Euler characteristic chi(chi-1)...(chi-n+1)
    for desc in (TORUS, S2, CP1, S3):
        d, chi = desc.d, desc.euler_characteristic()
        for n in range(31):
            total = alternating = 0
            for q in range(max(n, 1)):
                for p in range((n - q) * d + 1):
                    dim = e2_cell_dim(desc, n, p, q * (d - 1))
                    total += dim
                    alternating += (-1) ** (p + q * (d - 1)) * dim
            assert total == E2Page(desc, n).total_dim
            falling = 1
            for j in range(n):
                falling *= chi - j
            assert alternating == falling


def test_invariant_cell_dims_match_average():
    for desc in (TORUS, S2):
        for n in (2, 3, 4):
            page = E2Page(desc, n)
            inv = InvariantComplex(page)
            for q in range(n // 2 + 1):
                for p in range(0, 2 * n + 1):
                    basis = inv.basis(p, q)  # raises if the closed form disagrees
                    assert len(basis) == invariant_cell_dim(desc, n, p, q)


def test_cohomology_dims_computes_each_rank_once(monkeypatch):
    calls = []

    def counting_span_dim(vectors):
        calls.append(None)
        return span_dim(vectors)

    monkeypatch.setattr(e2_module, "span_dim", counting_span_dim)
    page = E2Page(TORUS, 3)
    d = TORUS.d
    dims = page.cohomology_dims()
    top = max(p + qd1 for (p, qd1) in dims)
    assert [page.betti(i) for i in range(top + 1)] == [1, 6, 14, 14, 5, 0, 0]
    assert page.cohomology_dims() == dims
    referenced = set(page.cells) | {(p - d, q + 1) for (p, q) in page.cells}
    assert 0 < len(calls) <= len(referenced)


def test_invariant_dim_is_trivial_multiplicity():
    # closed form vs character inner product with the trivial character
    from repstab.characters import trivial_character

    for desc in (TORUS, S3):
        d = desc.d
        for n in (2, 3, 4):
            for q in range(n // 2 + 1):
                for p in range(0, 5):
                    chi = e2_cell_character(desc, n, p, q * (d - 1))
                    expected = chi.inner(trivial_character(n))
                    assert invariant_cell_dim(desc, n, p, q) == expected


def test_odd_dimension_kills_positive_rows():
    for n in (2, 3, 4):
        for q in range(1, n // 2 + 1):
            for p in range(0, 7):
                assert invariant_cell_dim(S3, n, p, q) == 0


def test_cell_character_degree_at_twelve_points():
    # the block sum costs by k, not by the set partitions of n
    assert e2_cell_character(TORUS, 12, 3, 2).degree() == e2_cell_dim(TORUS, 12, 3, 2)


def test_block_sharpness_fixture():
    # mu = (1^q), r = 0, alpha = (1^p): k = 2q + p, stabilization at 4q + 2p
    q, p = 1, 1
    rows = block_rows(TORUS, p, q * (TORUS.d - 1))
    fixture = [
        row for row in rows if row["mu"] == (1,) and row["r"] == 0 and row["alpha"] == (1,)
    ]
    assert len(fixture) == 1
    row = fixture[0]
    assert row["k"] == 2 * q + p == 3
    assert row["stable_from"] == 4 * q + 2 * p == 6
    # multiplicities really do change at n = 5 and settle from n = 6 onward
    mults = {}
    for n in (5, 6, 7, 8):
        counts = decompose(induced_character(block_character_on_k(TORUS, (1,), 0, (1,)), n)).counts
        mults[n] = {unpad(mu): c for mu, c in counts.items()}
    assert mults[5] != mults[6]
    assert mults[6] == mults[7] == mults[8]


def test_page_rows_expand_the_forest_polynomial_once(monkeypatch):
    # every row of the page reads its forest count off one expansion
    calls = []
    expand = e2_module.poincare_polynomial
    monkeypatch.setattr(e2_module, "poincare_polynomial", lambda m, d: calls.append(m) or expand(m, d))
    e2_module._page_rows.cache_clear()
    rows = e2_module.page_rows(TORUS, 9)
    assert calls == [9]
    assert len(rows) == 9
    assert sum(row[0] for row in rows) == factorial(9)  # P_M(0) = 1: row q starts at its forest count
    assert [e2_cell_dim(TORUS, 9, 0, q) for q in range(10)] == [row[0] for row in rows] + [0]
    assert calls == [9]  # the cell dims read the same table
    assert e2_module._page_rows.cache_info().maxsize is not None
    with pytest.raises(TypeError):
        rows[0][0] = 0  # every caller shares the cached rows


def test_page_rows_multiply_once_per_power(monkeypatch):
    # row q reads P_M(x)^(n-q): the powers are built up one product each, so
    # the n rows of a page take n products, not n(n+1)/2
    calls = []
    multiply = e2_module._poly_mul
    monkeypatch.setattr(e2_module, "_poly_mul", lambda a, b: calls.append(1) or multiply(a, b))
    e2_module._page_rows.cache_clear()
    poincare = TORUS.poincare()
    forests = e2_module.poincare_polynomial(12, 2)
    n = 12
    rows = e2_module.page_rows(TORUS, n)
    assert len(calls) == n
    for q, row in enumerate(rows):
        words = {0: 1}
        for _ in range(n - q):
            words = multiply(words, poincare)
        assert row == {p: forests[q] * c for p, c in words.items()}
    assert e2_module.page_rows(TORUS, 0) == ({0: 1},)


def test_epsilon_invariants_degree_floor():
    # the sign-isotypic part of H^*(M^q) vanishes below degree kq - k, where
    # k is the lowest positive degree carrying cohomology
    for desc, k in ((TORUS, 1), (S3, 3)):
        for q in (1, 2, 3):
            dims = graded_power(desc.poincare(), q, 1, 3 * q)
            assert any(dims)
            assert min(deg for deg, dim in enumerate(dims) if dim) == k * q - k


def word_multisets(desc, count: int, repeating: int):
    """Multisets of count classes in which the classes of degree parity
    `repeating` repeat and the others are distinct: Sym(H^even) x
    Lambda(H^odd) for repeating = 0, Lambda(H^even) x Sym(H^odd) for 1."""
    repeat = [i for i, deg in enumerate(desc.degrees) if deg % 2 == repeating]
    once = [i for i, deg in enumerate(desc.degrees) if deg % 2 != repeating]
    out = set()
    for k in range(min(len(once), count) + 1):
        for chosen in combinations(once, k):
            for multi in combinations_with_replacement(repeat, count - k):
                out.add(tuple(sorted(multi + chosen)))
    return sorted(out)


def test_graded_power_counts_word_multisets():
    # the generating-function table against the multisets themselves
    synthetic = (SimpleNamespace(degrees=[0, 1, 1, 1, 2, 3]), SimpleNamespace(degrees=[0, 0, 2, 2, 4, 5]))
    for desc in (TORUS, S2, CP1, S3) + synthetic:
        poincare = {}
        for deg in desc.degrees:
            poincare[deg] = poincare.get(deg, 0) + 1
        for count in range(8):
            top = count * max(desc.degrees)
            for repeating in (0, 1):
                expected = [0] * (top + 1)
                for multi in word_multisets(desc, count, repeating):
                    expected[sum(desc.degrees[c] for c in multi)] += 1
                assert graded_power(poincare, count, repeating, top) == expected
                assert graded_power(poincare, count, repeating, top // 2) == expected[: top // 2 + 1]


def test_cyclic_trace_lemma_brute_force():
    # trace of (cyclic shift) on V^(x t) with Koszul signs: graded dims with
    # sign (-1)^(j(t-1)); brute-forced on a tiny graded space
    degrees = [0, 1, 1, 2]  # dims: b_0=1, b_1=2, b_2=1

    def brute(t):
        from itertools import product

        total = {}
        for word in product(range(len(degrees)), repeat=t):
            # shift: (v1..vt) -> (vt, v1..v_{t-1}), sign: vt over the others
            moved = degrees[word[-1]] * sum(degrees[c] for c in word[:-1])
            sign = -1 if moved % 2 else 1
            target = (word[-1],) + word[:-1]
            if target == word:
                deg = sum(degrees[c] for c in word)
                total[deg] = total.get(deg, 0) + sign
        return total

    for t in (1, 2, 3):
        expected = {}
        for j, dim in ((0, 1), (1, 2), (2, 1)):
            expected[j * t] = expected.get(j * t, 0) + (-1) ** (j * (t - 1)) * dim
        assert brute(t) == {k: v for k, v in expected.items() if v}


def young_subgroup(n: int, mu) -> list:
    """S_{n-k} x S_mu as the permutations that keep every colour run."""
    colours = [0] * (n - sum(mu)) + [c for c, m in enumerate(mu, 1) for _ in range(m)]
    return [g for g in all_perms(n) if all(colours[g[x] - 1] == colours[x] for x in range(n))]


def young_average(page, group, key):
    """(1/|G|) * sum of g.key over G: the oracle for InvariantComplex.canonical."""
    total: dict = {}
    for g in group:
        add_into(total, page.act_key(g, key))
    return {k: Fraction(c, len(group)) for k, c in total.items()}


COLOURED = ((3, (1,)), (3, (2,)), (4, (1,)), (4, (1, 1)), (4, (2, 1)))


def test_young_classes_match_brute_average():
    # averaging is an isomorphism from the G-coinvariants onto the
    # G-invariants, so the averages of the basis keys are independent, and the
    # average of any key is its class read in those averages; mu = () is G = S_n
    cases = [(desc, n, mu, None) for desc in (TORUS, S2) for n, mu in COLOURED]
    cases += [(TORUS, n, (), None) for n in (2, 3, 4)]
    cases += [(desc, n, (), None) for desc in (S2, CP1, S3) for n in (2, 3, 4, 5)]
    # row q = 4 at mu = (2, 2): two identical blocks of three points, one of
    # each colour, whose block space has 2 dimensions; Sym^2 of it for s2,
    # and Lambda^2 for s3 with class pt on both (odd total degree)
    cases += [(S2, 6, (2, 2), 4), (S3, 6, (2, 2), 4)]
    for desc, n, mu, row in cases:
        page = E2Page(desc, n)
        young = InvariantComplex(page, mu)
        group = young_subgroup(n, mu)
        for (p, q), keys in page.cells.items():
            if row is not None and q != row:
                continue
            basis = young.basis(p, q)
            averages = {b: young_average(page, group, b) for b in basis}
            assert Echelon(averages.values()).dim == len(basis)
            for key in keys:
                expected: dict = {}
                for b, c in young.canonical(key).items():
                    add_into(expected, averages[b], c)
                assert young_average(page, group, key) == expected, (desc.name, mu, key)


def test_young_cell_dims_match_character_backend():
    # dim of the G-invariants of cell (p, q), from the decomposition of its
    # character into irreducibles and their Young-invariant dimensions
    for desc in (TORUS, S2, S3):
        for n in (3, 4):
            for mu in ((), (1,), (2,), (1, 1), (3,), (2, 1)):
                if sum(mu) > n:
                    continue
                young = InvariantComplex(E2Page(desc, n), mu)
                for q in range(n):
                    for p in range(n * desc.d + 1):
                        chi = e2_cell_character(desc, n, p, q * (desc.d - 1))
                        expected = sum(
                            mult * young_invariants_dim(lam, mu)
                            for lam, mult in decompose(chi).counts.items()
                        )
                        assert len(young.basis(p, q)) == expected, (desc.name, n, mu, p, q)


def test_young_patterns_fill_colour_runs():
    young = InvariantComplex(E2Page(TORUS, 5), (2, 1))
    # points 1, 2 uncoloured, 3, 4 colour 1, 5 colour 2
    assert young.colours == (0, 0, 1, 1, 2)
    pattern = ((3, (1, 1, 1), 0), (1, (1, 0, 0), 0), (1, (0, 1, 0), 0))
    assert pattern in young.patterns(0, 2)
    assert young._representative(pattern).blocks == [(1, 3, 5), (2,), (4,)]
    # the block of three colours has no relation: both top monomials survive
    keys = [(((1, 3), (1, 5)), (0, 0, 0)), (((1, 3), (3, 5)), (0, 0, 0))]
    assert young._pattern_basis(pattern) == keys
    assert all(young.canonical(key) == {key: 1} for key in keys)


def test_no_pattern_holds_a_zero_block_space():
    # a block of three same-colour points has no coinvariants (chi_top(3) has
    # no trivial part), and neither has a same-colour pair for odd d
    for desc, mu, zero in ((TORUS, (), (3,)), (TORUS, (1,), (3,)), (S3, (), (2,)), (S3, (1,), (2,))):
        young = InvariantComplex(E2Page(desc, 5), mu)
        patterns = [pattern for q in range(5) for p in range(11) for pattern in young.patterns(p, q)]
        assert patterns
        assert all(tuple(m for m in comp if m) != zero for pattern in patterns for _, comp, _ in pattern)
        # a key holding such a block has class 0
        key = (((1, 2), (1, 3)), (0, 0, 0))
        assert young.canonical(key) == {}


def test_block_dim_is_the_top_character_on_young_cosets():
    # the closed form and the solve for s <= 7 (the 30 shapes at s = 7 take
    # about 3 s together)
    for s in range(1, 8):
        for d in (2, 3):
            chi = top_character(s, d)
            for comp in partitions_of(s):
                expected = chi.inner(young_permutation_character(s, comp))
                assert block_dim(comp, d % 2) == expected, (s, d, comp)
                basis, classes = block_space(comp, d % 2)
                assert len(basis) == expected and len(classes) == factorial(s - 1)


def test_canonical_makes_no_act_key_call_once_shapes_are_solved(monkeypatch):
    calls = []
    act_monomial = e2_module.act_monomial

    def counting_act_monomial(sigma, mono, d):
        calls.append(mono)
        return act_monomial(sigma, mono, d)

    monkeypatch.setattr(e2_module, "act_monomial", counting_act_monomial)  # act_key straightens with it
    rng = random.Random(5)
    for desc in (TORUS, S2, S3):
        for mu in ((), (1,), (2, 1)):
            page = E2Page(desc, 5)
            young = InvariantComplex(page, mu)
            basis = [key for q in range(5) for p in range(11) for key in young.basis(p, q)]
            calls.clear()
            # the basis keys, their differentials and, at mu = (), relabelled copies
            for key in basis:
                assert young.canonical(key) == {key: 1}
                young.diff_key(key)
                if not mu:
                    sigma = block_increasing(rng, page.n, blocks_of(key[0], page.n))
                    image, sign = page.relabel(sigma, key)
                    assert young.canonical(image) == {key: sign}
            assert calls == [], (desc.name, mu)


# ---------------------------------------------------------------------------
# the linear-time differential and the sort-and-sign relabel, against the
# straightforward versions they replaced

ORACLE_GRID = [(TORUS, n) for n in range(1, 5)] + [
    (desc, n) for desc in (S2, CP1) for n in range(1, 6)
] + [(S3, n) for n in range(1, 5)]


def literal_sort_sign(entries):
    """Koszul sign for sorting (position_key, degree) pairs by position key."""
    sign = 1
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            if entries[i][0] > entries[j][0] and entries[i][1] % 2 and entries[j][1] % 2:
                sign = -sign
    return sign


def literal_diff_key(page, key):
    """d of a key with the factor list of each term built and Koszul-sorted."""
    mono, word = key
    desc = page.desc
    d = desc.d
    out = {}
    old_blocks = blocks_of(mono, page.n)
    for i, (a, b) in enumerate(mono):
        sign_i = (-1) ** ((d - 1) * i)
        mono2 = mono[:i] + mono[i + 1:]
        new_blocks = blocks_of(mono2, page.n)
        split_at = next(t for t, blk in enumerate(old_blocks) if a in blk)
        x_cls = word[split_at]
        blk_a = next(blk for blk in new_blocks if a in blk)
        blk_b = next(blk for blk in new_blocks if b in blk)
        # ordered factor list: old order with the split block expanded
        factors = []  # (block_min, class) in pre-sort order
        for t, blk in enumerate(old_blocks):
            if t == split_at:
                factors.append([min(blk_a), x_cls])
                factors.append([min(blk_b), desc.unit])
            else:
                factors.append([blk[0], word[t]])
        pos_a, pos_b = split_at, split_at + 1
        pre_a = sum(desc.degrees[factors[t][1]] for t in range(pos_a))
        pre_b = pre_a + desc.degrees[x_cls]
        for (e1, e2, coef) in desc.diagonal:
            sign_b = (-1) ** (desc.degrees[e2] * pre_b)
            sign_a = (-1) ** (desc.degrees[e1] * pre_a)
            products = desc.product(e1, x_cls)
            if not products:
                continue
            for k_cls, k_coef in products.items():
                final = [list(f) for f in factors]
                final[pos_a][1] = k_cls
                final[pos_b][1] = e2
                entries = [(f[0], desc.degrees[f[1]]) for f in final]
                koszul = literal_sort_sign(entries)
                new_word = tuple(
                    cls for _, cls in sorted(
                        ((f[0], f[1]) for f in final), key=lambda e: e[0]
                    )
                )
                total = sign_i * coef * sign_b * sign_a * koszul * k_coef
                add_into(out, {(mono2, new_word): total})
    return out


def literal_act_key(page, sigma, key):
    """sigma . key by straightening the relabelled monomial and Koszul-sorting
    the word by the blocks' new minima."""
    mono, word = key
    relabeled = act_monomial(sigma, mono, page.desc.d)
    entries = []
    for blk, cls in zip(blocks_of(mono, page.n), word):
        new_min = min(sigma[x - 1] for x in blk)
        entries.append((new_min, page.desc.degrees[cls], cls))
    koszul = literal_sort_sign([(e[0], e[1]) for e in entries])
    new_word = tuple(cls for _, _, cls in sorted(entries, key=lambda e: e[0]))
    return {(m2, new_word): s * koszul for m2, s in relabeled.items()}


def test_diff_key_matches_literal_on_every_key():
    for desc, n in ORACLE_GRID:
        page = E2Page(desc, n)
        for keys in page.cells.values():
            for key in keys:
                assert page.diff_key(key) == literal_diff_key(page, key), (desc.name, n, key)


def block_increasing(rng, n, blocks):
    """A random permutation increasing on every block: random images, handed
    out in order within each block."""
    images = rng.sample(range(1, n + 1), n)
    sigma = [0] * n
    start = 0
    for blk in blocks:
        for x, y in zip(blk, sorted(images[start:start + len(blk)])):
            sigma[x - 1] = y
        start += len(blk)
    return tuple(sigma)


def test_act_key_and_relabel_match_straightening():
    # relabel under random block-increasing sigma, and act_key under those
    # and under any sigma
    rng = random.Random(16)
    for desc, n in ORACLE_GRID:
        page = E2Page(desc, n)
        for keys in page.cells.values():
            for key in keys:
                for _ in range(2):
                    sigma = block_increasing(rng, n, blocks_of(key[0], n))
                    expected = literal_act_key(page, sigma, key)
                    assert page.act_key(sigma, key) == expected
                    assert dict([page.relabel(sigma, key)]) == expected, (desc.name, n, sigma, key)
                sigma = tuple(rng.sample(range(1, n + 1), n))
                assert page.act_key(sigma, key) == literal_act_key(page, sigma, key)


def test_relabel_refuses_a_reversed_edge():
    page = E2Page(TORUS, 3)
    with pytest.raises(AssertionError):
        page.relabel((2, 1, 3), (((1, 2),), (0, 0)))


# ---------------------------------------------------------------------------
# the per-forest tables and cell-ordered ranks, against the loops they replaced

TABLE_GRID = [(desc, n) for desc in (TORUS, S2, CP1, S3) for n in range(1, 5)] + [(TORUS, 5)]


def reference_cells(page):
    """E2Page.cells as it was: the words rebuilt for every forest."""
    cells = {}
    for mono in all_monomials(page.n):
        words = [()]
        for _ in blocks_of(mono, page.n):
            words = [w + (c,) for w in words for c in range(page.desc.dim_total)]
        for word in words:
            p = sum(page.desc.degrees[c] for c in word)
            cells.setdefault((p, len(mono)), []).append((mono, word))
    return cells


def reference_diff_key(page, key):
    """E2Page.diff_key as it was: the slots and the diagonal products found
    again for every term."""
    mono, word = key
    desc = page.desc
    degrees = desc.degrees
    pre = [0]
    for cls in word:
        pre.append(pre[-1] + degrees[cls])
    seconds = [b for _, b in mono]
    root = {}  # the minimum of each non-minimal point's block
    for a, b in mono:
        root[b] = root.get(a, a)
    out = {}
    for i, (a, b) in enumerate(mono):
        sign_i = -1 if (desc.d - 1) * i % 2 else 1
        mono2 = mono[:i] + mono[i + 1:]
        # slots by block minimum: the roots below a point are the points
        # below it that are no edge's second index
        m = root.get(a, a)
        s = m - 1 - bisect_left(seconds, m)
        r = b - 1 - i
        x_cls = word[s]
        head, mid, tail = word[:s], word[s + 1:r], word[r:]
        for e1, e2, coef in desc.diagonal:
            products = desc.product(e1, x_cls)
            if not products:
                continue
            sign = -1 if (degrees[e1] * pre[s] + degrees[e2] * pre[r]) % 2 else 1
            for k_cls, k_coef in products.items():
                total = sign_i * coef * sign * k_coef
                add_into(out, {(mono2, head + (k_cls,) + mid + (e2,) + tail): total})
    return out


@pytest.mark.parametrize("desc, n", TABLE_GRID, ids=lambda x: getattr(x, "name", x))
def test_page_tables_match_the_per_key_loops(desc, n):
    page = E2Page(desc, n)
    reference = reference_cells(page)
    assert list(page.cells.items()) == list(reference.items())
    for keys in page.cells.values():
        for key in keys:
            assert page.diff_key(key) == reference_diff_key(page, key), key
    for p, q in page.cells:
        rows = [page.diff_key(key) for key in page.basis(p, q)]
        assert page.differential_rank(p, q) == Echelon(rows).dim, (p, q)


def test_zero_point_page_has_one_cell():
    page = E2Page(TORUS, 0)
    assert page.cells == reference_cells(page) == {(0, 0): [((), ())]}
    assert page.differential_rank(0, 0) == 0


def test_classes_computes_each_canonical_once(monkeypatch):
    calls = []
    canonical = InvariantComplex.canonical

    def counting_canonical(self, key):
        calls.append(key)
        return canonical(self, key)

    monkeypatch.setattr(InvariantComplex, "canonical", counting_canonical)
    young = InvariantComplex(E2Page(TORUS, 5), (1, 1))
    assert young.betti(4) == 58  # color-betti --manifold torus --mu 1,1 --n 5 --i 4
    assert [young.betti(i) for i in range(6)]
    assert calls and len(calls) == len(set(calls))
