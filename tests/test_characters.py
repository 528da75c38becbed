from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest

from repstab import arnold, characters, perms
from repstab.characters import (
    ClassFunction,
    NotACharacter,
    character_table,
    content_power_sums,
    count_partition_chains,
    decompose,
    explicit_character,
    induced_character,
    irreducible_character,
    mn_character,
    trivial_character,
    young_invariants_dim,
    young_permutation_character,
)
from repstab.linalg import Echelon
from repstab.partitions import dim_irrep, leadsto, pad, partitions_of
from repstab.perms import all_perms, class_size, cycle_type, sign
from repstab.rep import KeyIndex, Rep


def test_trivial_and_sign_rows():
    for n in range(1, 7):
        for rho in partitions_of(n):
            assert mn_character((n,), rho) == 1
            sgn = (-1) ** (n - len(rho))
            assert mn_character((1,) * n, rho) == sgn


def test_standard_rep_row_s3():
    assert mn_character((2, 1), (1, 1, 1)) == 2
    assert mn_character((2, 1), (2, 1)) == 0
    assert mn_character((2, 1), (3,)) == -1


def test_degrees_match_hook_formula():
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert mn_character(lam, (1,) * n) == dim_irrep(lam)


def test_brute_force_traces_small_n():
    # oracle: chi^{(n-1,1)}(sigma) = fix(sigma) - 1 from the permutation action
    for n in range(2, 7):
        for rho in partitions_of(n):
            fixed = sum(1 for part in rho if part == 1)
            assert mn_character((n - 1, 1), rho) == fixed - 1


def test_row_orthogonality():
    for n in range(1, 9):
        parts = partitions_of(n)
        for lam in parts:
            chi_lam = irreducible_character(lam)
            for mu in parts:
                chi_mu = irreducible_character(mu)
                assert chi_lam.inner(chi_mu) == (1 if lam == mu else 0)


def test_column_orthogonality():
    for n in range(1, 13):
        parts = partitions_of(n)
        table = character_table(n)
        for rho in parts:
            for tau in parts:
                total = sum(table[(lam, rho)] * table[(lam, tau)] for lam in parts)
                if rho == tau:
                    assert total == factorial(n) // class_size(rho)
                else:
                    assert total == 0


def test_abacus_table_equals_murnaghan_nakayama():
    # the table is built per n on the abacus; the per-entry recursion checks it
    for n in range(0, 11):
        table = character_table(n)
        assert len(table) == len(partitions_of(n)) ** 2
        for (lam, rho), value in table.items():
            assert value == mn_character(lam, rho)


def test_character_table_is_read_only():
    table = character_table(4)
    with pytest.raises(TypeError):
        table[((4,), (4,))] = 7
    assert character_table(4)[((4,), (4,))] == 1
    with pytest.raises(ValueError, match="capped at n = 12"):
        character_table(13)


def test_character_caches_are_bounded():
    # every module-level cache holds a stated number of entries
    import importlib
    import pkgutil

    import repstab

    caches = {}
    for info in pkgutil.iter_modules(repstab.__path__):
        module = importlib.import_module(f"repstab.{info.name}")
        for name, fn in vars(module).items():
            if hasattr(fn, "cache_info") and getattr(fn, "__module__", None) == module.__name__:
                caches[f"{module.__name__}.{name}"] = fn
    unbounded = [name for name, fn in caches.items() if fn.cache_info().maxsize is None]
    assert not unbounded, unbounded
    for fn in (
        mn_character,
        characters._abacus_table,
        characters._class_index,
        young_permutation_character,
        partitions_of,
        dim_irrep,
        class_size,
        arnold._top_character_by_parity,
    ):
        assert f"{fn.__module__}.{fn.__name__}" in caches, fn.__name__


def test_single_rows_at_large_n_build_no_table():
    # one row of S_20 stays on the Murnaghan-Nakayama recursion
    lam = pad((2, 1), 20)
    before = characters._abacus_table.cache_info()
    chi = irreducible_character(lam)
    assert chi.degree() == dim_irrep(lam)
    assert young_invariants_dim(lam, (1, 1)) == count_partition_chains((2, 1), (1, 1), 20)
    after = characters._abacus_table.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_class_sizes_sum():
    for n in range(1, 9):
        assert sum(class_size(rho) for rho in partitions_of(n)) == factorial(n)


def test_decompose_regular_character():
    values = tuple(6 if rho == (1, 1, 1) else 0 for rho in partitions_of(3))
    reg = ClassFunction(3, values)
    assert decompose(reg).counts == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}


def test_decompose_permutation_character():
    # S_3 on 3 points: values are fixed-point counts
    values = tuple(sum(1 for p in rho if p == 1) for rho in partitions_of(3))
    perm = ClassFunction(3, values)
    assert decompose(perm).counts == {(3,): 1, (2, 1): 1}


def test_decompose_irreducible_is_delta():
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert decompose(irreducible_character(lam)).counts == {lam: 1}


def test_decompose_rejects_non_character():
    bad = ClassFunction(3, (1, 0, 1))  # non-integral inner products
    with pytest.raises(NotACharacter):
        decompose(bad)


def test_decompose_refusal_messages():
    half = ClassFunction(3, (Fraction(1, 2),) * 3)
    with pytest.raises(NotACharacter) as err:
        decompose(half)
    assert str(err.value) == "<chi, chi^(3,)> = 1/2"
    difference = irreducible_character((3,)) - irreducible_character((2, 1))
    with pytest.raises(NotACharacter) as err:
        decompose(difference)
    assert str(err.value) == "<chi, chi^(2, 1)> = -1"

    class Shifted(ClassFunction):
        def degree(self):
            return super().degree() + 1

    with pytest.raises(NotACharacter) as err:
        decompose(Shifted(3, (1, 1, 1)))
    assert str(err.value) == "degree mismatch after decomposition"


def test_induced_trivial_from_s1():
    chi = induced_character(trivial_character(1), 3)
    # permutation character of S_3 on 3 points: (3, 1, 0)
    assert chi.values == (1, 0, 3)[::-1] or chi.value((1, 1, 1)) == 3
    assert chi.value((1, 1, 1)) == 3
    assert chi.value((2, 1)) == 1
    assert chi.value((3,)) == 0


def test_induced_brute_force_oracle():
    # oracle: induced character value by coset-free averaging formula
    #   Ind(chi)(g) = (1/|H|) * sum over x in G with x g x^-1 in H of chi(x g x^-1)
    # for H = S_k x S_{n-k} acting on {1..k} and {k+1..n}
    from repstab.perms import class_representative, compose, inverse

    for k, n in [(1, 3), (2, 4), (2, 3)]:
        base = trivial_character(k) if k == 1 else irreducible_character((k,))
        ind = induced_character(base, n)
        order_h = factorial(k) * factorial(n - k)
        for rho in partitions_of(n):
            g = class_representative(rho, n)
            total = Fraction(0)
            for x in all_perms(n):
                y = compose(compose(x, g), inverse(x))
                if all(y[i] <= k for i in range(k)):
                    total += 1  # trivial character of the Young subgroup
            assert ind.value(rho) == total / order_h


def test_branching_rule_oracle():
    for lam in [(1,), (2,), (1, 1), (2, 1), (3,)]:
        k = sum(lam)
        for n in range(k, 8):
            ind = induced_character(irreducible_character(lam), n)
            mv = decompose(ind)
            assert mv.counts == {mu: 1 for mu in leadsto(lam, n)}


def test_young_invariants_examples():
    assert young_invariants_dim((4,), (2, 1)) == 1
    assert young_invariants_dim((3, 1), (1,)) == 1
    assert young_invariants_dim((1, 1, 1), (2,)) == 0


def test_young_invariants_brute_force():
    # oracle: average chi^lam over explicitly enumerated Young subgroup elements
    from repstab.perms import all_perms as sub_perms

    cases = [((2, 1), (2,)), ((3, 1), (2,)), ((2, 2), (2, 1)), ((3, 1), (1, 1))]
    for lam, mu in cases:
        n = sum(lam)
        blocks = list(mu) + [n - sum(mu)]
        starts = [sum(blocks[:i]) for i in range(len(blocks))]
        total = Fraction(0)
        count = 0

        def embed(perms_per_block):
            out = list(range(1, n + 1))
            for start, block_perm in zip(starts, perms_per_block):
                for i, v in enumerate(block_perm):
                    out[start + i] = start + v
            return tuple(out)

        from itertools import product

        pools = [list(sub_perms(b)) for b in blocks if b > 0]
        for combo in product(*pools):
            g = embed(combo)
            total += mn_character(lam, cycle_type(g))
            count += 1
        assert young_invariants_dim(lam, mu) == total / count


def reference_young_permutation_character(n, blocks):
    """young_permutation_character by the _young_value recursion over
    _splittings, before it induced one block at a time, copied verbatim."""

    @lru_cache(maxsize=1 << 14)
    def _young_value(rho, blocks):
        if not blocks:
            return 1 if not rho else 0
        total = 0
        for alpha, weight in characters._splittings(rho, blocks[0]):
            beta = list(rho)
            for part in alpha:
                beta.remove(part)
            total += weight * _young_value(tuple(beta), blocks[1:])
        return total

    if sum(blocks) != n or any(b < 0 for b in blocks):
        raise ValueError(f"blocks {blocks} do not sum to {n}")
    blocks = tuple(b for b in blocks if b > 0)
    values = []
    for rho in partitions_of(n):
        values.append(_young_value(rho, blocks))
    return ClassFunction(n, tuple(values))


def weak_compositions(n, parts):
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in weak_compositions(n - first, parts - 1):
            yield (first,) + rest


def test_young_permutation_character_matches_splitting_recursion():
    # every composition of n <= 8 with up to four parts, zeros included
    for n in range(9):
        for parts in range(1, 5):
            for blocks in weak_compositions(n, parts):
                expected = reference_young_permutation_character(n, blocks)
                assert young_permutation_character(n, blocks) == expected, blocks
    with pytest.raises(ValueError):
        young_permutation_character(3, (2, 2))
    with pytest.raises(ValueError):
        young_permutation_character(1, (2, -1))


def test_young_permutation_character_degree():
    chi = young_permutation_character(4, (2, 2))
    assert chi.degree() == 6
    assert decompose(chi).counts == {(4,): 1, (3, 1): 1, (2, 2): 1}


def test_count_partition_chains_examples():
    assert count_partition_chains((), (1,), 3) == 1
    assert count_partition_chains((1,), (1,), 4) == 1
    assert count_partition_chains((1,), (1,), 4) == young_invariants_dim((3, 1), (1,))


def test_chains_equal_invariants():
    lams = [(), (1,), (2,), (1, 1), (2, 1), (3,), (1, 1, 1)]
    mus = [(), (1,), (2,), (1, 1), (2, 1), (3,), (1, 1, 1)]
    for lam in lams:
        for mu in mus:
            k = sum(lam)
            first = lam[0] if lam else 0
            for n in range(max(k + first, sum(mu)), 9):
                assert count_partition_chains(lam, mu, n) == young_invariants_dim(
                    pad(lam, n), mu
                )


def test_chains_stable_from_two_mu():
    for lam in [(), (1,), (2, 1)]:
        for mu in [(1,), (2,), (1, 1), (2, 1)]:
            vals = {}
            k = sum(lam)
            first = lam[0] if lam else 0
            for n in range(max(k + first, 2 * sum(mu)), 9):
                vals[n] = count_partition_chains(lam, mu, n)
            assert len(set(vals.values())) == 1


def test_multiplicity_additivity():
    a = induced_character(irreducible_character((2,)), 5)
    b = induced_character(irreducible_character((1, 1)), 5)
    da, db, dab = decompose(a).counts, decompose(b).counts, decompose(a + b).counts
    merged = dict(da)
    for key, val in db.items():
        merged[key] = merged.get(key, 0) + val
    assert dab == merged


def test_frobenius_reciprocity():
    # <Ind chi, psi>_n = <chi boxtimes triv, Res psi> over S_k x S_{n-k},
    # reading psi on the merged cycle type
    for lam in [(1,), (2,), (2, 1)]:
        k = sum(lam)
        chi = irreducible_character(lam)
        for n in range(k + 1, k + 4):
            ind = induced_character(chi, n)
            for mu in partitions_of(n):
                psi = irreducible_character(mu)
                lhs = ind.inner(psi)
                rhs = Fraction(0)
                for rho in partitions_of(k):
                    for tau in partitions_of(n - k):
                        merged = tuple(sorted(rho + tau, reverse=True))
                        rhs += Fraction(
                            class_size(rho) * class_size(tau)
                            * chi.value(rho) * psi.value(merged),
                            factorial(k) * factorial(n - k),
                        )
                assert lhs == rhs


def test_sum_of_squared_dimensions():
    from repstab.partitions import dim_irrep

    for n in range(1, 9):
        assert sum(dim_irrep(lam) ** 2 for lam in partitions_of(n)) == factorial(n)


def test_trivial_rep_invariants_always_one():
    for n in (3, 4, 5):
        for mu in [(), (1,), (2,), (1, 1), (2, 1)]:
            if sum(mu) <= n:
                assert young_invariants_dim((n,), mu) == 1


def test_table_builds_at_n10():
    # the implementation limit must reach n = 10; verify a couple of rows
    table = character_table(10)
    assert table[((10,), (1,) * 10)] == 1
    assert table[((9, 1), (1,) * 10)] == 9
    assert table[((1,) * 10, (2,) + (1,) * 8)] == -1
    chi = irreducible_character((5, 4, 1))
    assert chi.inner(chi) == 1


def test_sign_values_match_perms():
    for n in range(1, 7):
        for rho in partitions_of(n):
            from repstab.perms import class_representative

            g = class_representative(rho, n)
            assert sign(g) == (-1) ** (n - len(rho))


def test_content_power_sums():
    # contents of (3, 2): 0 1 2 / -1 0
    assert content_power_sums((3, 2), 3) == (2, 6, 8)
    assert content_power_sums((), 2) == (0, 0)


def test_explicit_traces_and_isotypic_parts_on_rows_with_pivot_entries_above_one():
    # S_3 permutes i in the keys (i, tag).  The vectors 2(i,x) + (i,y) span a
    # copy of the permutation module whose integer echelon rows have pivot
    # entry 2, so coordinates in those rows carry a denominator.
    def act_key(g, key):
        i, tag = key
        return g[i - 1], tag

    def act(g, v):
        return {act_key(g, key): c for key, c in v.items()}

    vectors = [{(i, "x"): 2, (i, "y"): 1} for i in (1, 2, 3)]
    ech = Echelon(vectors)
    assert [row[pivot] for pivot, row in ech.rows] == [2, 2, 2]
    assert explicit_character(ech, 3, act) == induced_character(irreducible_character((1,)), 3)
    assert decompose(explicit_character(ech, 3, act)).counts == {(3,): 1, (2, 1): 1}
    trivial = {(i, tag): c for i in (1, 2, 3) for tag, c in (("x", 1), ("y", Fraction(1, 2)))}
    rep = Rep(3, KeyIndex([(i, tag) for i in (1, 2, 3) for tag in "xy"], act_key), vectors)
    assert [row[pivot] for pivot, row in rep.echelon.rows] == [2, 2, 2]
    assert rep.character() == explicit_character(ech, 3, act)
    parts = rep.isotypic(rep.decompose().counts)
    assert parts.keys() == {(3,), (2, 1)}
    assert parts[(3,)] == [trivial]
    standard = parts[(2, 1)]
    assert len(standard) == 2
    assert Echelon(standard + [trivial]).dim == 3
    assert all(sum(v.values()) == 0 for v in standard)


def test_identity_trace_is_the_row_count_without_acting():
    # the class (1^n) is the identity: its trace is read off the row count,
    # a Fraction like every other trace, and the int 0 of an empty sum on
    # the zero span
    acted = []

    def act(g, v):
        acted.append(g)
        return {(g[i - 1], tag): c for (i, tag), c in v.items()}

    ech = Echelon([{(i, "x"): 2, (i, "y"): 1} for i in (1, 2, 3)])
    chi = explicit_character(ech, 3, act)
    assert chi == induced_character(irreducible_character((1,)), 3)
    assert type(chi.degree()) is Fraction and chi.degree() == 3
    assert (1, 2, 3) not in acted
    empty = explicit_character(Echelon(), 3, act)
    assert empty.values == (0, 0, 0) and all(type(x) is int for x in empty.values)
