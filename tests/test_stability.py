from fractions import Fraction
from math import factorial

import pytest

from repstab.characters import content_power_sums, decompose, separating_degree
from repstab.linalg import Echelon, add_into
from repstab.partitions import dim_irrep
from repstab.perms import generators
from repstab.specht import project_tabloid
from repstab.stability import (
    ImageSequence,
    InducedModuleSequence,
    InducedSpechtSequence,
    InsufficientWindow,
    KernelSequence,
    MapSequence,
    QuotientSequence,
    RangeParams,
    Rep,
    SumSequence,
    ZeroPhiSequence,
    check_monotone,
    check_uniform_stability,
    propagate_ranges,
    property_suite,
    row_merge_key,
)
from repstab.tabloids import PseudoTabloid


def project_key(mu, key):
    """The n! group-sum projector on one key: a tabloid, or a tagged one."""
    if isinstance(key, PseudoTabloid):
        return project_tabloid(mu, key)
    tag, inner = key
    return {(tag, k): c for k, c in project_key(mu, inner).items()}


def oracle_isotypic(rep, mu):
    scale = Fraction(dim_irrep(mu), factorial(rep.n))
    ech = Echelon()
    for v in rep.basis():
        proj = {}
        for key, c in v.items():
            add_into(proj, project_key(mu, key), c)
        ech.insert(rep.nf({k: scale * x for k, x in proj.items()}))
    return ech.basis()


def test_trivial_sequence_stable_everywhere():
    seq = InducedSpechtSequence(())
    report = check_uniform_stability(seq, 1, 4)
    assert report.ok
    assert report.injectivity_from() == 1
    assert report.surjectivity_from() == 1
    assert report.multiplicity_stable_from() == 1
    assert all(m == {(): 1} for m in report.multiplicities.values())


def test_permutation_rep_sequence():
    # I_n(V_(1)) = Q^n: conditions hold from n = 2 with c_() = c_(1) = 1
    seq = InducedSpechtSequence((1,))
    report = check_uniform_stability(seq, 2, 6)
    assert report.ok
    assert report.multiplicities[2] == {(): 1, (1,): 1}
    assert report.multiplicities[6] == {(): 1, (1,): 1}


def test_character_hint_matches_explicit():
    for seq in (InducedSpechtSequence((2,)), InducedModuleSequence((1, 1))):
        for n in range(2, 6):
            assert seq.character_hint(n) == seq.rep(n).character()


def test_quotient_character_hint_matches_explicit():
    quot = QuotientSequence(InducedModuleSequence((1, 1)), InducedSpechtSequence((1, 1)))
    for n in range(2, 6):
        assert quot.character_hint(n) == quot.rep(n).character()


def test_monotone_induced_sequences():
    for lam in [(1,), (2,), (1, 1)]:
        report = check_monotone(InducedSpechtSequence(lam), sum(lam), 5)
        assert report.ok, report.witnesses
        assert report.monotone_from() == sum(lam)


def test_monotone_fails_for_zero_phi():
    broken = ZeroPhiSequence(InducedSpechtSequence((1,)))
    report = check_monotone(broken, 1, 3)
    assert not report.ok
    assert any(w[2] == "monotone" for w in report.witnesses)


def test_stability_from_two_k():
    # the induced-sequence theorem: stable once n >= 2k (observed on window)
    seq = InducedSpechtSequence((2,))
    report = check_uniform_stability(seq, 2, 7)
    assert report.injectivity_from() == 2
    assert report.multiplicity_stable_from() == 4
    mults = report.multiplicities
    assert mults[4] == mults[5] == mults[6] == mults[7]
    assert mults[3] != mults[4]


def test_insufficient_window():
    with pytest.raises(InsufficientWindow):
        check_uniform_stability(InducedSpechtSequence((1,)), 3, 3)


def test_per_label_multiplicity_stability():
    # Prop-2.6 style: a single label can stabilize before the whole sequence
    seq = InducedSpechtSequence((2,))
    report = check_uniform_stability(seq, 2, 7)
    assert report.multiplicity_stable_from(()) == 2  # trivial part settles first
    assert report.multiplicity_stable_from((2,)) == 4
    assert report.multiplicity_stable_from() == 4


def test_kernel_image_of_row_merge():
    merge = MapSequence(
        InducedModuleSequence((1, 1)),
        InducedModuleSequence((2,)),
        row_merge_key,
        label="row merge",
    )
    ker, img = KernelSequence(merge), ImageSequence(merge)
    for n in range(2, 6):
        k_rep, i_rep = ker.rep(n), img.rep(n)
        dom = merge.domain.rep(n)
        assert k_rep.dim + i_rep.dim == dom.dim
        # the merge is onto the one-row module
        assert i_rep.dim == merge.codomain.rep(n).dim
    mono_k = check_monotone(ker, 4, 6)
    mono_i = check_monotone(img, 4, 6)
    assert mono_k.ok, mono_k.witnesses
    assert mono_i.ok, mono_i.witnesses
    # oracle: kernel character = perm char of (1,1,2)-cosets minus (2,2)-cosets
    from repstab.characters import young_permutation_character

    expected = decompose(
        young_permutation_character(4, (1, 1, 2)) - young_permutation_character(4, (2, 2))
    ).counts
    counts = decompose(ker.rep(4).character()).counts
    assert counts == expected == {(3, 1): 1, (2, 1, 1): 1}


def test_sum_sequence_monotone():
    summed = SumSequence(InducedSpechtSequence((1,)), InducedSpechtSequence((2,)))
    report = check_monotone(summed, 2, 5)
    assert report.ok, report.witnesses


def test_quotient_sequence_monotone_from_stable_start():
    quot = QuotientSequence(InducedModuleSequence((1, 1)), InducedSpechtSequence((1, 1)))
    report = check_monotone(quot, quot.monotone_start(), 6)
    assert report.ok, report.witnesses


def test_property_suite_green():
    report = property_suite(n_max=5)
    assert report.seed_count >= 20
    assert report.ok, report.failures()


def test_propagate_ranges_known_instantiations():
    rows = propagate_ranges(RangeParams(Fraction(2), 0), 5)
    assert all(r[1] == "n >= 2(p+q)" for r in rows)
    assert all(r[2] == "n >= 2(p+q-1)" for r in rows)
    assert [r[0] for r in rows] == [2, 3, 4, 5]

    rows = propagate_ranges(RangeParams(Fraction(4), 0), 3)
    assert rows[0][1] == "n >= 4(p+q)"

    rows = propagate_ranges(RangeParams(Fraction(1), 1), 3)
    assert rows[0][1] == "n >= p+q+1"
    assert rows[0][2] == "n >= p+q"


def test_propagate_ranges_fractional_m():
    rows = propagate_ranges(RangeParams(Fraction(1, 3), 3), 2)
    assert rows == [(2, "n >= (1/3)(p+q+3)", "n >= (1/3)(p+q+2)")]


def test_range_params_validation():
    with pytest.raises(ValueError):
        RangeParams(Fraction(0), 0)


@pytest.mark.parametrize(
    "seq",
    [
        SumSequence(InducedSpechtSequence((1,)), InducedSpechtSequence((2,))),
        QuotientSequence(InducedModuleSequence((1, 1)), InducedSpechtSequence((1, 1))),
    ],
    ids=["sum", "quotient"],
)
def test_rep_isotypic_matches_group_sum_oracle(seq):
    for n in (4, 5):
        rep = seq.rep(n)
        for mu in decompose(rep.character()).counts:
            assert rep.isotypic(mu) == oracle_isotypic(rep, mu)


def test_rep_isotypic_separates_equal_content_sums():
    # (4,1,1) and (3,3) both have content sum 3, so p_2 of the Jucys-Murphy
    # elements is needed to tell their isotypic components apart
    rep = InducedModuleSequence((1, 1, 1)).rep(6)
    counts = decompose(rep.character()).counts
    for mu in ((4, 1, 1), (3, 3)):
        assert counts[mu] > 0
        assert separating_degree(mu) == 2
        assert rep.isotypic(mu) == oracle_isotypic(rep, mu)
    assert content_power_sums((4, 1, 1), 1) == content_power_sums((3, 3), 1)


def test_rep_character_rejects_non_invariant_span():
    rep = InducedModuleSequence((1,)).rep(3)
    with pytest.raises(ValueError):
        Rep(3, rep.act, [rep.basis()[0]]).character()


def test_rep_character_reduces_once_per_generator_and_row(monkeypatch):
    rep = InducedModuleSequence((1, 1)).rep(5)
    calls = []
    for name in ("reduce", "coords"):
        original = getattr(Echelon, name)

        def counted(self, v, original=original):
            if self is rep.echelon:
                calls.append(1)
            return original(self, v)

        monkeypatch.setattr(Echelon, name, counted)
    assert rep.character() == InducedModuleSequence((1, 1)).character_hint(5)
    assert len(calls) <= len(generators(5)) * rep.dim
