from fractions import Fraction
from math import factorial

import pytest

from repstab.characters import content_power_sums, decompose, explicit_character, irreducible_character
from repstab.linalg import Echelon, add_into, span_dim
from repstab.partitions import contents, curly_pad, dim_irrep, pad, unpad
from repstab.perms import from_cycles, generators
from repstab.rep import KeyIndex
from repstab.specht import act_vec, project_tabloid
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
    default_seeds,
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


def test_sum_sequence_acts_per_summand():
    # each summand acts on its own tag, modulo its own modulus: a quotient
    # summand and a nested sum (tagged keys inside tagged keys) both work
    quot = QuotientSequence(InducedModuleSequence((1, 1)), InducedSpechtSequence((1, 1)))
    summed = SumSequence(quot, InducedSpechtSequence((1,)))
    nested = SumSequence(summed, InducedModuleSequence((1,)))
    for n in range(2, 6):
        assert summed.rep(n).character() == summed.character_hint(n)
        assert nested.rep(n).character() == nested.character_hint(n)
    report = check_monotone(summed, 2, 4)
    assert report.ok, report.witnesses


def test_quotient_sequence_monotone_from_stable_start():
    quot = QuotientSequence(InducedModuleSequence((1, 1)), InducedSpechtSequence((1, 1)))
    report = check_monotone(quot, quot.monotone_start, 6)
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
        counts = decompose(rep.character()).counts
        parts = rep.isotypic(counts)
        assert parts.keys() == set(counts)
        for mu in counts:
            assert parts[mu] == oracle_isotypic(rep, mu)


def test_rep_isotypic_separates_equal_content_sums():
    # (4,1,1) and (3,3) both have content sum 3, so p_2 of the Jucys-Murphy
    # elements is needed to tell their isotypic components apart
    rep = InducedModuleSequence((1, 1, 1)).rep(6)
    counts = decompose(rep.character()).counts
    parts = rep.isotypic(counts, [(4, 1, 1), (3, 3)])
    for mu in ((4, 1, 1), (3, 3)):
        assert counts[mu] > 0
        assert parts[mu] == oracle_isotypic(rep, mu)
    p1, p2 = content_power_sums((4, 1, 1), 2), content_power_sums((3, 3), 2)
    assert p1[0] == p2[0] and p1[1] != p2[1]


def test_rep_character_rejects_non_invariant_span():
    rep = InducedModuleSequence((1,)).rep(3)
    with pytest.raises(ValueError):
        Rep(3, rep.index, [rep.basis()[0]]).character()
    with pytest.raises(ValueError):
        explicit_character(Echelon([rep.basis()[0]]), 3, act_vec)


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


def test_checkers_build_each_level_once(monkeypatch):
    # a kernel has no character hint, so its traces come from the level itself
    merge = MapSequence(
        InducedModuleSequence((2, 1)), InducedModuleSequence((3,)), row_merge_key, label="row merge"
    )
    ker = KernelSequence(merge)
    built = []
    rep = ker.rep
    monkeypatch.setattr(ker, "rep", lambda n: built.append(n) or rep(n))
    assert check_monotone(ker, 3, 6).ok
    assert built == [3, 4, 5, 6]
    built.clear()
    check_uniform_stability(ker, 3, 6)
    assert built == [3, 4, 5, 6]


SEED_RANGES = [
    ("I_n(V_())", 0, 0, 0),
    ("I_n(V_(1,))", 1, 1, 2),
    ("I_n(M^(1,))", 1, 1, 2),
    ("I_n(V_(2,))", 2, 2, 4),
    ("I_n(M^(2,))", 2, 2, 4),
    ("I_n(V_(1, 1))", 2, 2, 4),
    ("I_n(M^(1, 1))", 2, 2, 4),
    ("I_n(V_(3,))", 3, 3, 6),
    ("I_n(M^(3,))", 3, 3, 6),
    ("I_n(V_(2, 1))", 3, 3, 6),
    ("I_n(M^(2, 1))", 3, 3, 6),
    ("I_n(V_(1, 1, 1))", 3, 3, 6),
    ("I_n(M^(1, 1, 1))", 3, 3, 6),
    ("I_n(V_(1,)) (+) I_n(V_(2,))", 2, 2, 4),
    ("I_n(M^(1,)) (+) I_n(V_(1, 1))", 2, 2, 4),
    ("(I_n(M^(1, 1))) / (I_n(V_(1, 1)))", 2, 4, 4),
    ("(I_n(M^(2, 1))) / (I_n(V_(2, 1)))", 3, 6, 6),
    ("ker(row merge (1,1)->(2))", 2, 4, 4),
    ("im(row merge (1,1)->(2))", 2, 4, 4),
    ("ker(row merge (2,1)->(3))", 3, 6, 6),
    ("im(row merge (2,1)->(3))", 3, 6, 6),
]


def test_default_seed_ranges():
    # (label, n_min, monotone_start, stable_start): every construction's
    # range proposition, pinned on the seeds
    assert [(s.label, s.n_min, s.monotone_start, s.stable_start) for s in default_seeds()] == SEED_RANGES


@pytest.mark.parametrize("seq", default_seeds(), ids=lambda seq: seq.label)
def test_checkers_record_equal_multiplicities(seq):
    # both checkers build and decompose their levels through one level loop
    start = max(seq.n_min, 1)
    mono, stab = check_monotone(seq, start, 5), check_uniform_stability(seq, start, 5)
    assert sorted(mono.multiplicities) == list(range(start, 6))
    assert mono.multiplicities == stab.multiplicities


MERGE = MapSequence(InducedModuleSequence((1, 1)), InducedModuleSequence((2,)), row_merge_key, label="row merge")
HINTLESS = [
    SumSequence(KernelSequence(MERGE), InducedModuleSequence((1,))),
    QuotientSequence(InducedModuleSequence((2,)), ImageSequence(MERGE)),
    QuotientSequence(InducedModuleSequence((1, 1)), KernelSequence(MERGE)),
]


@pytest.mark.parametrize("seq", HINTLESS, ids=lambda seq: seq.label)
def test_sum_and_quotient_with_a_hintless_part_read_traces(seq):
    # a kernel or an image has no hint, so neither has a sum or a quotient
    # with one as a part: its levels are decomposed off their traces
    assert seq.character_hint(4) is None
    stab, mono = check_uniform_stability(seq, 4, 5), check_monotone(seq, 4, 5)
    for n in (4, 5):
        expected = {unpad(mu): c for mu, c in decompose(seq.rep(n).character()).counts.items()}
        assert stab.multiplicities[n] == mono.multiplicities[n] == expected


# ---------------------------------------------------------------------------
# the checkers against S_{n+1}-span closures


def closure_monotone(seq, n_start, n_max):
    """check_monotone's verdicts and witnesses from the decomposition of each
    closed span(S_{n+1} . phi_n(W)): the oracle."""
    monotone, witnesses = {}, []
    for n in range(n_start, n_max):
        source, target = seq.rep(n), seq.rep(n + 1)
        monotone[n] = True
        counts = decompose(source.character()).counts
        components = source.isotypic(counts)
        for mu, k in sorted(counts.items(), reverse=True):
            span = target.sn_span([seq.phi(n, v) for v in components[mu]])
            achieved = span.decompose()[curly_pad(mu)]
            if achieved < k:
                monotone[n] = False
                witnesses.append((n, mu, "monotone", achieved))
    return monotone, witnesses


def closure_uniform(seq, n_start, n_max):
    """check_uniform_stability's injectivity and surjectivity verdicts and
    witnesses from span_dim and the closed span(S_{n+1} . phi_n(V_n))."""
    injective, onto, witnesses = {}, {}, []
    for n in range(n_start, n_max):
        source, target = seq.rep(n), seq.rep(n + 1)
        images = [target.nf(seq.phi(n, v)) for v in source.basis()]
        injective[n] = span_dim(images) == source.dim
        if not injective[n]:
            witnesses.append((n, "injectivity"))
        span = target.sn_span(images)
        onto[n] = span.dim == target.dim
        if not onto[n]:
            witnesses.append((n, "surjectivity", span.dim, target.dim))
    return injective, onto, witnesses


def structural(report):
    return report.injectivity, report.surjectivity, [
        w for w in report.witnesses if w[1] in ("injectivity", "surjectivity")
    ]


COMPOSITE = [
    seq
    for seq in default_seeds()
    if isinstance(seq, (SumSequence, QuotientSequence, KernelSequence, ImageSequence))
]


@pytest.mark.parametrize("seq", COMPOSITE, ids=lambda seq: seq.label)
def test_checkers_match_closure_oracle(seq):
    start = max(seq.n_min, 1)
    report = check_monotone(seq, start, 6)
    assert (report.monotone, report.witnesses) == closure_monotone(seq, start, 6)
    assert structural(check_uniform_stability(seq, start, 6)) == closure_uniform(seq, start, 6)


@pytest.mark.parametrize("seq", COMPOSITE, ids=lambda seq: seq.label)
def test_span_multiplicities_match_closure_oracle(seq):
    # the span of one vector, and of a whole isotypic component, of each
    # constituent of level n: partial spans, with multiplicities above one
    for n in range(max(seq.n_min, 1), 5):
        source, target = seq.rep(n), seq.rep(n + 1)
        counts = decompose(target.character()).counts
        for part in source.isotypic(decompose(source.character()).counts).values():
            component = [seq.phi(n, v) for v in part]
            for seeds in (component[:1], component):
                got = target.span_multiplicities(seeds, counts)
                assert {nu: m for nu, m in got.items() if m} == target.sn_span(seeds).decompose().counts


def test_span_multiplicities_tell_tied_constituents_apart():
    # a vector of V_(3,3) alone: V_(4,1,1), tied with it on p_1(J), is not
    # in its span
    level = InducedSpechtSequence((3, 1)).rep(6)
    counts = decompose(level.character()).counts
    seeds = level.isotypic(counts, [(3, 3)])[(3, 3)][:1]
    got = level.span_multiplicities(seeds, counts)
    assert got[(3, 3)] == 1 and got[(4, 1, 1)] == 0
    assert {nu: m for nu, m in got.items() if m} == level.sn_span(seeds).decompose().counts


def test_check_monotone_splits_content_sum_ties_without_closure(monkeypatch):
    # level 6 of I_n(V_(3,1)) holds (4,1,1) and (3,3), tied on p_1(J)
    seq = InducedSpechtSequence((3, 1))
    expected = closure_monotone(seq, 4, 6)

    def closed(*args):
        raise AssertionError("a span was closed")

    monkeypatch.setattr(Rep, "sn_span", closed)
    report = check_monotone(seq, 4, 6)
    assert (report.monotone, report.witnesses) == expected
    assert report.ok


def test_check_monotone_takes_isotypic_parts_once_per_level(monkeypatch):
    seq = InducedSpechtSequence((2, 1))
    expected = check_monotone(seq, 3, 6)
    calls = []
    isotypic = Rep.isotypic

    def counted(self, *args):
        calls.append(self.n)
        return isotypic(self, *args)

    monkeypatch.setattr(Rep, "isotypic", counted)
    report = check_monotone(seq, 3, 6)
    assert (report.monotone, report.witnesses) == (expected.monotone, expected.witnesses)
    assert calls == [3, 4, 5]


@pytest.mark.parametrize("seq", default_seeds(), ids=lambda seq: seq.label)
def test_branch_multiplicities_match_span_multiplicities(seq):
    # the seeds check_monotone projects: one vector of a multiplicity-one
    # component, a basis of any other; every constituent of level n + 1
    for n in range(max(seq.n_min, 1), 6):
        source, target = seq.rep(n), seq.rep(n + 1)
        counts, target_counts = source.decompose().counts, target.decompose().counts
        for mu, part in source.isotypic(counts).items():
            seeds = [seq.phi(n, v) for v in (part[:1] if counts[mu] == 1 else part)]
            mults, faults = target.branch_multiplicities(seeds, mu, target_counts)
            assert faults == []
            assert mults == target.span_multiplicities(seeds, target_counts)


def test_branch_multiplicities_flag_a_rank_that_is_not_a_multiple():
    # two vectors of the V_(3,1)^2 part of I_4(M^(2,1)) span no S_4-submodule,
    # and their projections have rank 2 where f^(3,1) = 3
    seq = InducedModuleSequence((2, 1))
    source, target = seq.rep(4), seq.rep(5)
    counts = source.decompose().counts
    assert counts[(3, 1)] == 2
    seeds = [seq.phi(4, v) for v in source.isotypic(counts, [(3, 1)])[(3, 1)][:2]]
    _, faults = target.branch_multiplicities(seeds, (3, 1), target.decompose().counts)
    assert faults == [("rank", nu, 2) for nu in ((4, 1), (3, 2), (3, 1, 1))]


class ShiftedLabelsSequence(InducedModuleSequence):
    """A deliberately broken sequence: phi_n sends label x to x + 1, which
    does not commute with S_n, yet its image still generates level n + 1."""

    def phi(self, n: int, v: dict) -> dict:
        return {PseudoTabloid(t.n + 1, tuple(tuple(x + 1 for x in row) for row in t.rows)): c for t, c in v.items()}


@pytest.mark.parametrize(
    "seq",
    [ShiftedLabelsSequence(lam) for lam in ((1,), (2,), (1, 1))]
    + [QuotientSequence(ShiftedLabelsSequence((1, 1)), InducedSpechtSequence((1, 1)))],
    ids=lambda seq: seq.label,
)
def test_check_monotone_flags_a_phi_that_is_not_equivariant(seq):
    # the S_{n+1}-span of the image is all of level n + 1, so every closed
    # span passes; the images leave the V_mu-isotypic parts of the
    # restriction to S_n, which the branching projection catches at every
    # level but n = 1, where S_1 is trivial and phi_1 equivariant
    start = seq.n_min
    assert equivariance_failures(seq, 4)
    assert closure_monotone(seq, start, 5) == ({n: True for n in range(start, 5)}, [])
    report = check_monotone(seq, start, 5)
    assert report.monotone == {n: n == 1 for n in range(start, 5)}
    assert {w[0] for w in report.witnesses} == set(range(max(start, 2), 5))
    assert {(w[2], w[3][0]) for w in report.witnesses} == {("branching", "off_branching")}


def equivariance_failures(seq, n_max):
    """(n, g, v) where nf(phi_n(g . v)) != g . nf(phi_n(v)), for the
    generators g of S_n acting on level n + 1 with n + 1 fixed, over a basis
    of each level n_min .. n_max."""
    failures = []
    for n in range(max(seq.n_min, 1), n_max + 1):
        source, target = seq.rep(n), seq.rep(n + 1)
        for g in generators(n):
            lifted = g + (n + 1,)
            for v in source.basis():
                if target.nf(seq.phi(n, source.act_vec(g, v))) != target.act_vec(lifted, target.nf(seq.phi(n, v))):
                    failures.append((n, g, v))
    return failures


class TwistedPhiSequence(InducedSpechtSequence):
    """A deliberately broken sequence: phi_n is iota followed by the
    transposition (1 2) of S_{n+1}, which does not commute with S_n."""

    def phi(self, n: int, v: dict) -> dict:
        return act_vec(from_cycles(n + 1, [(1, 2)]), super().phi(n, v))


@pytest.mark.parametrize("seq", default_seeds(), ids=lambda seq: seq.label)
def test_phi_is_equivariant_on_default_seeds(seq):
    # check_monotone seeds a multiplicity-one component with one vector,
    # which stands for the component only if phi_n is S_n-equivariant
    assert equivariance_failures(seq, 4) == []


@pytest.mark.parametrize("seq", default_seeds(), ids=lambda seq: seq.label)
def test_central_projections_lie_in_their_isotypic_parts(seq):
    # one nonzero vector per constituent, inside that constituent's part
    for n in range(max(seq.n_min, 1), 5):
        level = seq.rep(n)
        counts = level.decompose().counts
        parts = level.isotypic(counts)
        found = level.central_projections(level.basis(), counts)
        assert found.keys() == {nu for nu, m in counts.items() if m}
        for nu, w in found.items():
            assert w and Echelon(parts[nu]).contains(w)


@pytest.mark.parametrize("seq", default_seeds(), ids=lambda seq: seq.label)
def test_every_default_seed_level_acts_through_a_key_index(seq):
    # a sum's index is over its tagged keys ("L" | "R", key), acted on by the
    # summands' own indices
    for n in range(max(seq.n_min, 1), 5):
        level = seq.rep(n)
        assert isinstance(level.index, KeyIndex) and not hasattr(level, "act")
        if isinstance(seq, SumSequence):
            assert {tag for tag, _ in level.index.keys} == {"L", "R"}
            assert level.character() == seq.character_hint(n)


def test_equivariance_check_catches_a_twisted_phi():
    assert equivariance_failures(TwistedPhiSequence((1,)), 3)


class KillTargetSequence(InducedSpechtSequence):
    """A deliberately broken sequence: phi_n = (T - c) after iota, T the sum of
    the transpositions of S_{n+1} and c the content sum of (n, 1), so phi_n
    is S_n-equivariant and kills exactly the V_(n,1) part of its image."""

    def phi(self, n: int, v: dict) -> dict:
        image = super().phi(n, v)
        out = {t: -sum(contents((n, 1))) * c for t, c in image.items()}
        for b in range(2, n + 2):
            for a in range(1, b):
                add_into(out, act_vec(from_cycles(n + 1, [(a, b)]), image))
        return out


@pytest.mark.parametrize("lam", [(1,), (2, 1)], ids=str)
def test_monotone_fails_where_phi_kills_the_target(lam):
    seq = KillTargetSequence(lam)
    start = max(sum(lam), 2)
    report = check_monotone(seq, start, 5)
    expected = [(n, pad((1,), n), "monotone", 0) for n in range(start, 5)]
    assert report.witnesses == expected
    assert (report.monotone, report.witnesses) == closure_monotone(seq, start, 5)
    # nor is phi_n onto: V_(n,1) is missing from the span of its image
    stab = check_uniform_stability(seq, start, 5)
    assert not any(stab.surjectivity.values())
    assert structural(stab) == closure_uniform(seq, start, 5)


class DroppedHintKillTargetSequence(KillTargetSequence):
    """KillTargetSequence whose character hint leaves out V_(n,1), the very
    constituent phi_{n-1} misses, at every level."""

    def character_hint(self, n: int):
        return super().character_hint(n) - irreducible_character(pad((1,), n))


def test_a_hint_that_drops_a_constituent_cannot_make_phi_onto():
    seq = DroppedHintKillTargetSequence((1,))
    level = seq.rep(4)
    hinted = decompose(seq.character_hint(4)).counts
    assert pad((1,), 4) not in hinted
    with pytest.raises(ValueError):
        level.span_multiplicities(level.basis(), hinted)
    stab = check_uniform_stability(seq, 2, 5)
    assert not any(stab.surjectivity.values())
    assert structural(stab) == closure_uniform(seq, 2, 5)
    # Condition III falls back to the traces, as if there were no hint
    assert stab.multiplicities == check_uniform_stability(KillTargetSequence((1,)), 2, 5).multiplicities
