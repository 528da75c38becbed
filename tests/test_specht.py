from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import pytest

import repstab.specht as specht
from repstab.characters import (
    content_power_sums,
    decompose,
    explicit_character,
    induced_character,
    irreducible_character,
)
from repstab.linalg import Echelon, add_into
from repstab.partitions import curly_pad, dim_irrep, leadsto, lex_compare, partitions_of
from repstab.perms import all_perms, generators
from repstab.rep import Rep
from repstab.specht import (
    act_vec,
    good_bijection_count,
    iota,
    isotypic_component,
    monotonicity_witness,
    pi_mu,
    polytabloid,
    project_tabloid,
    sn_span,
    specht_module,
    tabloid_index,
    verify_claims,
    w_element,
)
from repstab.stability import InducedModuleSequence
from repstab.tabloids import (
    PseudoTableau,
    PseudoTabloid,
    act,
    added_boxes,
    parse_tableau,
    pseudo_tableaux,
    row_major_tableau,
)


def T(text, n):
    return parse_tableau(text, n)


def test_polytabloid_small():
    v = polytabloid(T("1,2;3", 3))
    assert v == {
        T("1,2;3", 3).tabloid(): 1,
        T("3,2;1", 3).tabloid(): -1,
    }


def test_polytabloid_single_row():
    v = polytabloid(T("2,1,3", 3))
    assert v == {T("1,2,3", 3).tabloid(): 1}


def test_polytabloid_span_rank():
    ech = Echelon()
    for t in pseudo_tableaux((2, 1), 3):
        ech.insert(polytabloid(t))
    assert ech.dim == 2 == dim_irrep((2, 1))


def test_specht_module_dims():
    assert specht_module((1,), 3).dim == 3
    assert specht_module((2, 1), 3).dim == 2
    assert specht_module((2,), 4).dim == 6


def test_tabloid_module_dim_matches_enumeration():
    from repstab.specht import tabloid_module_dim
    from repstab.tabloids import pseudo_tabloids

    for lam in [(1,), (2, 1), (2, 2), (3, 1, 1)]:
        for n in range(sum(lam), sum(lam) + 3):
            assert tabloid_module_dim(lam, n) == len(pseudo_tabloids(lam, n))


def test_specht_full_matches_early_stop():
    # the relabelled copies of the ambient-k rows (and, at n = k, the
    # early-stopped insertion) are exactly the reduced echelon rows of the
    # span of every polytabloid
    cases = [(lam, n) for k in range(1, 4) for lam in partitions_of(k) for n in range(k, 7)]
    cases += [((2, 2), 6), ((3, 1, 1), 6), ((3, 2, 1), 7)]
    cases += [((), n) for n in range(4)]
    for lam, n in cases:
        sub = specht_module(lam, n)
        full = Rep(n, tabloid_index(lam, n))
        for t in pseudo_tableaux(lam, n):
            full.echelon.insert(full.index.encode(polytabloid(t)))
        assert sub.echelon.rows == full.echelon.rows, (lam, n)
        assert sub.dim == dim_irrep(lam) * comb(n, sum(lam))


def test_specht_module_enumerates_no_tableau_above_k(monkeypatch):
    # above ambient k = |lam| the module is copied from ambient k, so no
    # pseudo-tableau at ambient n is ever enumerated
    real = specht.pseudo_tableaux

    def only_at_k(lam, n):
        if n > sum(lam):
            raise AssertionError(f"pseudo_tableaux({lam}, {n}) enumerated")
        return real(lam, n)

    monkeypatch.setattr(specht, "pseudo_tableaux", only_at_k)
    specht_module.cache_clear()
    try:
        assert specht_module((2, 1), 6).dim == 40
        assert specht_module((3, 2, 1), 7).dim == 112
    finally:
        specht_module.cache_clear()


def test_every_polytabloid_lies_in_early_stopped_span():
    # the column-sorted generating set really spans: arbitrary polytabloids
    # are members of the early-stopped echelon
    for lam, n in [((2, 1), 5), ((1, 1), 6), ((2, 2), 5)]:
        sub = specht_module(lam, n)
        for t in pseudo_tableaux(lam, n):
            assert sub.contains(polytabloid(t))


def test_specht_character_matches_induced():
    for lam, n in [((2,), 4), ((1, 1), 4), ((2, 1), 5), ((1,), 4)]:
        sub = specht_module(lam, n)
        expected = induced_character(irreducible_character(lam), n)
        assert sub.character() == expected
        assert decompose(expected).counts == {mu: 1 for mu in leadsto(lam, n)}


def test_iota_trivial_on_basis():
    v = polytabloid(T("1,2;3", 3))
    image = iota(v)
    assert all(t.n == 4 for t in image)
    assert [t.rows for t in image] == [t.rows for t in v]
    # iota(v_T) = v_T with larger ambient
    w = polytabloid(T("1,2;3", 4))
    assert image == w


def test_iota_equivariant_for_small_sigma():
    # sigma in S_n commutes with iota into S_{n+1}
    v = polytabloid(T("2,4;1", 4))
    for sigma in all_perms(4):
        extended = sigma + (5,)
        assert iota(act_vec(sigma, v)) == act_vec(extended, iota(v))


def test_pi_mu_worked_displays():
    t = T("7,2,1;5,3;4", 7)
    lam = (3, 2, 1)
    v = {t.tabloid(): 1}
    cases = {
        (4, 2, 1): "7,2,1,6;5,3;4",
        (3, 3, 1): "7,2,1;5,3,6;4",
        (3, 2, 2): "7,2,1;5,3;4,6",
        (3, 2, 1, 1): "7,2,1;5,3;4;6",
    }
    for mu, expected in cases.items():
        image = pi_mu(v, mu, lam, 7)
        assert image == {T(expected, 7).tabloid(): 1}


def test_pi_mu_two_fillings_coincide():
    lam, mu, n = (1,), (2,), 2
    for label in (1, 2):
        v = {PseudoTableau(2, ((label,),)).tabloid(): 1}
        assert pi_mu(v, mu, lam, n) == {T("1,2", 2).tabloid(): 1}


def test_pi_mu_equivariant():
    lam, n = (2, 1), 4
    for mu in leadsto(lam, n):
        for t in list(pseudo_tableaux(lam, n))[:6]:
            v = {t.tabloid(): 1}
            for sigma in all_perms(n):
                left = pi_mu(act_vec(sigma, v), mu, lam, n)
                right = act_vec(sigma, pi_mu(v, mu, lam, n))
                assert left == right


def literal_pi_mu(v, mu, lam, n):
    """pi_mu from its defining sum: every filling of the added boxes by the
    complement of the support, (n - k)! of them per tabloid."""
    boxes = added_boxes(lam, mu)
    out = {}
    for t, c in v.items():
        complement = sorted(set(range(1, n + 1)) - t.supp())
        if len(complement) != len(boxes):
            raise ValueError("pi_mu: |mu| must equal the ambient n")
        for filling in permutations(complement):
            rows = [list(row) + [0] * (mu[i] - len(row)) for i, row in enumerate(t.rows)]
            rows += [[0] * mu[i] for i in range(len(t.rows), len(mu))]
            for (i, j), label in zip(boxes, filling):
                rows[i][j] = label
            filled = PseudoTableau(n, tuple(tuple(r) for r in rows))
            add_into(out, {filled.tabloid(): c})
    return out


def moved_tableau(t, boxes_mu, boxes_nu, assignment):
    """T_g: move the entry of each box of B_mu to the assigned box of B_nu."""
    skip = set(boxes_mu)
    content = {}
    for i, row in enumerate(t.rows):
        for j, label in enumerate(row):
            if (i, j) not in skip:
                content[(i, j)] = label
    for b_mu, b_nu in zip(boxes_mu, assignment):
        i, j = b_mu
        content[b_nu] = t.rows[i][j]
    max_row = max(i for i, _ in content) + 1
    rows = []
    for i in range(max_row):
        cols = sorted(j for (r, j) in content if r == i)
        if cols != list(range(len(cols))):
            raise ValueError("moved boxes left a gap in a row")
        rows.append(tuple(content[(i, j)] for j in cols))
    return PseudoTableau(t.n, tuple(rows))


def literal_bad_bijections_vanish(t_mu, lam, mu, targets, report):
    """The bad-bijection check from its defining sums: one signed sum over
    ColStab(T) per bijection of B_mu onto B_nu, |B_nu|! of them per nu."""
    ok = True
    for nu in targets:
        if lex_compare(nu, mu) < 0:
            continue
        boxes_mu = added_boxes(lam, mu)
        boxes_nu = added_boxes(lam, nu)
        for assignment in permutations(boxes_nu):
            good = nu == mu and all(b[0] == g[0] for b, g in zip(boxes_mu, assignment))
            if good:
                continue
            total = {}
            for sigma, sgn in specht.column_stabilizer(t_mu):
                moved = moved_tableau(act(sigma, t_mu), boxes_mu, boxes_nu, assignment)
                add_into(total, {moved.tabloid(): sgn})
            if total:
                ok = False
                report.failures.append((mu, "bad_bijection", (nu, assignment)))
    return ok


def literal_claims(monkeypatch, lam, n):
    """verify_claims with pi_mu and the bad-bijection check taken literally."""
    with monkeypatch.context() as m:
        m.setattr(specht, "pi_mu", literal_pi_mu)
        m.setattr(specht, "_bad_bijections_vanish", literal_bad_bijections_vanish)
        return specht.verify_claims(lam, n)


SMALL_LEVELS = [(lam, n) for k in range(4) for lam in partitions_of(k) for n in range(max(k, 1), 8)]


def test_pi_mu_matches_literal_fillings():
    for lam, n in SMALL_LEVELS:
        targets = leadsto(lam, n)
        for mu in targets:
            w = w_element(row_major_tableau(mu, n), lam)
            for nu in targets:
                assert pi_mu(w, nu, lam, n) == literal_pi_mu(w, nu, lam, n)


def test_pi_mu_is_polynomial():
    # the literal sum would run over the 11! fillings of the added boxes
    n = 12
    image = pi_mu({PseudoTabloid(n, ((1,),)): 1}, (n,), (1,), n)
    assert image == {PseudoTabloid(n, (tuple(range(1, n + 1)),)): factorial(n - 1)}


@pytest.mark.parametrize("lam, n", SMALL_LEVELS + [((3, 2, 1), 6), ((3, 2, 1), 7)])
def test_verify_claims_matches_literal_oracle(monkeypatch, lam, n):
    report = verify_claims(lam, n)
    oracle = literal_claims(monkeypatch, lam, n)
    assert report.entries == oracle.entries
    assert report.failures == oracle.failures


@pytest.mark.parametrize("lam, n", [((1,), 4), ((1, 1), 5), ((2, 1), 5)])
def test_bad_bijection_failures_match_literal_loop(monkeypatch, lam, n):
    # with ColStab(T) cut down to the identity each signed sum is a single
    # tabloid, so every bad bijection fails; the Specht span is built (and
    # cached) with the true column stabilizers first
    specht_module(lam, n)

    def identity_only(t):
        yield tuple(range(1, t.n + 1)), 1

    monkeypatch.setattr(specht, "column_stabilizer", identity_only)
    report = verify_claims(lam, n)
    oracle = literal_claims(monkeypatch, lam, n)
    targets = leadsto(lam, n)
    bad = [f for f in oracle.failures if f[1] == "bad_bijection"]
    assert len(bad) == sum(
        factorial(n - sum(lam)) - (good_bijection_count(mu, lam) if nu == mu else 0)
        for mu in targets
        for nu in targets
        if lex_compare(nu, mu) >= 0
    )
    assert report.failures == oracle.failures
    assert report.entries == oracle.entries


def expand_combination(terms, n):
    """Sum of +/- polytabloids given as (sign, tableau-text) pairs."""
    out = {}
    for sgn, text in terms:
        add_into(out, polytabloid(T(text, n)), sgn)
    return out


def test_w_fixture_1():
    w = w_element(T("1,2,3,4;5,6;7", 7), (3, 2, 1))
    assert w == expand_combination([(1, "1,2,3;5,6;7")], 7)


def test_w_fixture_2():
    w = w_element(T("1,2,3;4,5,6;7", 7), (3, 2, 1))
    assert w == expand_combination([(1, "1,2,3;4,5;7"), (-1, "1,2,6;4,5;7")], 7)


def test_w_fixture_3():
    w = w_element(T("1,2,3;4,5;6,7", 7), (3, 2, 1))
    assert w == expand_combination(
        [(1, "1,2,3;4,5;6"), (1, "1,7,3;4,2;6"), (1, "1,5,3;4,7;6")], 7
    )


def test_w_fixture_4():
    w = w_element(T("1,2,3;4,5;6;7", 7), (3, 2, 1))
    assert w == expand_combination(
        [(1, "1,2,3;4,5;6"), (-1, "7,2,3;1,5;4"), (1, "6,2,3;7,5;1"), (-1, "4,2,3;6,5;7")],
        7,
    )


def test_iota_w_is_w_of_grown_tableau():
    # iota(w_T) = w_{T{n+1}} for the four quoted fixtures
    fixtures = [
        ("1,2,3,4;5,6;7", "1,2,3,4,8;5,6;7"),
        ("1,2,3;4,5,6;7", "1,2,3,8;4,5,6;7"),
        ("1,2,3;4,5;6,7", "1,2,3,8;4,5;6,7"),
        ("1,2,3;4,5;6;7", "1,2,3,8;4,5;6;7"),
    ]
    lam = (3, 2, 1)
    for base, grown in fixtures:
        w_n = w_element(T(base, 7), lam)
        w_next = w_element(T(grown, 8), lam)
        assert iota(w_n) == w_next


def test_w_trivial_shape():
    # lam = (), mu = (n): w = v = the unique empty-shape tabloid
    w = w_element(row_major_tableau((3,), 3), ())
    assert list(w.values()) == [1]


def test_verify_claims_full_example():
    report = verify_claims((3, 2, 1), 7)
    assert report.ok
    by_mu = {e["mu"]: e for e in report.entries}
    assert by_mu[(4, 2, 1)]["rewrite_constant"] == 12
    for entry in report.entries:
        assert entry["membership"]
        assert entry["projection_constant"] >= 1
        assert entry["vanishes_above"]
        assert entry["rewrite_identity"]
        assert entry["bad_bijections_vanish"]


def test_verify_claims_small_shapes():
    for lam, n in [((), 3), ((1,), 3), ((1, 1), 3), ((2,), 4), ((2, 1), 5)]:
        report = verify_claims(lam, n)
        assert report.ok, report.failures


def test_claim2_constant_counts_good_bijections():
    # the proof identifies the claim-2 constant with the good bijection count
    for lam, n in [((1,), 3), ((2,), 4), ((1, 1), 4), ((2, 1), 5)]:
        report = verify_claims(lam, n)
        for entry in report.entries:
            assert entry["projection_constant"] == good_bijection_count(entry["mu"], lam)


def test_w_span_only_contains_lower_irreps():
    # W^mu (the S_n-span of w_T) sits inside the sum of V_nu with nu <= mu
    from repstab.characters import decompose as char_decompose
    from repstab.partitions import lex_compare

    for lam, n in [((1,), 3), ((2,), 4), ((1, 1), 4), ((2, 1), 5)]:
        for mu in leadsto(lam, n):
            w = w_element(row_major_tableau(mu, n), lam)
            span = sn_span([w], n)
            counts = char_decompose(span.character()).counts
            assert counts.get(mu, 0) == 1
            for nu, c in counts.items():
                assert c == 0 or lex_compare(nu, mu) <= 0


def test_isotypic_component_dims():
    sub = specht_module((1,), 3)
    for mu in leadsto((1,), 3):
        comp = isotypic_component(sub, mu)
        assert len(comp) == dim_irrep(mu)


def oracle_isotypic(basis, mu, n):
    """Echelon basis of (dim mu / n!) * sum_g chi^mu(g) g . v over the basis."""
    scale = Fraction(dim_irrep(mu), factorial(n))
    memo = {}
    ech = Echelon()
    for v in basis:
        proj = {}
        for t, c in v.items():
            if t not in memo:
                memo[t] = project_tabloid(mu, t)
            add_into(proj, memo[t], c)
        ech.insert({k: scale * x for k, x in proj.items()})
    return ech.basis()


@pytest.mark.parametrize("lam", [lam for k in range(4) for lam in partitions_of(k)])
def test_isotypic_component_matches_group_sum_oracle(lam):
    for n in range(max(sum(lam), 1), 7):
        sub = specht_module(lam, n)
        for mu in leadsto(lam, n):
            assert isotypic_component(sub, mu) == oracle_isotypic(sub.basis(), mu, n)


def test_character_rejects_non_invariant_span():
    t = next(iter(specht_module((1,), 3).basis()[0]))
    with pytest.raises(ValueError):
        Rep(3, tabloid_index(t.shape, 3), [{t: 1}]).character()
    with pytest.raises(ValueError):
        explicit_character(Echelon([{t: 1}]), 3, act_vec)


def test_character_reduces_once_per_generator_and_row(monkeypatch):
    sub = specht_module((2, 1), 5)
    calls = []
    for name in ("reduce", "coords"):
        original = getattr(Echelon, name)

        def counted(self, v, original=original):
            if self is sub.echelon:
                calls.append(1)
            return original(self, v)

        monkeypatch.setattr(Echelon, name, counted)
    assert sub.character() == induced_character(irreducible_character((2, 1)), 5)
    assert len(calls) <= len(generators(5)) * sub.dim


def test_sn_span_is_whole_module_for_cyclic_vector():
    sub = specht_module((1,), 3)
    span = sn_span([sub.basis()[0]], 3)
    assert span.dim == 3


def test_sn_span_needs_seeds_of_one_shape():
    seeds = [specht_module((1,), 3).basis()[0], specht_module((2,), 3).basis()[0]]
    for bad in (seeds, []):
        with pytest.raises(ValueError):
            sn_span(bad, 3)
    assert sn_span(seeds[1:], 3).index is tabloid_index((2,), 3)


def test_monotonicity_witness_examples():
    report = monotonicity_witness((1,), 3)
    assert report.ok
    targets = {e["mu"]: e["target"] for e in report.entries}
    assert targets[(3,)] == (4,)
    assert targets[(2, 1)] == (3, 1)

    report = monotonicity_witness((2,), 4)
    assert report.ok
    by_mu = {e["mu"]: e for e in report.entries}
    assert by_mu[(2, 2)]["target"] == (3, 2)
    assert by_mu[(2, 2)]["target_multiplicity"] >= 1


def closure_witness(lam, n):
    """(component_dim, span_dim, target_multiplicity) per mu of leadsto(lam, n),
    from the isotypic basis and the closed S_{n+1}-span of its image under
    iota: the oracle monotonicity_witness is compared against."""
    sub = specht_module(lam, n)
    out = []
    for mu in leadsto(lam, n):
        component = isotypic_component(sub, mu)
        span = sn_span([iota(v) for v in component], n + 1)
        out.append((len(component), span.dim, span.decompose()[curly_pad(mu)]))
    return out


def witness_entries(report):
    return [(e["component_dim"], e["span_dim"], e["target_multiplicity"]) for e in report.entries]


@pytest.mark.parametrize("lam", [lam for k in range(4) for lam in partitions_of(k)])
def test_monotonicity_witness_matches_closure_oracle(lam):
    for n in range(max(sum(lam), 1), 7):
        report = monotonicity_witness(lam, n)
        assert report.ok, report.failures
        assert witness_entries(report) == closure_witness(lam, n)


@pytest.mark.parametrize("lam", [lam for k in range(4) for lam in partitions_of(k)])
def test_monotonicity_witness_branching_matches_span_multiplicities(lam):
    # the one seed monotonicity_witness projects, iota(w) for the w that
    # central projection finds in each V_mu piece; every constituent
    for n in range(max(sum(lam), 1), 8):
        sub, level = specht_module(lam, n), specht_module(lam, n + 1)
        counts = level.decompose().counts
        found = sub.central_projections(sub.basis(), sub.decompose().counts, leadsto(lam, n))
        for mu, w in found.items():
            mults, faults = level.branch_multiplicities([iota(w)], mu, counts)
            assert faults == []
            assert mults == level.span_multiplicities([iota(w)], counts)


def test_monotonicity_witness_splits_content_sum_ties_without_closure(monkeypatch):
    # I_6(V_(3,1)) holds (4,1,1) and (3,3), whose content sums agree, so p_1 of
    # the Jucys-Murphy elements alone cannot tell them apart
    assert {(4, 1, 1), (3, 3)} <= set(leadsto((3, 1), 6))
    assert content_power_sums((4, 1, 1), 1) == content_power_sums((3, 3), 1)
    expected = closure_witness((3, 1), 5)

    def closed(*args):
        raise AssertionError("a span was closed")

    monkeypatch.setattr(Rep, "sn_span", closed)
    report = monotonicity_witness((3, 1), 5)
    assert report.ok
    assert witness_entries(report) == expected


def test_monotonicity_witness_flags_a_level_that_is_not_pieri(monkeypatch):
    # I_4(M^(2,1)) in place of I_4(V_(2,1)) holds V_(3,1) twice, so its
    # V_(3,1) piece is not irreducible
    real = specht.specht_module
    monkeypatch.setattr(
        specht, "specht_module", lambda lam, n: InducedModuleSequence(lam).rep(n) if n == 4 else real(lam, n)
    )
    report = monotonicity_witness((2, 1), 4)
    assert report.failures == [((3, 1), "isotypic_dim", 2 * dim_irrep((3, 1)))]
    assert [e["component_dim"] for e in report.entries] == [6, 2, 3]


def test_monotonicity_witness_runs_to_n_8():
    report = monotonicity_witness((2, 1), 8)
    assert report.ok
    assert [e["target"] for e in report.entries] == [curly_pad(mu) for mu in leadsto((2, 1), 8)]
    with pytest.raises(ValueError):
        monotonicity_witness((1,), 9)


def test_linalg_echelon_random_properties():
    from hypothesis import given, settings, strategies as st

    vec_strategy = st.dictionaries(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0),
        max_size=4,
    )

    @settings(max_examples=60, deadline=None)
    @given(st.lists(vec_strategy, max_size=5), vec_strategy)
    def run(vectors, probe):
        ech = Echelon(vectors)
        assert ech.dim <= len([v for v in vectors if v])
        residual = ech.reduce(probe)
        # reducing twice is stable and membership matches empty residual
        assert ech.reduce(residual) == residual
        assert ech.contains(probe) == (not residual)
        coords, res2 = ech.coords(probe)
        recon = dict(res2)
        for c, row in zip(coords, ech.basis()):
            add_into(recon, row, c)
        assert {k: v for k, v in recon.items() if v} == probe

    run()


def test_linalg_echelon_roundtrip():
    a = {1: 1, 2: 2}
    b = {2: 1, 3: 1}
    ech = Echelon([a, b])
    assert ech.dim == 2
    combo = {1: 3, 2: 4, 3: -2}  # 3a - 2b
    assert ech.contains(combo)
    coords, residual = ech.coords(combo)
    assert not residual
    recon = {}
    for c, row in zip(coords, ech.basis()):
        add_into(recon, row, c)
    assert recon == {k: Fraction(v) for k, v in combo.items()} or recon == combo
