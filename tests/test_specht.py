from fractions import Fraction
from math import factorial

import pytest

from repstab.characters import decompose, induced_character, irreducible_character
from repstab.linalg import Echelon, add_into
from repstab.partitions import dim_irrep, leadsto, partitions_of
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
    verify_claims,
    w_element,
)
from repstab.tabloids import (
    PseudoTableau,
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
    # the early-stop rank assumption re-derived by full enumeration
    for lam, n in [((1,), 4), ((2,), 4), ((1, 1), 4), ((2, 1), 5), ((3,), 5)]:
        assert specht_module(lam, n, full=True).dim == specht_module(lam, n).dim


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
        Rep(3, act_vec, [{t: 1}]).character()


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
