"""The indexed paths of rep.Rep: index tables, and agreement with oracles
that act on keyed vectors and build no Rep, for the tabloid modules
(KeyIndex) and the cells of the explicit E2 page (LinearIndex)."""

import pytest

from repstab.characters import explicit_character, irreducible_character
from repstab.e2 import E2Page
from repstab.linalg import Echelon, kernel_basis
from repstab.manifolds import load_manifold
from repstab.perms import all_perms, compose, from_cycles, generators, identity
from repstab.rep import KeyIndex, LinearIndex, Rep
from repstab.specht import act_vec, specht_module, tabloid_index
from repstab.stability import (
    InducedModuleSequence,
    InducedSpechtSequence,
    QuotientSequence,
)
from repstab.tabloids import act_tabloid

from test_stability import oracle_isotypic


def keyed_closure(seeds, n, act, modulus=None) -> Echelon:
    """Smallest invariant subspace containing the seeds, under the keyed
    action act(sigma, v) followed by reduction modulo the modulus Echelon:
    the span-closure oracle."""

    def nf(v):
        return v if modulus is None else modulus.reduce(v)

    span = Echelon()
    queue = [v for v in map(nf, seeds) if span.insert(v)]
    while queue:
        v = queue.pop()
        for g in generators(n):
            image = nf(act(g, v))
            if span.insert(image):
                queue.append(image)
    return span


def test_index_tables_are_the_tabloid_action():
    index = tabloid_index((2, 1), 4)
    assert index.keys == sorted(index.keys)
    assert index.table(identity(4)) == tuple(range(len(index.keys)))
    for sigma in all_perms(4):
        table = index.table(sigma)
        assert sorted(table) == list(range(len(index.keys)))
        assert all(index.keys[table[i]] == act_tabloid(sigma, t) for i, t in enumerate(index.keys))
    p, q = from_cycles(4, [(1, 2, 3)]), from_cycles(4, [(2, 4)])
    pq, tp, tq = index.table(compose(p, q)), index.table(p), index.table(q)
    assert all(pq[i] == tp[tq[i]] for i in range(len(pq)))
    v = {t: i + 1 for i, t in enumerate(index.keys[::3])}
    assert index.decode(index.encode(v)) == v



def test_labelled_adjacent_tables_equal_the_tabloid_action():
    # tabloid_index reads its adjacent tables off row labels; an index over
    # the same keys without labels builds them by act_tabloid
    for lam, n in (((2, 1), 5), ((3, 2, 1), 7), ((1, 1), 4), ((2,), 6)):
        labelled = tabloid_index(lam, n)
        plain = KeyIndex(labelled.keys, act_tabloid)
        for sigma in [from_cycles(n, [(i, i + 1)]) for i in range(1, n)] + [
            from_cycles(n, [(1, n)]), from_cycles(n, [tuple(range(1, n + 1))])
        ]:
            assert labelled.table(sigma) == plain.table(sigma), (lam, n, sigma)

def _sequences():
    out = []
    for lam in ((1,), (2,), (1, 1), (2, 1)):
        out += [InducedModuleSequence(lam), InducedSpechtSequence(lam)]
    return out + [QuotientSequence(InducedModuleSequence((1, 1)), InducedSpechtSequence((1, 1)))]


@pytest.mark.parametrize("seq", _sequences(), ids=lambda seq: seq.label)
def test_indexed_rep_agrees_with_generic_action(seq):
    # the keyed tabloid action, reduced by the keyed modulus, is the oracle
    for n in range(max(seq.n_min, 2), 6):
        fast = seq.rep(n)
        modulus = Echelon(fast.modulus_basis())

        def act(g, v):
            return modulus.reduce(act_vec(g, v))

        slow = Echelon(fast.basis())
        assert slow.basis() == fast.basis()
        assert explicit_character(slow, n, act) == fast.character()
        counts = fast.decompose().counts
        assert fast.isotypic(counts) == {mu: oracle_isotypic(fast, mu) for mu in counts}
        seeds = fast.basis()[:1]
        assert keyed_closure(seeds, n, act, modulus).basis() == fast.sn_span(seeds).basis()


def test_quotient_traces_act_and_reduce():
    # the pivot read applies only without a modulus: a quotient's class
    # traces must come from reduced images
    quot = QuotientSequence(InducedModuleSequence((1, 1)), InducedSpechtSequence((1, 1)))
    for n in range(2, 6):
        rep = quot.rep(n)
        assert rep.modulus is not None and rep.index is not None
        assert rep.character() == quot.character_hint(n)


def test_isotypic_rejects_counts_that_miss_the_dimension():
    rep = specht_module((2, 1), 4)
    counts = rep.decompose().counts
    for bad in ({nu: m for nu, m in counts.items() if nu != (3, 1)}, {**counts, (4,): 1}):
        with pytest.raises(ValueError):
            rep.isotypic(bad)


def test_isotypic_returns_only_the_requested_partitions():
    rep = InducedModuleSequence((1, 1)).rep(4)
    counts = rep.decompose().counts
    whole = rep.isotypic(counts)
    assert whole.keys() == set(counts)
    assert sum(map(len, whole.values())) == rep.dim
    part = rep.isotypic(counts, [(3, 1), (1, 1, 1, 1)])
    assert part == {(3, 1): whole[(3, 1)], (1, 1, 1, 1): []}


@pytest.mark.parametrize("name", ["torus", "s2"])
def test_weight_vectors_on_page_cells(name):
    # the linear index: the S_n-span of m_mu weight vectors of each
    # constituent mu of a cell, by Rep and by the keyed oracle, has the
    # character m_mu chi^mu
    page = E2Page(load_manifold(name), 4)
    for keys in page.cells.values():
        rep = Rep(4, LinearIndex(keys, page.act_key), [{k: 1} for k in keys])
        for mu, m in rep.decompose().counts.items():
            expected = irreducible_character(mu) * m
            found = rep.weight_vectors(mu, m)
            assert len(found) == m
            assert rep.sn_span(found).character() == expected
            assert explicit_character(keyed_closure(found, 4, page.act_vec), 4, page.act_vec) == expected


def _pages(names, n_max):
    return [E2Page(load_manifold(name), n) for name in names for n in range(1, n_max + 1)]


@pytest.mark.parametrize("name", ["torus", "s2"])
def test_linear_index_tables_are_the_page_action(name):
    page = E2Page(load_manifold(name), 4)
    perms = list(all_perms(4))
    for keys in page.cells.values():
        index = LinearIndex(keys, page.act_key)
        assert index.keys == sorted(keys)
        for sigma in perms:
            table = index.table(sigma)
            assert [index.decode(dict(terms)) for terms in table] == [page.act_key(sigma, k) for k in index.keys]
        v = {k: i + 1 for i, k in enumerate(index.keys[::2])}
        assert index.decode(index.act(perms[5], index.encode(v))) == page.act_vec(perms[5], v)


def generic_cell_character(page, p, q):
    """cohomology_cell_character on the keyed page action: the oracle."""
    keys = page.basis(p, q)
    cycles = kernel_basis([page.diff_key(key) for key in keys], [{key: 1} for key in keys])
    boundaries = [page.diff_key(key) for key in page.basis(p - page.desc.d, q + 1)]
    kernel = explicit_character(Echelon(cycles), page.n, page.act_vec)
    return kernel - explicit_character(Echelon(boundaries), page.n, page.act_vec)


@pytest.mark.parametrize("page", _pages(["torus", "s2", "cp1"], 4), ids=lambda page: f"{page.desc.name}-n{page.n}")
def test_cell_characters_agree_with_generic_action(page):
    for p, q in page.cells:
        assert page.cohomology_cell_character(p, q) == generic_cell_character(page, p, q)


def test_cell_character_acts_once_per_permutation_and_key(monkeypatch):
    page = E2Page(load_manifold("torus"), 4)
    calls = []
    act_key = page.act_key
    monkeypatch.setattr(page, "act_key", lambda sigma, key: calls.append((sigma, key)) or act_key(sigma, key))
    monkeypatch.setattr(page, "act_vec", None)  # the indexed path never acts on keyed vectors
    for p, q in page.cells:
        calls.clear()
        page.cohomology_cell_character(p, q)
        assert len(calls) == len(set(calls))


def test_linear_index_keeps_the_invariance_check():
    page = E2Page(load_manifold("torus"), 3)
    keys = page.basis(1, 1)
    index = LinearIndex(keys, page.act_key)
    with pytest.raises(ValueError):
        Rep(3, index, [{keys[0]: 1}]).character()
    with pytest.raises(ValueError):
        explicit_character(Echelon([{keys[0]: 1}]), 3, page.act_vec)
    assert Rep(3, index, [{k: 1} for k in keys]).character().degree() == len(keys)
