"""The monomial fast path of rep.Rep: index tables, and agreement with the
generic vector action on the same vectors."""

import pytest

from repstab.linalg import Echelon
from repstab.partitions import partitions_of
from repstab.perms import all_perms, compose, from_cycles, identity
from repstab.rep import Rep
from repstab.specht import act_vec, specht_module, tabloid_index
from repstab.stability import (
    InducedModuleSequence,
    InducedSpechtSequence,
    QuotientSequence,
    SumSequence,
)
from repstab.tabloids import act_tabloid


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


def _sequences():
    out = []
    for lam in ((1,), (2,), (1, 1), (2, 1)):
        out += [InducedModuleSequence(lam), InducedSpechtSequence(lam)]
    return out + [QuotientSequence(InducedModuleSequence((1, 1)), InducedSpechtSequence((1, 1)))]


@pytest.mark.parametrize("seq", _sequences(), ids=lambda seq: seq.label)
def test_indexed_rep_agrees_with_generic_action(seq):
    for n in range(max(seq.n_min(), 2), 6):
        fast = seq.rep(n)
        assert fast.index is not None
        modulus = fast.modulus_basis()
        slow = Rep(n, act_vec, fast.basis(), modulus=Echelon(modulus) if modulus else None)
        assert slow.basis() == fast.basis()
        assert slow.character() == fast.character()
        for mu in partitions_of(n):
            assert slow.isotypic(mu) == fast.isotypic(mu)
        seeds = fast.basis()[:1]
        assert slow.sn_span(seeds).basis() == fast.sn_span(seeds).basis()


def test_quotient_traces_act_and_reduce():
    # the pivot read applies only without a modulus: a quotient's class
    # traces must come from reduced images
    quot = QuotientSequence(InducedModuleSequence((1, 1)), InducedSpechtSequence((1, 1)))
    for n in range(2, 6):
        rep = quot.rep(n)
        assert rep.modulus is not None and rep.index is not None
        assert rep.character() == quot.character_hint(n)


def test_isotypic_reuses_jucys_murphy_images(monkeypatch):
    rep = InducedModuleSequence((1, 1, 1)).rep(6)
    fresh = {mu: InducedModuleSequence((1, 1, 1)).rep(6).isotypic(mu) for mu in ((5, 1), (4, 1, 1))}
    assert rep.isotypic((5, 1)) == fresh[(5, 1)]  # separating degree 1
    assert rep.isotypic((4, 1, 1)) == fresh[(4, 1, 1)]  # degree 2: computed again
    applied = []
    table = rep.index.table
    monkeypatch.setattr(rep.index, "table", lambda sigma: applied.append(sigma) or table(sigma))
    assert rep.isotypic((5, 1)) == fresh[(5, 1)]
    assert rep.isotypic((3, 3))
    assert not applied


def test_generic_isotypic_reuses_jucys_murphy_images():
    summed = SumSequence(InducedSpechtSequence((1,)), InducedSpechtSequence((2,))).rep(4)
    applied = []
    act = summed.act
    summed.act = lambda sigma, v: applied.append(sigma) or act(sigma, v)
    summed.isotypic((4,))
    assert applied
    applied.clear()
    assert summed.isotypic((3, 1))
    assert not applied


def test_only_spans_closed_by_sn_span_skip_the_invariance_check():
    sub = specht_module((2, 1), 4)
    assert not sub.closed
    span = sub.sn_span(sub.basis()[:1])
    assert span.closed and span.dim == sub.dim
    assert span.character() == sub.character()
    t = next(iter(sub.basis()[0]))
    with pytest.raises(ValueError):
        Rep(4, act_vec, [{t: 1}], index=sub.index).character()
