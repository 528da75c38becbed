"""The gate-session ops: the acceptance gate's library calls, one op each.

Every op reaches repstab through module attributes, so wrappers installed by
the tracer see the calls.  An op returns a JSON value that the oracle
compares; module caches persist from op to op within one process.
"""

from repstab import arnold, characters, configspaces, partitions, specht, stability

LAMBDAS = {"0": (), "1": (1,), "2": (2,), "11": (1, 1), "3": (3,), "21": (2, 1), "111": (1, 1, 1)}


def _branching(k: int):
    ok = True
    for lam in partitions.partitions_of(k):
        chi = characters.irreducible_character(lam)
        for n in range(k, 9):
            got = characters.decompose(characters.induced_character(chi, n)).counts
            ok = ok and got == {mu: 1 for mu in partitions.leadsto(lam, n)}
    return ok


def _claims(lam):
    k = sum(lam)
    return [[n, specht.verify_claims(lam, n).ok] for n in range(max(k, 1), 8)]


def _monotone(lam):
    out = []
    for n in range(max(sum(lam), 1), 7):
        report = specht.monotonicity_witness(lam, n)
        dims = [[e["component_dim"], e["span_dim"], int(e["target_multiplicity"])] for e in report.entries]
        out.append([n, report.ok, dims])
    return out


def _stable(lam):
    start = max(2 * sum(lam), 1)
    report = stability.check_uniform_stability(stability.InducedSpechtSequence(lam), start, 8)
    return [report.ok, report.multiplicity_stable_from()]


def _torus(descs, n):
    return {str(i): configspaces.betti_unordered(descs["torus"], n, i) for i in (2, 3, 4)}


def _s2(descs):
    return [configspaces.betti_unordered(descs["s2"], n, 1) for n in (2, 3, 4)]


def _s3(descs):
    s3 = descs["s3"]
    poincare = s3.poincare()
    return [
        [configspaces.betti_unordered(s3, n, i) for i in range(7)]
        + [configspaces.graded_invariants_dim(poincare, n, i) for i in range(7)]
        for n in range(9)
    ]


def _chains():
    out = []
    shapes = [lam for k in range(4) for lam in partitions.partitions_of(k)]
    for lam in shapes:
        first = lam[0] if lam else 0
        for mu in shapes:
            for n in range(max(sum(lam) + first, sum(mu), 1), 9):
                chains = characters.count_partition_chains(lam, mu, n)
                invariants = characters.young_invariants_dim(partitions.pad(lam, n), mu)
                out.append([chains, invariants])
    return out


def _property_suite():
    report = stability.property_suite(n_max=5)
    return [report.seed_count, report.ok, len(report.checks)]


def _arnold():
    sizes = [len(arnold.top_basis(m)) for m in range(2, 8)]
    induced = [arnold.top_character(m, 2) == arnold.induced_cyclic_sign_character(m) for m in range(2, 7)]
    trivial = [int(arnold.trivial_multiplicity(arnold.top_character(m, 3))) for m in range(2, 7)]
    return [sizes, induced, trivial]


OPS = {
    **{f"c1.k{k}": (lambda descs, k=k: _branching(k)) for k in range(1, 6)},
    **{f"c3.claims.{name}": (lambda descs, lam=lam: _claims(lam)) for name, lam in LAMBDAS.items()},
    **{f"c4.mono.{name}": (lambda descs, lam=lam: _monotone(lam)) for name, lam in LAMBDAS.items()},
    **{f"c4.stable.{name}": (lambda descs, lam=lam: _stable(lam)) for name, lam in LAMBDAS.items()},
    **{f"c5.torus.n{n}": (lambda descs, n=n: _torus(descs, n)) for n in range(2, 7)},
    "c6.s2": _s2,
    "c7.s3": _s3,
    "c8.chains": lambda descs: _chains(),
    "c10.property_suite": lambda descs: _property_suite(),
    "c11.arnold": lambda descs: _arnold(),
}
