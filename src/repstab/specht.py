"""Explicit induced tabloid modules, polytabloids, and the branching generators.

Vectors live in I_n(M^lam), the free Q-module on pseudo-tabloids of shape lam
in ambient n, represented as sparse dicts.  The Specht span I_n(V_lam), the
inclusion iota to ambient n+1, the fill-the-boxes maps pi_mu, and the
generators w_T are implemented literally from their defining sums, and
verify_claims / monotonicity_witness re-derive the structural facts about
them at desk scale.  A Specht span is a rep.Rep under the tabloid action
act_vec, so its traces, isotypic components (Jucys-Murphy kernels) and span
closures are Rep's; the n! group-sum projector project_tabloid is kept only
as the oracle the tests compare against.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import permutations
from math import factorial

from .characters import irreducible_character, mn_character
from .linalg import add_into
from .partitions import Partition, curly_pad, dim_irrep, leadsto, lex_compare
from .perms import Perm, all_perms, cycle_type
from .rep import Rep
from .tabloids import (
    PseudoTableau,
    PseudoTabloid,
    act,
    act_tabloid,
    added_boxes,
    column_stabilizer,
    column_stabilizer_order,
    pseudo_tableaux,
    row_major_tableau,
    strip,
)

Vec = dict  # PseudoTabloid -> int | Fraction


def act_vec(sigma: Perm, v: Vec) -> Vec:
    return {act_tabloid(sigma, t): c for t, c in v.items()}


def polytabloid(t: PseudoTableau) -> Vec:
    """v_T: signed sum of {qT} over the column stabilizer of T."""
    out: Vec = {}
    for sigma, sgn in column_stabilizer(t):
        add_into(out, {act(sigma, t).tabloid(): sgn})
    return out


# bench/tracer.py wraps Subspace.character by this name.
Subspace = Rep


@cache
def specht_module(lam: Partition, n: int, full: bool = False) -> Rep:
    """I_n(V_lam): the span of all polytabloids of shape lam in ambient n.

    Since v_T = +/- v_T' when T' reorders columns of T, only column-sorted
    tableaux are inserted, and insertion stops at the branching-rule rank
    dim_irrep(lam) * C(n, k); pass full=True to insert every polytabloid
    (the small-n tests re-derive the rank that the early stop assumes).
    """
    from math import comb

    if n < sum(lam):
        raise ValueError(f"ambient {n} too small for {lam}")
    sub = Rep(n, act_vec)
    target = None if full else dim_irrep(lam) * comb(n, sum(lam))
    for t in pseudo_tableaux(lam, n):
        if not full and any(
            col != tuple(sorted(col)) for col in t.columns() if len(col) > 1
        ):
            continue
        sub.echelon.insert(polytabloid(t))
        if target is not None and sub.dim == target:
            break
    return sub


def tabloid_module_dim(lam: Partition, n: int) -> int:
    from math import comb

    k = sum(lam)
    ways = factorial(k)
    for part in lam:
        ways //= factorial(part)
    return comb(n, k) * ways


def iota(v: Vec) -> Vec:
    """Reinterpret every basis tabloid one ambient level up (coefficientwise)."""
    return {PseudoTabloid(t.n + 1, t.rows): c for t, c in v.items()}


def pi_mu(v: Vec, mu: Partition, lam: Partition, n: int) -> Vec:
    """Fill the boxes of Y_mu/Y_lam by the complement of the support, all ways.

    S_n-equivariant map I_n(M^lam) -> M^mu, defined on each tabloid through
    its canonical representative.
    """
    boxes = added_boxes(lam, mu)
    out: Vec = {}
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


def w_element(t: PseudoTableau, lam: Partition) -> Vec:
    """w_T: signed sum over ColStab(T) of the stripped tabloids."""
    out: Vec = {}
    for sigma, sgn in column_stabilizer(t):
        add_into(out, {strip(act(sigma, t), lam).tabloid(): sgn})
    return out


def moved_tableau(t: PseudoTableau, boxes_mu, boxes_nu, assignment) -> PseudoTableau:
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


@dataclass
class ClaimsReport:
    lam: Partition
    n: int
    entries: list = field(default_factory=list)  # per-mu dicts
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_claims(lam: Partition, n: int) -> ClaimsReport:
    """Verify the structural facts about w_T for every mu that lam leads to
    at level n, using the row-major generating tableau: membership in the
    polytabloid span, proportionality of pi_mu(w_T) to v_T with a positive
    constant, vanishing of pi_nu(w_T) above mu, the rewriting identity with
    constant |ColStab(stripped T)|, and cancellation of the bad-bijection
    signed sums.
    """
    if n > 8:
        raise ValueError("verify_claims capped at n = 8")
    report = ClaimsReport(lam, n)
    targets = leadsto(lam, n)
    specht = specht_module(lam, n)
    for mu in targets:
        t_mu = row_major_tableau(mu, n)
        w = w_element(t_mu, lam)
        entry = {"mu": mu}

        entry["membership"] = specht.contains(w)
        if not entry["membership"]:
            report.failures.append((mu, "membership", w))

        v_mu = polytabloid(t_mu)
        image = pi_mu(w, mu, lam, n)
        const = _proportionality(image, v_mu)
        entry["projection_constant"] = const
        if const is None or const <= 0:
            report.failures.append((mu, "projection", image))

        higher = [nu for nu in targets if lex_compare(nu, mu) > 0]
        bad_images = [nu for nu in higher if pi_mu(w, nu, lam, n)]
        entry["vanishes_above"] = not bad_images
        if bad_images:
            report.failures.append((mu, "vanishing", bad_images))

        stripped = strip(t_mu, lam)
        c = column_stabilizer_order(stripped)
        entry["rewrite_constant"] = c
        lhs = {k: c * x for k, x in w.items()}
        rhs: Vec = {}
        for sigma, sgn in column_stabilizer(t_mu):
            add_into(rhs, polytabloid(strip(act(sigma, t_mu), lam)), sgn)
        entry["rewrite_identity"] = lhs == rhs
        if lhs != rhs:
            report.failures.append((mu, "rewrite", (lhs, rhs)))

        entry["bad_bijections_vanish"] = _bad_bijections_vanish(
            t_mu, lam, mu, targets, report
        )
        report.entries.append(entry)
    return report


def _proportionality(image: Vec, v: Vec):
    """image == const * v exactly, or None."""
    if not v:
        return None
    key = next(iter(v))
    if key not in image:
        return None
    const = Fraction(image[key], v[key])
    scaled = {k: const * x for k, x in v.items()}
    if scaled != image:
        return None
    return int(const) if const.denominator == 1 else const


def good_bijection_count(mu: Partition, lam: Partition) -> int:
    """Bijections of the added boxes to themselves preserving every row."""
    boxes = added_boxes(lam, mu)
    per_row: dict[int, int] = {}
    for i, _ in boxes:
        per_row[i] = per_row.get(i, 0) + 1
    out = 1
    for m in per_row.values():
        out *= factorial(m)
    return out


def _bad_bijections_vanish(t_mu, lam, mu, targets, report) -> bool:
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
            total: Vec = {}
            for sigma, sgn in column_stabilizer(t_mu):
                moved = moved_tableau(act(sigma, t_mu), boxes_mu, boxes_nu, assignment)
                add_into(total, {moved.tabloid(): sgn})
            if total:
                ok = False
                report.failures.append((mu, "bad_bijection", (nu, assignment)))
    return ok


def project_tabloid(mu: Partition, t: PseudoTabloid) -> Vec:
    """sum over g in S_n of chi^mu(g) * {g t}: n! terms, the test oracle for
    isotypic_component (scale by dim mu / n! for the projection)."""
    out: Vec = {}
    for g in all_perms(t.n):
        chi = mn_character(mu, cycle_type(g))
        if chi:
            add_into(out, {act_tabloid(g, t): chi})
    return out


# isotypic_component and sn_span delegate to Rep; bench/tracer.py times them
# by these names as the specht layer.
def isotypic_component(sub: Rep, mu: Partition) -> list[Vec]:
    """Echelon basis of the V_mu-isotypic component of the span."""
    return sub.isotypic(mu)


def sn_span(seeds: list[Vec], n: int) -> Rep:
    """Closure of the span of the seeds under the S_n action on tabloids."""
    return Rep(n, act_vec).sn_span(seeds)


@dataclass
class MonotonicityReport:
    lam: Partition
    n: int
    entries: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def monotonicity_witness(lam: Partition, n: int) -> MonotonicityReport:
    """For each mu in leadsto(lam, n): project onto the V_mu isotypic piece of
    I_n(V_lam), push through iota, take the S_{n+1} span, and confirm it
    contains V_{mu{n+1}}.
    """
    if n > 7:
        raise ValueError("monotonicity_witness capped at n = 7")
    report = MonotonicityReport(lam, n)
    sub = specht_module(lam, n)
    for mu in leadsto(lam, n):
        component = isotypic_component(sub, mu)
        entry = {"mu": mu, "component_dim": len(component)}
        if len(component) != dim_irrep(mu):
            report.failures.append((mu, "isotypic_dim", len(component)))
        span = sn_span([iota(v) for v in component], n + 1)
        chi = span.character()
        target = curly_pad(mu)
        mult = chi.inner(irreducible_character(target))
        entry["target"] = target
        entry["target_multiplicity"] = mult
        entry["span_dim"] = span.dim
        if mult < 1:
            report.failures.append((mu, "span_missing_target", target))
        report.entries.append(entry)
    return report
