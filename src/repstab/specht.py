"""Explicit induced tabloid modules, polytabloids, and the branching generators.

Vectors live in I_n(M^lam), the free Q-module on pseudo-tabloids of shape lam
in ambient n, represented as sparse dicts.  The Specht span I_n(V_lam) is
the direct sum over the k-subsets S of 1..n of a copy of V_lam on S, so it
is built once at ambient k = |lam| and its reduced rows are relabelled onto
every S, in the FI-module picture of Church-Farb.  The inclusion iota to
ambient n+1 and the generators w_T are implemented literally from their
defining sums, on flat label tuples: one sum (_column_sum) reads the
tableau's labels in row-major order through each (positions, sign) pair of
column_group(shape), the column stabilizer of the shape cached once, and
keeps the first lam_i labels of each row, since the boxes that strip
removes form a horizontal strip at the ends of their rows.  It feeds v_T,
w_T, the rewriting identity of verify_claims and the ambient-k Specht
build; coefficients add up on raw row tuples, and each distinct nonzero
tabloid is wrapped once.  The fill-the-boxes maps pi_mu and the
bad-bijection sums of verify_claims are grouped by row assignment, since a
tabloid depends only on the row each label lands in, so they cost the
number of row assignments rather than (n-k)! fillings or bijections; both
deal through deal_table(m, sizes), the dealings of m positions cached once.
verify_claims / monotonicity_witness re-derive the structural facts about
them at desk scale.  A Specht span is a rep.Rep on tabloid_index(lam, n), so
its traces, weight vectors and span closures are Rep's: it computes on
integer positions, acts by permutation tables, and reads each trace off a
pivot without acting on a row.  monotonicity_witness closes no span: it
reads the constituents an S_{n+1}-span holds off the images of one
Gelfand-Tsetlin weight vector (Rep.weight_vectors,
Rep.span_multiplicities).  The n! group-sum projector project_tabloid is
kept only as the oracle the tests compare against.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, permutations
from math import factorial

from ._record import Record
from .characters import mn_character
from .linalg import Echelon, add_into
from .partitions import Partition, curly_pad, dim_irrep, leadsto, lex_compare
from .perms import Perm, all_perms, cycle_type
from .rep import KeyIndex, Rep
from .tabloids import (
    PseudoTableau,
    PseudoTabloid,
    act_tabloid,
    added_boxes,
    column_group,
    column_stabilizer_order,
    deal_table,
    pseudo_tableaux,
    pseudo_tabloids,
    row_labels,
    row_major_tableau,
    strip,
)

Vec = dict  # PseudoTabloid -> int | Fraction


def act_vec(sigma: Perm, v: Vec) -> Vec:
    return {act_tabloid(sigma, t): c for t, c in v.items()}


@lru_cache(maxsize=128)
def tabloid_index(lam: Partition, n: int) -> KeyIndex:
    """Positions of the pseudo-tabloids of shape lam in ambient n, and the
    index tables of the tabloid action: the monomial fast path of every
    Rep inside I_n(M^lam).  Its adjacent tables swap row labels."""
    return KeyIndex(pseudo_tabloids(lam, n), act_tabloid, row_labels)


def _flat(t: PseudoTableau) -> list[int]:
    """The labels of t in row-major order."""
    return [x for row in t.rows for x in row]


def _cuts(shape: Partition, lam: Partition) -> list[tuple[int, int]]:
    """Row-major slices of a tableau of shape that hold the first lam_i labels
    of each row i < len(lam): when lam leads to shape the added boxes form a
    horizontal strip at the end of their rows, so these slices are strip(.,
    lam), and with lam = shape they are the rows."""
    return [(end - part, end - part + keep) for part, end, keep in zip(shape, accumulate(shape), lam)]


def _column_sum(labels, shape: Partition, lam: Partition, coeff=1, acc=None) -> dict:
    """acc[rows] += coeff * sign over column_group(shape), rows the sorted
    labels that each element moves into the slices _cuts(shape, lam) of the
    tableau with these row-major labels: the tabloids {strip(sigma T, lam)}
    of w_T, or, with lam = shape, the {sigma T} of v_T, keyed by their raw
    row tuples (zero coefficients are kept)."""
    acc = {} if acc is None else acc
    cuts = _cuts(shape, lam)
    for p, sign in column_group(shape):
        moved = [labels[i] for i in p]
        rows = tuple(tuple(sorted(moved[a:b])) for a, b in cuts)
        acc[rows] = acc.get(rows, 0) + coeff * sign
    return acc


def _tabloid_vec(acc: dict, n: int) -> Vec:
    """The nonzero entries of a raw row-tuple sum, each key wrapped once."""
    return {PseudoTabloid(n, rows): c for rows, c in acc.items() if c}


def polytabloid(t: PseudoTableau) -> Vec:
    """v_T: signed sum of {qT} over the column stabilizer of T."""
    return _tabloid_vec(_column_sum(_flat(t), t.shape, t.shape), t.n)


# bench/tracer.py wraps Subspace.character by this name.
Subspace = Rep


# One pass of the acceptance gate's calls builds 49 modules; every lam with
# |lam| <= 3 at n <= 9 is 63.
@lru_cache(maxsize=64)
def specht_module(lam: Partition, n: int) -> Rep:
    """I_n(V_lam): the span of all polytabloids of shape lam in ambient n.

    As a vector space I_n(V_lam) is the direct sum, over the k-subsets S of
    1..n (k = |lam|), of one copy of V_lam on the labels S.  So for n > k the
    module at ambient k is built once, and each of its reduced rows is copied
    onto every S through the order-preserving relabel 1..k -> S.  The relabel
    keeps the order of the tabloids of one support, and different supports
    share no tabloid, so the copies are the span's reduced echelon rows
    (primitive, with positive pivots; that form is unique) and are stored
    without any elimination.

    At n = k only column-sorted tableaux are inserted (v_T = +/- v_T' when T'
    reorders columns of T), until the rank reaches dim_irrep(lam).
    """
    k = sum(lam)
    if n < k:
        raise ValueError(f"ambient {n} too small for {lam}")
    index = tabloid_index(lam, n)
    sub = Rep(n, index)
    if n > k:
        base = specht_module(lam, k)
        rows = []
        for subset in combinations(range(1, n + 1), k):
            # position at ambient n of each ambient-k tabloid relabelled onto subset
            pos = [
                index.pos[PseudoTabloid(n, tuple(tuple(subset[x - 1] for x in row) for row in t.rows))]
                for t in base.index.keys
            ]
            rows.extend((pos[p], {pos[i]: c for i, c in row.items()}) for p, row in base.echelon.rows)
        sub.echelon = Echelon.from_reduced(rows)
        return sub
    target = dim_irrep(lam)
    for t in pseudo_tableaux(lam, n):
        if any(col != tuple(sorted(col)) for col in t.columns() if len(col) > 1):
            continue
        sub.echelon.insert(index.encode(polytabloid(t)))
        if sub.dim == target:
            break
    return sub


def tabloid_counts(lam: Partition, n: int):
    """Yield running counts of the pseudo-tabloids of shape lam in ambient n:
    0 alone when |lam| > n, else 1 and then the running product of the
    binomials C(n - lam_1 - ... - lam_{i-1}, lam_i), each built up from its
    smaller side one factor at a time.  The values strictly increase and the
    last is the count, so a caller that compares with a bound can stop at
    the first value past it without forming a large binomial."""
    if sum(lam) > n:
        yield 0
        return
    count = 1
    yield count
    for part in lam:
        for j in range(min(part, n - part)):
            # count * C(n, j) * (n - j) = count * (j + 1) * C(n, j + 1)
            count = count * (n - j) // (j + 1)
            yield count
        n -= part


def tabloid_module_dim(lam: Partition, n: int) -> int:
    """The number of pseudo-tabloids of shape lam in ambient n: 0 when
    |lam| > n, else n! / (lam_1! ... lam_l! (n - |lam|)!), the last of the
    tabloid_counts, so no factorial of |lam| is taken."""
    count = 0
    for count in tabloid_counts(lam, n):
        pass
    return count


def iota(v: Vec) -> Vec:
    """Reinterpret every basis tabloid one ambient level up (coefficientwise)."""
    return {PseudoTabloid(t.n + 1, t.rows): c for t, c in v.items()}


def _added_per_row(lam: Partition, mu: Partition) -> list[int]:
    """m_i: the number of boxes of Y_mu/Y_lam in row i, for every row of mu."""
    per_row = [0] * len(mu)
    for i, _ in added_boxes(lam, mu):
        per_row[i] += 1
    return per_row


def pi_mu(v: Vec, mu: Partition, lam: Partition, n: int) -> Vec:
    """Fill the boxes of Y_mu/Y_lam by the complement of the support, all ways.

    S_n-equivariant map I_n(M^lam) -> M^mu, defined on each tabloid through
    its canonical representative.  A filled tabloid depends only on the row
    each label lands in, so the sum runs over the splits of the complement
    into rows of m_i labels (deal_table), each split standing for its
    prod m_i! fillings (good_bijection_count).
    """
    sizes = tuple(_added_per_row(lam, mu))
    fillings = good_bijection_count(mu, lam)
    acc: dict = {}
    for t, c in v.items():
        complement = sorted(set(range(1, n + 1)) - t.supp())
        if len(complement) != sum(sizes):
            raise ValueError("pi_mu: |mu| must equal the ambient n")
        base = t.rows + ((),) * (len(mu) - len(t.rows))
        term = c * fillings
        label = complement.__getitem__
        for groups in deal_table(len(complement), sizes):
            rows = tuple(
                tuple(sorted(row + tuple(map(label, group))))
                for row, group in zip(base, groups)
            )
            acc[rows] = acc.get(rows, 0) + term
    return _tabloid_vec(acc, n)


def w_element(t: PseudoTableau, lam: Partition) -> Vec:
    """w_T: signed sum over ColStab(T) of the stripped tabloids (ValueError
    unless shape(T)/lam is a horizontal strip)."""
    added_boxes(lam, t.shape)
    return _tabloid_vec(_column_sum(_flat(t), t.shape, lam), t.n)


class ClaimsReport(Record):
    """Per-mu entries (dicts) and failures of verify_claims or
    monotonicity_witness; each omitted list starts empty."""

    _fields = ("lam", "n", "entries", "failures")

    def __init__(self, lam: Partition, n: int, entries: list | None = None, failures: list | None = None):
        self.lam = lam
        self.n = n
        self.entries = [] if entries is None else entries
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return not self.failures


# the largest n that verify_claims and monotonicity_witness accept
MAX_VERIFY_N = 8


def check_claims_level(n: int) -> None:
    """verify_claims is capped at MAX_VERIFY_N; the CLI refuses before building."""
    if n > MAX_VERIFY_N:
        raise ValueError(f"verify_claims capped at n = {MAX_VERIFY_N}")


def verify_claims(lam: Partition, n: int) -> ClaimsReport:
    """Verify the structural facts about w_T for every mu that lam leads to
    at level n, using the row-major generating tableau: membership in the
    polytabloid span, proportionality of pi_mu(w_T) to v_T with a positive
    constant, vanishing of pi_nu(w_T) above mu, the rewriting identity with
    constant |ColStab(stripped T)|, and cancellation of the bad-bijection
    signed sums.
    """
    check_claims_level(n)
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
        # sum over sigma of sgn(sigma) v_{strip(sigma T)}: the polytabloid
        # sum of each stripped tableau, read off its row-major labels
        labels = _flat(t_mu)
        cuts = _cuts(mu, lam)
        acc: dict = {}
        for p, sgn in column_group(mu):
            moved = [labels[i] for i in p]
            _column_sum([x for a, b in cuts for x in moved[a:b]], lam, lam, sgn, acc)
        rhs = _tabloid_vec(acc, n)
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
    out = 1
    for m in _added_per_row(lam, mu):
        out *= factorial(m)
    return out


def _bad_bijections_vanish(t_mu, lam, mu, targets, report) -> bool:
    """For every nu >= mu and every bijection g of B_mu onto B_nu other than
    the row-preserving ones (nu = mu), the signed sum over ColStab(T) of
    {T_g} vanishes, T_g moving the entry of each box of B_mu to its image.

    {T_g} depends only on the row map of g, the row of B_nu each box of B_mu
    is sent to, so each sum is taken once per row map.  The bijections are
    enumerated only when some row map's sum does not vanish, to list each
    failing bijection in the order of permutations(B_nu).
    """
    boxes_mu = added_boxes(lam, mu)
    home = tuple(i for i, _ in boxes_mu)
    # per element of ColStab(T): the labels left in Y_lam, row by row (and an
    # empty row below, since nu has at most one row more than lam), the
    # labels of B_mu, and the sign
    labels = _flat(t_mu)
    starts = [end - part for part, end in zip(mu, accumulate(mu))]
    kept_cuts = _cuts(mu, lam)
    moving_at = [starts[i] + j for i, j in boxes_mu]
    acted = []
    for p, sgn in column_group(mu):
        moved = [labels[i] for i in p]
        kept = tuple(tuple(moved[a:b]) for a, b in kept_cuts) + ((),)
        acted.append((kept, [moved[i] for i in moving_at], sgn))
    ok = True
    for nu in targets:
        if lex_compare(nu, mu) < 0:
            continue
        failed = set()
        for groups in deal_table(len(boxes_mu), tuple(_added_per_row(lam, nu))):
            row_map = [0] * len(boxes_mu)
            for i, group in enumerate(groups):
                for k in group:
                    row_map[k] = i
            row_map = tuple(row_map)
            if nu == mu and row_map == home:
                continue
            total: dict = {}
            for kept, moving, sgn in acted:
                rows = tuple(
                    tuple(sorted(row + tuple(map(moving.__getitem__, group))))
                    for row, group in zip(kept, groups)
                )
                total[rows] = total.get(rows, 0) + sgn
            if any(total.values()):
                failed.add(row_map)
        if failed:
            ok = False
            for assignment in permutations(added_boxes(lam, nu)):
                if tuple(i for i, _ in assignment) in failed:
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
    return sub.isotypic(sub.decompose().counts, [mu])[mu]


def sn_span(seeds: list[Vec], n: int) -> Rep:
    """Closure of the span of the seeds under the S_n action on tabloids, on
    the tabloid_index of their one shape (ValueError unless the seeds'
    tabloids have exactly one shape)."""
    shapes = {t.shape for v in seeds for t in v}
    if len(shapes) != 1:
        raise ValueError(f"sn_span needs seeds of one shape, got {sorted(shapes)}")
    return Rep(n, tabloid_index(shapes.pop(), n)).sn_span(seeds)


def monotonicity_witness(lam: Partition, n: int) -> ClaimsReport:
    """For each mu in leadsto(lam, n): take a vector w of the V_mu isotypic
    piece W of I_n(V_lam), push it through iota, and confirm that its
    S_{n+1}-span contains V_{mu{n+1}}.

    The decompositions of I_n(V_lam) and I_{n+1}(V_lam) are read off their
    traces.  By Pieri's rule the first holds each V_mu of leadsto(lam, n)
    once; component_dim is m_mu f^mu, and an isotypic_dim failure is
    recorded unless it is f^mu and Rep.weight_vectors finds a weight vector
    w of the row-reading tableau of mu.  W is then irreducible, the S_n-span
    of w, and iota is S_n-equivariant, so span(S_{n+1} . iota(W)) =
    span(S_{n+1} . iota(w)).  Rep.span_multiplicities reads which
    constituents that span holds off the projections of iota(w) by the last
    Jucys-Murphy element onto the constituents mu + box (every other one has
    multiplicity 0), and span_dim sums their dimensions; what its guard finds
    is a "branching" failure.  No isotypic basis is computed and no span is
    closed.
    """
    if n > MAX_VERIFY_N:
        raise ValueError(f"monotonicity_witness capped at n = {MAX_VERIFY_N}")
    report = ClaimsReport(lam, n)
    sub = specht_module(lam, n)
    sub_counts = sub.decompose().counts
    level = specht_module(lam, n + 1)
    counts = level.decompose().counts
    for mu in leadsto(lam, n):
        w = sub.weight_vectors(mu, min(sub_counts.get(mu, 0), 1))
        component_dim = sub_counts.get(mu, 0) * dim_irrep(mu)
        entry = {"mu": mu, "component_dim": component_dim}
        if component_dim != dim_irrep(mu) or not w:
            report.failures.append((mu, "isotypic_dim", component_dim))
        mults, faults = level.span_multiplicities({mu: [iota(v) for v in w]}, counts)
        report.failures.extend((mu, "branching", fault) for fault in faults)
        target = curly_pad(mu)
        entry["target"] = target
        entry["target_multiplicity"] = mults.get(target, 0)
        entry["span_dim"] = sum(m * dim_irrep(nu) for nu, m in mults.items())
        if entry["target_multiplicity"] < 1:
            report.failures.append((mu, "span_missing_target", target))
        report.entries.append(entry)
    return report
