"""Exact character theory of S_n: the oracle every other module decomposes against.

Irreducible characters are evaluated by the Murnaghan-Nakayama rule on beta
sets, memoized per (shape, cycle type).  All inner products are exact
rationals; a non-integral or negative multiplicity raises NotACharacter
instead of silently rounding.

The same module reads characters and isotypic components off explicit
representations: traces from the pivots of a reduced echelon basis, and
isotypic components as joint eigenspaces of the Jucys-Murphy power sums.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial

from .linalg import Echelon, add_into, kernel_basis
from .partitions import (
    Partition,
    check_partition,
    contents,
    dim_irrep,
    leadsto,
    pad,
    partitions_of,
)
from .perms import class_representative, class_size, from_cycles, generators


class NotACharacter(Exception):
    """Decomposition produced a negative or fractional multiplicity."""


@dataclass(frozen=True)
class ClassFunction:
    """Exact class function on S_n, stored as values per cycle type."""

    n: int
    values: tuple  # aligned with partitions_of(n)

    @property
    def classes(self) -> tuple[Partition, ...]:
        return partitions_of(self.n)

    def value(self, rho: Partition):
        return self.values[_class_index(self.n, rho)]

    def degree(self):
        """Value at the identity (cycle type (1^n))."""
        return self.value((1,) * self.n)

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        if self.n != other.n:
            raise ValueError("class functions on different groups")
        return ClassFunction(self.n, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        if self.n != other.n:
            raise ValueError("class functions on different groups")
        return ClassFunction(self.n, tuple(a - b for a, b in zip(self.values, other.values)))

    def __mul__(self, scalar) -> "ClassFunction":
        return ClassFunction(self.n, tuple(v * scalar for v in self.values))

    def inner(self, other: "ClassFunction") -> Fraction:
        """<self, other> = (1/n!) sum over classes of |class| * product."""
        if self.n != other.n:
            raise ValueError("class functions on different groups")
        total = sum(
            class_size(rho) * a * b
            for rho, a, b in zip(self.classes, self.values, other.values)
        )
        return Fraction(total, factorial(self.n))


@dataclass(frozen=True)
class MultiplicityVector:
    """Nonnegative integer multiplicities per partition of n; zero entries omitted."""

    n: int
    counts: dict

    def __post_init__(self):
        for lam, c in self.counts.items():
            if c < 0 or (isinstance(c, Fraction) and c.denominator != 1):
                raise NotACharacter(f"multiplicity of {lam} is {c}")

    def __getitem__(self, lam: Partition) -> int:
        return self.counts.get(lam, 0)

    def total_dim(self) -> int:
        return sum(c * dim_irrep(lam) for lam, c in self.counts.items())

    def items(self):
        return sorted(self.counts.items(), reverse=True)


@cache
def _class_index(n: int, rho: Partition) -> int:
    return partitions_of(n).index(rho)


def _beta_set(lam: Partition) -> tuple[int, ...]:
    """First-column hook lengths: distinct descending beta numbers."""
    ell = len(lam)
    return tuple(lam[i] + ell - 1 - i for i in range(ell))


@cache
def mn_character(lam: Partition, rho: Partition):
    """chi^lam(rho) by Murnaghan-Nakayama: strip a rho_1 rim hook from lam.

    Rim hooks of length t correspond to beta numbers b with b-t >= 0 not in
    the beta set; the leg height is the number of beta numbers strictly
    between b-t and b.
    """
    if sum(lam) != sum(rho):
        raise ValueError("shape and cycle type have different sizes")
    if not lam:
        return 1
    t = rho[0]
    rest = rho[1:]
    beta = _beta_set(lam)
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - t
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((beta_set - {b}) | {nb}, reverse=True)
        new_lam = tuple(v - (len(new_beta) - 1 - i) for i, v in enumerate(new_beta))
        new_lam = tuple(x for x in new_lam if x > 0)
        total += (-1) ** height * mn_character(new_lam, rest)
    return total


def irreducible_character(lam: Partition) -> ClassFunction:
    check_partition(lam)
    n = sum(lam)
    return ClassFunction(n, tuple(mn_character(lam, rho) for rho in partitions_of(n)))


@cache
def character_table(n: int):
    """All chi^lam(rho) for lam, rho of n, as {(lam, rho): int}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > 12:
        raise ValueError("character_table capped at n = 12")
    table = {}
    for lam in partitions_of(n):
        for rho in partitions_of(n):
            table[(lam, rho)] = mn_character(lam, rho)
    return table


def trivial_character(n: int) -> ClassFunction:
    return ClassFunction(n, tuple(1 for _ in partitions_of(n)))


def decompose(chi: ClassFunction) -> MultiplicityVector:
    """Inner products with every irreducible; loud failure off the character cone."""
    counts = {}
    for lam in partitions_of(chi.n):
        mult = chi.inner(irreducible_character(lam))
        if mult.denominator != 1 or mult < 0:
            raise NotACharacter(f"<chi, chi^{lam}> = {mult}")
        if mult:
            counts[lam] = int(mult)
    mv = MultiplicityVector(chi.n, counts)
    if mv.total_dim() != chi.degree():
        raise NotACharacter("degree mismatch after decomposition")
    return mv


def _splittings(rho: Partition, k: int):
    """Multiset splittings of rho into (alpha of k, beta of n-k) with binomial weight.

    Yields (alpha, weight) where weight = prod_v C(mult_v, chosen_v); this is
    z_rho / (z_alpha z_beta) for the Frobenius induction formula.
    """
    values = sorted(set(rho), reverse=True)
    mults = [sum(1 for x in rho if x == v) for v in values]

    def rec(i: int, remaining: int, chosen: tuple, weight: int):
        if i == len(values):
            if remaining == 0:
                alpha = []
                for v, c in zip(values, chosen):
                    alpha.extend([v] * c)
                yield tuple(sorted(alpha, reverse=True)), weight
            return
        v, m = values[i], mults[i]
        for j in range(min(m, remaining // v) + 1):
            yield from rec(i + 1, remaining - j * v, chosen + (j,), weight * comb(m, j))

    yield from rec(0, k, (), 1)


def induced_character(chi: ClassFunction, n: int) -> ClassFunction:
    """Character of Ind from S_k x S_{n-k} of (chi boxtimes trivial)."""
    k = chi.n
    if n < k:
        raise ValueError(f"cannot induce from S_{k} to S_{n}")
    values = []
    for rho in partitions_of(n):
        total = 0
        for alpha, weight in _splittings(rho, k):
            total += weight * chi.value(alpha)
        values.append(total)
    return ClassFunction(n, tuple(values))


def young_permutation_character(n: int, blocks: tuple[int, ...]) -> ClassFunction:
    """Character of the S_n action on cosets of S_b1 x S_b2 x ... (sum bi = n)."""
    if sum(blocks) != n or any(b < 0 for b in blocks):
        raise ValueError(f"blocks {blocks} do not sum to {n}")
    blocks = tuple(b for b in blocks if b > 0)
    values = []
    for rho in partitions_of(n):
        values.append(_young_value(rho, blocks))
    return ClassFunction(n, tuple(values))


@cache
def _young_value(rho: Partition, blocks: tuple[int, ...]):
    if not blocks:
        return 1 if not rho else 0
    total = 0
    for alpha, weight in _splittings(rho, blocks[0]):
        beta = list(rho)
        for part in alpha:
            beta.remove(part)
        total += weight * _young_value(tuple(beta), blocks[1:])
    return total


def young_invariants_dim(lam: Partition, mu: Partition) -> int:
    """Dimension of the S_mu1 x ... x S_muk x S_{n-|mu|} invariants of V_lam.

    Computed by Frobenius reciprocity as the multiplicity of chi^lam in the
    Young permutation character.
    """
    n = sum(lam)
    if sum(mu) > n:
        raise ValueError(f"|mu| = {sum(mu)} exceeds n = {n}")
    blocks = tuple(mu) + ((n - sum(mu),) if n > sum(mu) else ())
    perm_chi = young_permutation_character(n, blocks)
    mult = perm_chi.inner(irreducible_character(lam))
    if mult.denominator != 1:
        raise NotACharacter(f"invariant dimension {mult} not integral")
    return int(mult)


def count_partition_chains(lam: Partition, mu: Partition, n: int) -> int:
    """Chains (n-|mu|) = nu^0 ~> nu^1 ~> ... ~> nu^k = lam[n] adding mu_i boxes.

    Equals young_invariants_dim(pad(lam, n), mu) by reciprocity plus iterated
    branching; the equality is a test, not an assumption.
    """
    target = pad(lam, n)  # raises if lam[n] undefined
    if n < sum(mu):
        raise ValueError(f"need n >= |mu| = {sum(mu)}")
    level: dict[Partition, int] = {(n - sum(mu),) if n > sum(mu) else (): 1}
    for part in mu:
        nxt: dict[Partition, int] = {}
        for nu, ways in level.items():
            for nu2 in leadsto(nu, sum(nu) + part):
                nxt[nu2] = nxt.get(nu2, 0) + ways
        level = nxt
    return level.get(target, 0)


# ---------------------------------------------------------------------------
# explicit representations: an action act(sigma, v) on sparse vectors


def explicit_character(ech: Echelon, n: int, act) -> ClassFunction:
    """Character of S_n on the span of a reduced echelon basis.

    The span is checked to be invariant under the generators of S_n, hence
    under all of S_n.  An in-span vector w then has coordinate
    w[pivot_i] / a_i on the echelon's integer row i, whose pivot entry is a_i,
    since every other row vanishes at that pivot; so each trace is a sum of
    pivot entries and needs no further reduction.
    """
    for g in generators(n):
        for _, row in ech.rows:
            if ech.reduce(act(g, row)):
                raise ValueError("span is not invariant under the action")
    values = []
    for rho in partitions_of(n):
        g = class_representative(rho, n)
        values.append(
            sum(Fraction(act(g, row).get(pivot, 0), row[pivot]) for pivot, row in ech.rows)
        )
    return ClassFunction(n, tuple(values))


def content_power_sums(lam: Partition, k: int) -> tuple[int, ...]:
    """p_1..p_k of the contents of lam: the scalars by which the Jucys-Murphy
    power sums p_j(J_1, ..., J_n) act on V_lam."""
    cs = contents(lam)
    return tuple(sum(c**j for c in cs) for j in range(1, k + 1))


@cache
def separating_degree(mu: Partition) -> int:
    """Least k such that the content power sums p_1..p_k of mu differ from
    those of every other partition of |mu|."""
    others = [nu for nu in partitions_of(sum(mu)) if nu != mu]
    k = 1
    while any(content_power_sums(nu, k) == content_power_sums(mu, k) for nu in others):
        k += 1
    return k


def central_isotypic(ech: Echelon, mu: Partition, n: int, act) -> list[dict]:
    """Reduced echelon basis of the V_mu-isotypic part of an invariant span,
    given by its reduced echelon basis.

    The Jucys-Murphy elements J_i = sum_{a<i} (a i) commute, and their power
    sums p_j(J) are central, acting on V_nu by content_power_sums(nu).  By
    semisimplicity the V_mu-isotypic part is the joint kernel of
    p_j(J) - p_j(contents(mu)) for j up to separating_degree(mu); each p_j(J)
    costs O(j n^2) transposition actions per vector.  The image of the
    echelon's integer row b_i has coordinate w[pivot_k] / a_k on row b_k; the
    stacked relations scale column k by a_k, which keeps them integral and
    leaves the kernel, a set of combinations of the rows b_i, unchanged.
    """
    k = separating_degree(mu)
    scalars = content_power_sums(mu, k)
    pivots = ech.pivots()
    jm = [[from_cycles(n, [(a, i)]) for a in range(1, i)] for i in range(2, n + 1)]
    stacked = []
    for pivot, b in ech.rows:
        powers = [{} for _ in scalars]  # pivot entries of p_j(J) b
        for taus in jm:
            v = b
            for power in powers:
                image: dict = {}
                for tau in taus:
                    add_into(image, act(tau, v))
                v = image
                add_into(power, {p: v[p] for p in pivots if p in v})
        row: dict = {}
        for j, (power, c) in enumerate(zip(powers, scalars)):
            add_into(row, {(j, p): x for p, x in power.items()})
            add_into(row, {(j, pivot): -c * b[pivot]})
        stacked.append(row)
    return Echelon(kernel_basis(stacked, [b for _, b in ech.rows])).basis()


def format_table(n: int) -> str:
    """Plain-text character table: rows lam, columns cycle types."""
    parts = partitions_of(n)
    table = character_table(n)
    from .partitions import format_partition

    header = ["lam\\rho"] + [format_partition(rho) for rho in parts]
    rows = [header]
    for lam in parts:
        rows.append([format_partition(lam)] + [str(table[(lam, rho)]) for rho in parts])
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows]
    return "\n".join(lines)
