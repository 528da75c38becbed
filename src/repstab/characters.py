"""Exact character theory of S_n: the oracle every other module decomposes against.

The character table of S_n is built once per n, column by column, on an
abacus of n beads, and held in a bounded cache: decompose reads its
multiplicities off the rows as integer dot products with the class-size
weighted values, divided by n!.  Single entries and single rows
(mn_character, irreducible_character, young_invariants_dim) stay on the
Murnaghan-Nakayama recursion on beta sets, memoized per (shape, cycle type),
since one row at large n costs far less than the whole table; the recursion
is the cross-check of the table.  A non-integral or negative multiplicity
raises NotACharacter instead of silently rounding.

The same module reads characters off explicit representations, as traces
from the pivots of a reduced echelon basis (explicit_character, behind
rep.Rep.character); the decompositions it returns are the multiplicities
that rep.Rep's Gelfand-Tsetlin weight vectors are counted against.

ClassFunction and MultiplicityVector are frozen value types
(_record.Frozen): equal when their fields are, and a ClassFunction hashes
as (n, values), so it can key a cache.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from operator import mul
from types import MappingProxyType

from ._record import Frozen
from .linalg import Echelon
from .partitions import (
    Partition,
    check_partition,
    dim_irrep,
    leadsto,
    pad,
    partitions_of,
)
from .perms import class_representative, class_size, generators, inverse


_set = object.__setattr__


class NotACharacter(Exception):
    """Decomposition produced a negative or fractional multiplicity."""


class ClassFunction(Frozen):
    """ClassFunction(n, values): an exact class function on S_n, stored as
    values per cycle type, aligned with partitions_of(n)."""

    __slots__ = _fields = ("n", "values")

    def __init__(self, n: int, values: tuple):
        _set(self, "n", n)
        _set(self, "values", values)

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


class MultiplicityVector(Frozen):
    """MultiplicityVector(n, counts): nonnegative integer multiplicities per
    partition of n; zero entries omitted.  Unhashable, as counts is a dict."""

    __slots__ = _fields = ("n", "counts")

    def __init__(self, n: int, counts: dict):
        for lam, c in counts.items():
            if c < 0 or (isinstance(c, Fraction) and c.denominator != 1):
                raise NotACharacter(f"multiplicity of {lam} is {c}")
        _set(self, "n", n)
        _set(self, "counts", counts)

    def __getitem__(self, lam: Partition) -> int:
        return self.counts.get(lam, 0)

    def total_dim(self) -> int:
        return sum(c * dim_irrep(lam) for lam, c in self.counts.items())

    def items(self):
        return sorted(self.counts.items(), reverse=True)


# bounded: one gate-session pass asks for ~20 classes
@lru_cache(maxsize=4096)
def _class_index(n: int, rho: Partition) -> int:
    return partitions_of(n).index(rho)


def _beta_set(lam: Partition) -> tuple[int, ...]:
    """First-column hook lengths: distinct descending beta numbers."""
    ell = len(lam)
    return tuple(lam[i] + ell - 1 - i for i in range(ell))


@lru_cache(maxsize=1 << 15)
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


@lru_cache(maxsize=16)
def _abacus_table(n: int) -> tuple[tuple[int, ...], ...]:
    """The rows chi^lam of S_n, lam in partitions_of(n), each aligned with
    partitions_of(n).

    Column rho is the Schur expansion of p_rho = p_{rho_1} p_tail, built from
    the expansion of rho's tail (memoized per tail) on an abacus of n beads:
    a partition mu of m <= n is the bitmask of its beta numbers
    mu_i + n - i, i = 1..n, and p_r s_mu moves one bead from b to an empty
    b + r, with sign (-1)^(beads strictly between b and b + r).
    """
    expansions = {(): {(1 << n) - 1: 1}}

    def expansion(rho: Partition) -> dict:
        got = expansions.get(rho)
        if got is None:
            r = rho[0]
            between = (1 << (r - 1)) - 1
            got = {}
            for mask, c in expansion(rho[1:]).items():
                for b in range(mask.bit_length()):
                    if mask >> b & 1 and not mask >> (b + r) & 1:
                        moved = mask ^ (1 << b) ^ (1 << (b + r))
                        sign = -c if (mask >> (b + 1) & between).bit_count() & 1 else c
                        got[moved] = got.get(moved, 0) + sign
            expansions[rho] = got
        return got

    parts = partitions_of(n)
    masks = [
        sum(1 << (part + n - 1 - i) for i, part in enumerate(lam)) | ((1 << (n - len(lam))) - 1)
        for lam in parts
    ]
    columns = [[expansion(rho).get(mask, 0) for mask in masks] for rho in parts]
    return tuple(zip(*columns))


def character_table(n: int):
    """All chi^lam(rho) for lam, rho of n, as a read-only {(lam, rho): int}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > 12:
        raise ValueError("character_table capped at n = 12")
    parts = partitions_of(n)
    return MappingProxyType(
        {(lam, rho): v for lam, row in zip(parts, _abacus_table(n)) for rho, v in zip(parts, row)}
    )


def trivial_character(n: int) -> ClassFunction:
    return ClassFunction(n, tuple(1 for _ in partitions_of(n)))


def decompose(chi: ClassFunction) -> MultiplicityVector:
    """Inner products with every row of the character table; loud failure off
    the character cone."""
    n = chi.n
    parts = partitions_of(n)
    order = factorial(n)
    weighted = [
        class_size(rho) * (v.numerator if type(v) is Fraction and v.denominator == 1 else v)
        for rho, v in zip(parts, chi.values)
    ]
    counts = {}
    for lam, row in zip(parts, _abacus_table(n)):
        total = sum(map(mul, row, weighted))
        mult = Fraction(total, order) if total % order else total // order
        if mult < 0 or type(mult) is Fraction:
            raise NotACharacter(f"<chi, chi^{lam}> = {mult}")
        if mult:
            counts[lam] = mult
    mv = MultiplicityVector(n, counts)
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


# bounded: one gate-session pass asks for 42 (n, blocks)
@lru_cache(maxsize=1024)
def young_permutation_character(n: int, blocks: tuple[int, ...]) -> ClassFunction:
    """Character of the S_n action on cosets of S_b1 x S_b2 x ... (sum bi = n),
    zero blocks allowed: the trivial character of S_b1 induced up one block
    at a time, Ind from S_(b1+...+bj) x S_b(j+1) of (chi boxtimes trivial)."""
    if sum(blocks) != n or any(b < 0 for b in blocks):
        raise ValueError(f"blocks {blocks} do not sum to {n}")
    chi = trivial_character(0)
    for b in blocks:
        if b:
            chi = induced_character(chi, chi.n + b)
    return chi


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


def explicit_character(ech: Echelon, n: int, act, table=None) -> ClassFunction:
    """Character of S_n on the span of a reduced echelon basis.

    The span is checked to be invariant under the generators of S_n, hence
    under all of S_n.  An in-span vector w then has coordinate
    w[pivot_i] / a_i on the echelon's integer row i, whose pivot entry is a_i,
    since every other row vanishes at that pivot; so each trace is a sum of
    pivot entries and needs no further reduction.  The identity's trace is
    the number of rows, read without acting.

    table(sigma), given for an action that permutes integer positions by an
    index table with no modulus to reduce by, gives (g . row)[pivot] =
    row[table(g^-1)[pivot]], so the traces act on no row.
    """
    for g in generators(n):
        for _, row in ech.rows:
            if ech.reduce(act(g, row)):
                raise ValueError("span is not invariant under the action")
    if not ech.rows:
        return ClassFunction(n, tuple(0 for _ in partitions_of(n)))
    # one Fraction per class: the entries add up as ints over the common
    # denominator of the pivot entries
    den = lcm(*(row[pivot] for pivot, row in ech.rows))
    scales = [den // row[pivot] for pivot, row in ech.rows]
    values = []
    for rho in partitions_of(n):
        if rho == (1,) * n:
            # the identity: one per row, a Fraction as the other classes give
            values.append(Fraction(ech.dim))
            continue
        g = class_representative(rho, n)
        if table is None:
            entries = (act(g, row).get(pivot, 0) for pivot, row in ech.rows)
        else:
            back = table(inverse(g))
            entries = (row.get(back[pivot], 0) for pivot, row in ech.rows)
        values.append(Fraction(sum(map(mul, entries, scales)), den))
    return ClassFunction(n, tuple(values))


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
