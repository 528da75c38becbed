"""The second page of the Leray spectral sequence for C_n(M) in M^n.

Explicit backend: basis keys are pairs (mono, word) where mono is a
normal-form generator monomial on {1..n} (a forest; one copy of the
top class of each connected block) and word assigns one cohomology class of
M to each block of the forest, blocks ordered by minimum.  The module
relation that identifies the two point-pullbacks along an edge is built into
this basis.  The differential sends an edge generator to the diagonal class
of its two endpoints and extends as a graded derivation; Koszul signs follow
one rule: a transposition of adjacent odd-degree factors contributes -1.

Character backend: cell characters are assembled independently, from
sigma-fixed set partitions, the top characters of the Euclidean blocks, and
a graded trace over cyclic block-orbits.  Agreement of the two backends is a
test, not an assumption.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations

from .arnold import act_monomial, all_monomials, top_character
from .characters import ClassFunction, induced_character
from .linalg import Echelon, add_into, kernel_basis, span_dim
from .manifolds import ManifoldDescriptor
from .partitions import Partition, angle_pad, make_partition, partitions_of
from .perms import Perm, class_representative, compose, generators, identity
from .rep import Rep

Monomial = tuple[tuple[int, int], ...]
Key = tuple[Monomial, tuple[int, ...]]


class BudgetExceeded(Exception):
    pass


class MissingDiagonal(Exception):
    pass


class NotComputable(Exception):
    pass


@cache
def blocks_of(mono: Monomial, n: int) -> tuple[tuple[int, ...], ...]:
    """Connected components of the edge graph, singletons included, by min."""
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in mono:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
    for x in range(1, n + 1):
        groups.setdefault(find(x), []).append(x)
    return tuple(tuple(sorted(v)) for _, v in sorted(groups.items()))


def _sort_sign(entries: list[tuple[int, int]]) -> int:
    """Koszul sign for sorting (position_key, degree) pairs by position key."""
    sign = 1
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            if entries[i][0] > entries[j][0] and entries[i][1] % 2 and entries[j][1] % 2:
                sign = -sign
    return sign


class E2Page:
    """Explicit cells, action, and differential for one (M, n)."""

    def __init__(self, desc: ManifoldDescriptor, n: int, budget: int = 200_000):
        self.desc = desc
        self.n = n
        self.cells: dict[tuple[int, int], list[Key]] = {}
        total = 0
        for mono in all_monomials(n):
            blocks = blocks_of(mono, n)
            q = len(mono)
            words = [()]
            for _ in blocks:
                words = [w + (c,) for w in words for c in range(desc.dim_total)]
            for word in words:
                p = sum(desc.degrees[c] for c in word)
                self.cells.setdefault((p, q), []).append((mono, word))
                total += 1
                if total > budget:
                    raise BudgetExceeded(
                        f"E2 page for n={n} exceeds the {budget}-element budget"
                    )
        self.total_dim = total
        self._ranks: dict[tuple[int, int], int] = {}
        self._cohomology: dict[tuple[int, int], int] | None = None

    # -- grading helpers ---------------------------------------------------

    def cell(self, p: int, q: int) -> list[Key]:
        return self.cells.get((p, q), [])

    def cell_dims(self) -> dict[tuple[int, int], int]:
        """Dims keyed by (p, q(d-1)): the bigrading of the spectral sequence."""
        d = self.desc.d
        return {(p, q * (d - 1)): len(keys) for (p, q), keys in self.cells.items()}

    def total_degree(self, p: int, q: int) -> int:
        return p + q * (self.desc.d - 1)

    # -- the S_n action ----------------------------------------------------

    def act_key(self, sigma: Perm, key: Key) -> dict[Key, int]:
        mono, word = key
        d = self.desc.d
        relabeled = act_monomial(sigma, mono, d)
        old_blocks = blocks_of(mono, self.n)
        entries = []
        for blk, cls in zip(old_blocks, word):
            new_min = min(sigma[x - 1] for x in blk)
            entries.append((new_min, self.desc.degrees[cls], cls))
        koszul = _sort_sign([(e[0], e[1]) for e in entries])
        new_word = tuple(cls for _, _, cls in sorted(entries, key=lambda e: e[0]))
        return {(m2, new_word): s * koszul for m2, s in relabeled.items()}

    def act_vec(self, sigma: Perm, v: dict) -> dict:
        out: dict = {}
        for key, c in v.items():
            for key2, coeff in self.act_key(sigma, key).items():
                add_into(out, {key2: coeff * c})
        return out

    def orbit_average(self, key: Key) -> dict[Key, Fraction]:
        """(1/n!) * sum of sigma.key over S_n, for a key that every sigma sends to +-key.

        Walks the signed orbit breadth-first under the generators of S_n.  A
        key reached with both signs is fixed by some sigma acting by -1, so
        the average vanishes; otherwise every orbit point is reached n!/|orbit|
        times with one sign, and the average is the signed orbit sum over
        |orbit|.  Disjoint-pair keys are always acted on this way.
        """
        gens = generators(self.n)
        signs = {key: 1}
        queue = [key]
        for current in queue:
            for g in gens:
                image = self.act_key(g, current)
                if len(image) != 1:
                    raise AssertionError(f"S_{self.n} does not act monomially on {current}")
                [(target, s)] = image.items()
                s *= signs[current]
                seen = signs.get(target)
                if seen is None:
                    signs[target] = s
                    queue.append(target)
                elif seen != s:
                    return {}
        weight = Fraction(1, len(signs))
        return {k: s * weight for k, s in signs.items()}

    # -- the differential ----------------------------------------------------

    def diff_key(self, key: Key) -> dict[Key, int | Fraction]:
        if self.desc.diagonal is None:
            raise MissingDiagonal(f"{self.desc.name} has no diagonal class")
        mono, word = key
        desc = self.desc
        d = desc.d
        out: dict[Key, int | Fraction] = {}
        old_blocks = blocks_of(mono, self.n)
        for i, (a, b) in enumerate(mono):
            sign_i = (-1) ** ((d - 1) * i)
            mono2 = mono[:i] + mono[i + 1:]
            new_blocks = blocks_of(mono2, self.n)
            split_at = next(t for t, blk in enumerate(old_blocks) if a in blk)
            x_cls = word[split_at]
            blk_a = next(blk for blk in new_blocks if a in blk)
            blk_b = next(blk for blk in new_blocks if b in blk)
            # ordered factor list: old order with the split block expanded
            factors = []  # (block_min, class) in pre-sort order
            for t, blk in enumerate(old_blocks):
                if t == split_at:
                    factors.append([min(blk_a), x_cls])
                    factors.append([min(blk_b), desc.unit])
                else:
                    factors.append([blk[0], word[t]])
            pos_a, pos_b = split_at, split_at + 1
            pre_a = sum(desc.degrees[factors[t][1]] for t in range(pos_a))
            pre_b = pre_a + desc.degrees[x_cls]
            for (e1, e2, coef) in desc.diagonal:
                sign_b = (-1) ** (desc.degrees[e2] * pre_b)
                sign_a = (-1) ** (desc.degrees[e1] * pre_a)
                products = desc.product(e1, x_cls)
                if not products:
                    continue
                for k_cls, k_coef in products.items():
                    final = [list(f) for f in factors]
                    final[pos_a][1] = k_cls
                    final[pos_b][1] = e2
                    entries = [(f[0], desc.degrees[f[1]]) for f in final]
                    koszul = _sort_sign(entries)
                    new_word = tuple(
                        cls for _, cls in sorted(
                            ((f[0], f[1]) for f in final), key=lambda e: e[0]
                        )
                    )
                    total = sign_i * coef * sign_b * sign_a * koszul * k_coef
                    add_into(out, {(mono2, new_word): total})
        return out

    def diff_vec(self, v: dict) -> dict:
        out: dict = {}
        for key, c in v.items():
            add_into(out, self.diff_key(key), c)
        return out

    # -- ranks and cohomology ------------------------------------------------

    def differential_rank(self, p: int, q: int) -> int:
        """Rank of d out of cell (p, q); computed once per cell."""
        if (p, q) not in self._ranks:
            self._ranks[(p, q)] = span_dim([self.diff_key(key) for key in self.cell(p, q)])
        return self._ranks[(p, q)]

    def check_d_squared(self) -> bool:
        for keys in self.cells.values():
            for key in keys:
                if self.diff_vec(self.diff_key(key)):
                    return False
        return True

    def cohomology_dims(self) -> dict[tuple[int, int], int]:
        """E3 = Einfty cell dimensions, keyed by (p, q(d-1)); computed once per page."""
        if self._cohomology is None:
            d = self.desc.d
            self._cohomology = {
                (p, q * (d - 1)): len(keys)
                - self.differential_rank(p, q)
                - self.differential_rank(p - d, q + 1)
                for (p, q), keys in self.cells.items()
            }
        return dict(self._cohomology)

    def betti_ordered(self, i: int) -> int:
        """dim H^i(C_n(M);Q) from the degenerate page."""
        if self._cohomology is None:
            self.cohomology_dims()
        return sum(v for (p, qd1), v in self._cohomology.items() if p + qd1 == i)

    def euler_characteristic(self) -> int:
        d = self.desc.d
        return sum(
            (-1) ** (p + q * (d - 1)) * len(keys) for (p, q), keys in self.cells.items()
        )

    # -- characters of the surviving page (for colored invariants) ----------

    def cohomology_cell_character(self, p: int, q: int) -> ClassFunction:
        """Character of ker/im at cell (p, q): traces on explicit subspaces."""
        keys = self.cell(p, q)
        cycles = kernel_basis([self.diff_key(key) for key in keys], [{key: 1} for key in keys])
        boundaries = [self.diff_key(key) for key in self.cell(p - self.desc.d, q + 1)]
        kernel = Rep(self.n, self.act_vec, cycles).character()
        return kernel - Rep(self.n, self.act_vec, boundaries).character()


# ---------------------------------------------------------------------------
# invariant subcomplex (transfer: H^*(B_n) = S_n-invariants)


def sym_word_multisets(desc: ManifoldDescriptor, count: int):
    """Multisets of classes, evens repeating and odds distinct (Sym x Lambda)."""
    evens = [i for i, deg in enumerate(desc.degrees) if deg % 2 == 0]
    odds = [i for i, deg in enumerate(desc.degrees) if deg % 2 == 1]
    out = []
    for odd_count in range(min(len(odds), count) + 1):
        for odd_set in combinations(odds, odd_count):
            for even_multi in combinations_with_replacement_list(evens, count - odd_count):
                out.append(tuple(sorted(even_multi + list(odd_set))))
    return sorted(set(out))


def epsilon_word_multisets(desc: ManifoldDescriptor, count: int):
    """Multisets with evens distinct and odds repeating (Lambda x Sym)."""
    evens = [i for i, deg in enumerate(desc.degrees) if deg % 2 == 0]
    odds = [i for i, deg in enumerate(desc.degrees) if deg % 2 == 1]
    out = []
    for even_count in range(min(len(evens), count) + 1):
        for even_set in combinations(evens, even_count):
            for odd_multi in combinations_with_replacement_list(odds, count - even_count):
                out.append(tuple(sorted(list(even_set) + odd_multi)))
    return sorted(set(out))


def combinations_with_replacement_list(pool, count):
    from itertools import combinations_with_replacement

    return [list(c) for c in combinations_with_replacement(pool, count)]


def invariant_cell_dim(desc: ManifoldDescriptor, n: int, p: int, q: int) -> int:
    """Closed-form dimension of the S_n-invariant part of cell (p, q edges)."""
    if q > n // 2:
        return 0
    if q > 0 and desc.d % 2 == 1:
        return 0  # the sign action on each pair kills every invariant
    singles = n - 2 * q
    eps = {}
    for multi in epsilon_word_multisets(desc, q):
        deg = sum(desc.degrees[c] for c in multi)
        eps[deg] = eps.get(deg, 0) + 1
    sym = {}
    for multi in sym_word_multisets(desc, singles):
        deg = sum(desc.degrees[c] for c in multi)
        sym[deg] = sym.get(deg, 0) + 1
    return sum(eps.get(r, 0) * sym.get(p - r, 0) for r in range(p + 1))


class InvariantComplex:
    """The S_n-invariant subcomplex, spanned by orbit averages of seed keys.

    S_n moves the disjoint-pair keys that carry every invariant to +-keys, so
    each average is a signed orbit sum (E2Page.orbit_average), never a sum
    over all of S_n.
    """

    def __init__(self, page: E2Page):
        self.page = page
        self._bases: dict[tuple[int, int], Echelon] = {}
        self._ranks: dict[tuple[int, int], int] = {}

    def seeds(self, p: int, q: int) -> list[Key]:
        """Disjoint-pair keys whose orbit averages span the invariants of cell (p, q).

        The edges are (1 2), (3 4), ...; the pairs carry a Lambda x Sym word
        and the singletons a Sym x Lambda word, each as a sorted multiset.
        """
        desc, n = self.page.desc, self.page.n
        if not 0 <= q <= n // 2 or (q > 0 and desc.d % 2 == 1):
            return []
        mono = tuple((2 * i + 1, 2 * i + 2) for i in range(q))
        blocks = blocks_of(mono, n)
        out = []
        for pair_multi in epsilon_word_multisets(desc, q):
            pair_deg = sum(desc.degrees[c] for c in pair_multi)
            for single_multi in sym_word_multisets(desc, n - 2 * q):
                if pair_deg + sum(desc.degrees[c] for c in single_multi) != p:
                    continue
                word = tuple(pair_multi) + tuple(single_multi)
                assert len(word) == len(blocks)
                out.append((mono, word))
        return out

    def basis(self, p: int, q: int) -> Echelon:
        key = (p, q)
        if key in self._bases:
            return self._bases[key]
        desc, n = self.page.desc, self.page.n
        ech = Echelon(self.page.orbit_average(seed) for seed in self.seeds(p, q))
        expected = invariant_cell_dim(desc, n, p, q)
        if ech.dim != expected:
            raise AssertionError(
                f"invariant cell ({p},{q}) has dim {ech.dim}, closed form {expected}"
            )
        self._bases[key] = ech
        return ech

    def differential_rank(self, p: int, q: int) -> int:
        """Rank of d out of invariant cell (p, q); computed once per cell."""
        if (p, q) not in self._ranks:
            rank = 0
            if q >= 1:
                source = self.basis(p, q).basis()
                rank = span_dim([self.page.diff_vec(v) for v in source])
            self._ranks[(p, q)] = rank
        return self._ranks[(p, q)]

    def cohomology_dim(self, p: int, q: int) -> int:
        dim = self.basis(p, q).dim
        rank_out = self.differential_rank(p, q)
        rank_in = self.differential_rank(p - self.page.desc.d, q + 1)
        return dim - rank_out - rank_in

    def betti(self, i: int) -> int:
        d = self.page.desc.d
        total = 0
        for q in range(self.page.n // 2 + 1):
            p = i - q * (d - 1)
            if p >= 0:
                total += self.cohomology_dim(p, q)
        return total


# ---------------------------------------------------------------------------
# character backend: sigma-fixed set partitions and cyclic graded traces


@cache
def set_partitions_of_shape(n: int, shape: Partition) -> tuple:
    """All set partitions of {1..n} whose block sizes are the given partition."""
    if sum(shape) != n:
        raise ValueError(f"shape {shape} does not partition {n}")

    def rec(elements: tuple[int, ...], sizes: tuple[int, ...]):
        if not elements:
            yield ()
            return
        first, rest = elements[0], elements[1:]
        seen_sizes = set()
        for idx, s in enumerate(sizes):
            if s in seen_sizes:
                continue
            seen_sizes.add(s)
            remaining_sizes = sizes[:idx] + sizes[idx + 1:]
            for members in combinations(rest, s - 1):
                block = (first,) + members
                others = tuple(x for x in rest if x not in members)
                for tail in rec(others, remaining_sizes):
                    yield (block,) + tail

    return tuple(rec(tuple(range(1, n + 1)), tuple(shape)))


def _orbits_of_blocks(sigma: Perm, blocks: tuple) -> list[list[int]]:
    index = {blk: t for t, blk in enumerate(blocks)}
    image = []
    for blk in blocks:
        image.append(index[tuple(sorted(sigma[x - 1] for x in blk))])
    seen = [False] * len(blocks)
    orbits = []
    for start in range(len(blocks)):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        t = image[start]
        while t != start:
            orbit.append(t)
            seen[t] = True
            t = image[t]
        orbits.append(orbit)
    return orbits


def _power(sigma: Perm, t: int) -> Perm:
    out = identity(len(sigma))
    for _ in range(t):
        out = compose(sigma, out)
    return out


def _restricted_cycle_type(sigma_t: Perm, block: tuple[int, ...]) -> Partition:
    remaining = set(block)
    lengths = []
    while remaining:
        start = min(remaining)
        length = 0
        x = start
        while True:
            remaining.discard(x)
            length += 1
            x = sigma_t[x - 1]
            if x == start:
                break
        lengths.append(length)
    return make_partition(lengths)


def _poly_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for da, ca in a.items():
        for db, cb in b.items():
            out[da + db] = out.get(da + db, 0) + ca * cb
    return out


def _block_orbit_factor(desc: ManifoldDescriptor, sigma: Perm, orbit, blocks) -> tuple[int, dict[int, int]]:
    """(scalar factor, graded polynomial in the M-degree) for one block-orbit."""
    d = desc.d
    t = len(orbit)
    block = blocks[orbit[0]]
    s = len(block)
    sigma_t = _power(sigma, t)
    tau_type = _restricted_cycle_type(sigma_t, block)
    top_deg = (s - 1) * (d - 1)
    scalar = (-1) ** (top_deg * (t - 1)) * top_character(s, d).value(tau_type)
    poly = {}
    for deg, dim in desc.poincare().items():
        poly[deg * t] = poly.get(deg * t, 0) + (-1) ** (deg * (t - 1)) * dim
    return scalar, poly


def e2_cell_character(desc: ManifoldDescriptor, n: int, p: int, qd1: int) -> ClassFunction:
    """Character of E2^{p, qd1}(n) by the fixed-partition trace formula."""
    d = desc.d
    if qd1 % (d - 1) != 0 or qd1 < 0:
        return ClassFunction(n, tuple(0 for _ in partitions_of(n)))
    q = qd1 // (d - 1)
    if q > n:
        return ClassFunction(n, tuple(0 for _ in partitions_of(n)))
    values = []
    for rho in partitions_of(n):
        sigma = class_representative(rho, n)
        total = 0
        for mu in partitions_of(q):
            if len(mu) + q > n:
                continue
            shape = make_partition(angle_pad(mu, n))
            for blocks in set_partitions_of_shape(n, shape):
                if not _is_fixed(sigma, blocks):
                    continue
                poly = {0: 1}
                scalar = 1
                for orbit in _orbits_of_blocks(sigma, blocks):
                    fac, opoly = _block_orbit_factor(desc, sigma, orbit, blocks)
                    scalar *= fac
                    if scalar == 0:
                        break
                    poly = _poly_mul(poly, opoly)
                if scalar:
                    total += scalar * poly.get(p, 0)
        values.append(total)
    return ClassFunction(n, tuple(values))


def _is_fixed(sigma: Perm, blocks: tuple) -> bool:
    as_set = {blk: None for blk in blocks}
    for blk in blocks:
        if tuple(sorted(sigma[x - 1] for x in blk)) not in as_set:
            return False
    return True


def e2_cell_dim(desc: ManifoldDescriptor, n: int, p: int, qd1: int) -> int:
    """Cell dimension, combinatorially (no basis enumeration)."""
    d = desc.d
    if qd1 % (d - 1) != 0 or qd1 < 0:
        return 0
    q = qd1 // (d - 1)
    from math import factorial

    total = 0
    for mu in partitions_of(q):
        if len(mu) + q > n:
            continue
        shape = make_partition(angle_pad(mu, n))
        count = _partition_count(n, shape)
        per_block = 1
        for s in shape:
            per_block *= factorial(s - 1)
        poly = {0: 1}
        for _ in shape:
            poly = _poly_mul(poly, desc.poincare())
        total += count * per_block * poly.get(p, 0)
    return total


def _partition_count(n: int, shape: Partition) -> int:
    from math import factorial

    out = factorial(n)
    mult: dict[int, int] = {}
    for s in shape:
        out //= factorial(s)
        mult[s] = mult.get(s, 0) + 1
    for m in mult.values():
        out //= factorial(m)
    return out


# ---------------------------------------------------------------------------
# E(mu, r, alpha) block diagnostics


def block_character_on_k(desc: ManifoldDescriptor, mu: Partition, r: int, alpha: Partition) -> ClassFunction:
    """Character of the fixed S_k-representation inducing E(mu, r, alpha)_n.

    k = |mu| + l(mu) + l(alpha): the blocks of size mu_i + 1 plus one
    singleton per positive entry of alpha, each singleton carrying that
    degree.
    """
    q, m, ell = sum(mu), len(mu), len(alpha)
    k = q + m + ell
    values = []
    for rho in partitions_of(k):
        sigma = class_representative(rho, k)
        values.append(_block_trace(desc, sigma, k, mu, r, alpha))
    return ClassFunction(k, tuple(values))


def block_character_at_n(desc: ManifoldDescriptor, n: int, mu: Partition, r: int, alpha: Partition) -> ClassFunction:
    """Character of E(mu, r, alpha)_n = Ind(V(mu, r, alpha) boxtimes triv)."""
    chi_k = block_character_on_k(desc, mu, r, alpha)
    return induced_character(chi_k, n)


def _block_trace(desc, sigma, k, mu, r, alpha):
    """Trace over sigma-fixed (partition, degree-function) pairs on {1..k},
    every singleton carrying a positive degree from alpha."""
    shape = make_partition(tuple(x + 1 for x in mu) + (1,) * len(alpha))
    if sum(shape) != k:
        raise ValueError("k must equal |mu| + l(mu) + l(alpha)")
    alpha_sorted = tuple(sorted(alpha, reverse=True))
    total = 0
    for blocks in set_partitions_of_shape(k, shape):
        if not _is_fixed(sigma, blocks):
            continue
        big_poly = {0: 1}
        scalar = 1
        single_orbits = []
        for orbit in _orbits_of_blocks(sigma, blocks):
            block = blocks[orbit[0]]
            if len(block) == 1:
                single_orbits.append(orbit)
                continue
            fac, opoly = _block_orbit_factor(desc, sigma, orbit, blocks)
            scalar *= fac
            big_poly = _poly_mul(big_poly, opoly)
        if scalar == 0 or big_poly.get(r, 0) == 0:
            continue
        total += scalar * big_poly.get(r, 0) * _single_orbit_sum(
            desc, single_orbits, alpha_sorted
        )
    return total


def _single_orbit_sum(desc, orbits, alpha):
    """Sum over constant positive degree assignments per singleton orbit
    whose multiset of values is exactly alpha."""
    betti = desc.poincare()

    def rec(idx: int, remaining: tuple[int, ...]):
        if idx == len(orbits):
            return 1 if not remaining else 0
        t = len(orbits[idx])
        total = 0
        for v in sorted(set(remaining), reverse=True):
            if remaining.count(v) >= t and betti.get(v, 0):
                new_remaining = list(remaining)
                for _ in range(t):
                    new_remaining.remove(v)
                factor = (-1) ** (v * (t - 1)) * betti[v]
                total += factor * rec(idx + 1, tuple(new_remaining))
        return total

    return rec(0, alpha)


def block_rows(desc: ManifoldDescriptor, p: int, qd1: int) -> list[dict]:
    """The E(mu, r, alpha) inventory of a cell: k, onset 2k, block dimension."""
    d = desc.d
    if qd1 % (d - 1) != 0 or qd1 < 0:
        return []
    q = qd1 // (d - 1)
    rows = []
    for mu in partitions_of(q):
        for r in range(p + 1):
            for alpha in partitions_of(p - r):
                if any(betti_missing(desc, v) for v in alpha):
                    continue
                chi = block_character_on_k(desc, mu, r, alpha)
                dim_v = chi.degree()
                if dim_v == 0:
                    continue
                k = q + len(mu) + len(alpha)
                rows.append(
                    {
                        "mu": mu,
                        "r": r,
                        "alpha": alpha,
                        "k": k,
                        "dim_v": dim_v,
                        "stable_from": 2 * k,
                        "character_k": chi,
                    }
                )
    return rows


def betti_missing(desc: ManifoldDescriptor, v: int) -> bool:
    return desc.poincare().get(v, 0) == 0
