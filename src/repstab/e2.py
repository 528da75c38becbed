"""The second page of the Leray spectral sequence for C_n(M) in M^n.

Explicit backend: basis keys are pairs (mono, word) where mono is a
normal-form generator monomial on {1..n} (a forest; one copy of the
top class of each connected block) and word assigns one cohomology class of
M to each block of the forest, blocks ordered by minimum.  The module
relation that identifies the two point-pullbacks along an edge is built into
this basis.  The differential sends an edge generator to the diagonal class
of its two endpoints and extends as a graded derivation; Koszul signs follow
one rule: a transposition of adjacent odd-degree factors contributes -1.
Normal-form monomials are increasing forests, so removing an edge (a, b)
splits off a block with minimum b, and each term of d is one slice of the
word with b's class inserted where b sorts among the block minima: a sign
from prefix degrees, no sort.  The page keeps what d needs per forest and
per class: an edge table per forest (the forest without the edge, the two
slots, the edge sign), built once, and the diagonal terms of each class.
The cells share one word table per block count, and d is ranked on each
target key's index in its cell, so the elimination compares ints in the
cells' own order.
The S_n action is linear but not monomial (Arnold straightening), so the
characters of the surviving cells act through a rep.LinearIndex over the
cell's keys, built per call: each (sigma, key) is straightened once.  A
sigma that keeps every edge increasing, as one increasing on every block
does, sends a key to one signed key (E2Page.relabel): the relabellings onto
orbit representatives are a sort and a sign, and only transpositions inside
a block straighten.

Coinvariant backend: InvariantComplex computes the invariants of
H^*(C_n(M)) under S_n (H^*(B_n(M))) or under a Young subgroup
S_{n-k} x S_mu (colored configurations) on the page's coinvariants under
that group, with one representative partition per orbit pattern of keys.
A pattern's coinvariants factor over its block types, as graded-symmetric
powers of block spaces: the top monomials of one block modulo its
same-colour transpositions, solved once per block shape.  It never
enumerates a page cell.

Both complexes share one cochain core, Cochains: cohomology dimensions,
Betti sums, cycles, boundaries and the d o d check are stated once over a
complex's basis(p, q), its d on a key and its own differential_rank.

Character backend: a cell's character is the sum of its blocks
E(mu, r, alpha)_n = Ind_{S_k x S_{n-k}}(V boxtimes 1) over the labels with
k <= n.  V's trace runs over the sigma-fixed set partitions of the k block
points, so the cost depends on k, not on n.  Agreement with the explicit
backend is a test, not an assumption.
"""

from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from itertools import combinations, combinations_with_replacement, compress, product
from math import prod
from operator import gt, itemgetter, mul, sub
from types import MappingProxyType

from .arnold import (
    _poly_mul,
    act_monomial,
    all_monomials,
    induced_cyclic_sign_character,
    poincare_polynomial,
    top_basis,
    top_character,
)
from .characters import ClassFunction, induced_character, young_permutation_character
from .linalg import Echelon, add_into, kernel_basis, span_dim
from .manifolds import ManifoldDescriptor
from .partitions import Partition, make_partition, partitions_of
from .perms import Perm, class_representative, cycles, from_cycles, inversion_sign
from .rep import LinearIndex, Rep

Monomial = tuple[tuple[int, int], ...]
Key = tuple[Monomial, tuple[int, ...]]


# the element budget of an explicit page, and in the CLI of a tabloid module,
# when none is given
DEFAULT_BUDGET = 200_000


class BudgetExceeded(Exception):
    pass


class MissingDiagonal(Exception):
    pass


class NotComputable(Exception):
    pass


def _check_bigrading(desc: ManifoldDescriptor) -> None:
    """Refuse d < 2: the bigrading (p, q(d-1)) puts every row of a d = 1
    page in degree 0, so their cells would collide."""
    if desc.d < 2:
        raise NotComputable(f"{desc.name}: the E2 bigrading (p, q(d-1)) needs dim >= 2, got {desc.d}")


class Cochains:
    """The cohomology of a complex on the page's bigrading, stated once.

    A subclass has desc and n, the basis keys basis(p, q) of each cell
    (M-degree p, q edges), d on a key as diff_key, sending cell (p, q) to
    (p + d, q - 1), and differential_rank(p, q), the rank of d out of a
    cell, computed by its own routine."""

    desc: ManifoldDescriptor
    n: int

    @property
    def max_edges(self) -> int:
        """The most edges a key has: a forest on n points has at most n - 1."""
        return max(self.n - 1, 0)

    def cells_in_degree(self, i: int) -> list[tuple[int, int]]:
        """The cells (p, q) of total degree p + q(d-1) = i."""
        d = self.desc.d
        return [(i - q * (d - 1), q) for q in range(self.max_edges + 1) if i - q * (d - 1) >= 0]

    def diff_vec(self, v: dict) -> dict:
        out: dict = {}
        for key, c in v.items():
            add_into(out, self.diff_key(key), c)
        return out

    def cohomology_dim(self, p: int, q: int) -> int:
        """dim of ker / im at cell (p, q): d out of it, and d into it from
        cell (p - d, q + 1)."""
        rank_in = self.differential_rank(p - self.desc.d, q + 1)
        return len(self.basis(p, q)) - self.differential_rank(p, q) - rank_in

    def betti(self, i: int) -> int:
        """dim H^i: the cohomology of the cells of total degree i."""
        return sum(self.cohomology_dim(p, q) for p, q in self.cells_in_degree(i))

    def cycles(self, p: int, q: int) -> list[dict]:
        """A basis of the kernel of d on cell (p, q)."""
        keys = self.basis(p, q)
        return kernel_basis([self.diff_key(key) for key in keys], [{key: 1} for key in keys])

    def boundaries(self, p: int, q: int) -> list[dict]:
        """The images of d in cell (p, q), one per key of cell (p - d, q + 1)."""
        return [self.diff_key(key) for key in self.basis(p - self.desc.d, q + 1)]

    def check_d_squared(self) -> bool:
        """Whether d(d(key)) = 0 for every basis key: a key with q edges has
        n - q blocks, so its M-degree is at most (n - q) times the top degree."""
        top = max(self.desc.degrees)
        return not any(
            self.diff_vec(self.diff_key(key))
            for q in range(self.max_edges + 1)
            for p in range(top * (self.n - q) + 1)
            for key in self.basis(p, q)
        )


# Bounded: the explicit page of s2 at n = 7 enumerates 5040 monomials, once each.
@lru_cache(maxsize=4096)
def blocks_of(mono: Monomial, n: int) -> tuple[tuple[int, ...], ...]:
    """The blocks of a normal-form monomial on 1..n, singletons included,
    each sorted and ordered by minimum.

    A normal-form monomial is an increasing forest sorted by second index,
    so each edge (a, b) meets a's block already rooted at its minimum, and
    b joins it: one pass over the edges, then one over the points."""
    root: dict[int, int] = {}  # the minimum of each non-minimal point's block
    for a, b in mono:
        root[b] = root.get(a, a)
    groups: dict[int, list[int]] = {}
    for x in range(1, n + 1):
        groups.setdefault(root.get(x, x), []).append(x)
    return tuple(map(tuple, groups.values()))


class E2Page(Cochains):
    """Explicit cells, action, and differential for one (M, n).

    Constructing a page allocates nothing: total_dim is the closed-form
    count and the cells are enumerated on first use.  The tables d reads,
    one edge table per forest it meets and the diagonal terms per class,
    are built on first use too and live as long as the page.
    """

    def __init__(self, desc: ManifoldDescriptor, n: int):
        _check_bigrading(desc)
        self.desc = desc
        self.n = n
        # sum over forests of D^blocks: the rising factorial D(D+1)...(D+n-1)
        self.total_dim = prod(range(desc.dim_total, desc.dim_total + n))
        self._ranks: dict[tuple[int, int], int] = {}
        self._edges: dict[Monomial, tuple] = {}  # forest -> its edge table

    @cached_property
    def cells(self) -> dict[tuple[int, int], list[Key]]:
        """Keys by cell (p, q): forests in all_monomials order, and under each
        forest its words in lexicographic order.  The words of one block
        count, with their degrees, are built once and shared by every forest
        with that many blocks."""
        degrees, n = self.desc.degrees, self.n
        classes = range(self.desc.dim_total)
        words = [[(0, ())]]  # words[b]: (degree, word) for the words on b blocks
        for _ in range(n):
            words.append([(p + degrees[c], w + (c,)) for p, w in words[-1] for c in classes])
        by_degree = []  # by_degree[b]: degree -> words on b blocks, in order
        for table in words:
            groups: dict[int, list[tuple[int, ...]]] = {}
            for p, word in table:
                groups.setdefault(p, []).append(word)
            by_degree.append(groups)
        cells: dict[tuple[int, int], list[Key]] = {}
        for mono in all_monomials(n):
            q = len(mono)
            for p, group in by_degree[n - q].items():
                cells.setdefault((p, q), []).extend([(mono, word) for word in group])
        return cells

    # -- grading helpers ---------------------------------------------------

    def basis(self, p: int, q: int) -> list[Key]:
        return self.cells.get((p, q), [])

    def cell_dims(self) -> dict[tuple[int, int], int]:
        """Dims keyed by (p, q(d-1)): the bigrading of the spectral sequence."""
        d = self.desc.d
        return {(p, q * (d - 1)): len(keys) for (p, q), keys in self.cells.items()}

    # -- the S_n action ----------------------------------------------------

    def act_key(self, sigma: Perm, key: Key) -> dict[Key, int]:
        mono, word = key
        relabeled = act_monomial(sigma, mono, self.desc.d)
        mins = [min(sigma[x - 1] for x in blk) for blk in blocks_of(mono, self.n)]
        new_word, koszul = self._move_word(mins, word)
        return {(m2, new_word): s * koszul for m2, s in relabeled.items()}

    def relabel(self, sigma: Perm, key: Key) -> tuple[Key, int]:
        """(key', sign) with sigma . key = sign * key', for a sigma that keeps
        every edge (a, b) of the key increasing, as one increasing on every
        block does.  The relabelled forest is then in normal form once its
        edges are sorted, and each block's new minimum is the image of its
        old one, so the action is a sort and a Koszul sign: no straightening."""
        mono, word = key
        edges = [(sigma[a - 1], sigma[b - 1]) for a, b in mono]
        if any(a > b for a, b in edges):
            raise AssertionError(f"{sigma} reverses an edge of {key}")
        edge_sign = inversion_sign([b for _, b in edges]) if self.desc.d % 2 == 0 else 1
        mins = [sigma[blk[0] - 1] for blk in blocks_of(mono, self.n)]
        new_word, koszul = self._move_word(mins, word)
        return (tuple(sorted(edges, key=itemgetter(1))), new_word), edge_sign * koszul

    def _move_word(self, mins: list[int], word: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        """The word re-sorted by its blocks' new minima, and the Koszul sign:
        (-1) for each pair of odd-degree classes that changes order."""
        degrees = self.desc.degrees
        order = sorted(range(len(word)), key=mins.__getitem__)
        sign = inversion_sign([m for m, cls in zip(mins, word) if degrees[cls] % 2])
        return tuple(word[t] for t in order), sign

    def act_vec(self, sigma: Perm, v: dict) -> dict:
        out: dict = {}
        for key, c in v.items():
            for key2, coeff in self.act_key(sigma, key).items():
                add_into(out, {key2: coeff * c})
        return out

    # -- the differential ----------------------------------------------------

    def _edge_table(self, mono: Monomial) -> tuple[tuple[Monomial, int, int, int], ...]:
        """Per edge i = (a, b) of a forest: (the forest without it, the slot
        s of a's block, the slot r where b's new block goes, the edge sign
        (-1)^((d-1) i)).  Built once per forest and kept on the page.

        Normal-form monomials are increasing forests, so removing (a, b)
        splits off the subtree of b, whose minimum is b, and a's block keeps
        its minimum.  A slot is the number of block minima below a point,
        and the block minima below it are the points below it that are no
        edge's second index."""
        table = self._edges.get(mono)
        if table is None:
            seconds = [b for _, b in mono]
            root: dict[int, int] = {}  # the minimum of each non-minimal point's block
            for a, b in mono:
                root[b] = root.get(a, a)
            odd = (self.desc.d - 1) % 2
            table = []
            for i, (a, b) in enumerate(mono):
                m = root.get(a, a)
                s = m - 1 - bisect_left(seconds, m)
                table.append((mono[:i] + mono[i + 1:], s, b - 1 - i, -1 if odd and i % 2 else 1))
            table = self._edges[mono] = tuple(table)
        return table

    @cached_property
    def _diagonal_terms(self) -> list[tuple[tuple[int, int, int | Fraction, int, int], ...]]:
        """Per class x, the terms (k, e2, coefficient, deg e1, deg e2) of the
        diagonal class with x on its first factor: e1 x e2 with e1 * x =
        sum k, the coefficient that of e1 x e2 times that of k."""
        desc = self.desc
        if desc.diagonal is None:
            raise MissingDiagonal(f"{desc.name} has no diagonal class")
        degrees = desc.degrees
        return [
            tuple(
                (k, e2, coef * k_coef, degrees[e1], degrees[e2])
                for e1, e2, coef in desc.diagonal
                for k, k_coef in desc.product(e1, x).items()
            )
            for x in range(desc.dim_total)
        ]

    def diff_key(self, key: Key) -> dict[Key, int | Fraction]:
        """d of a key: the sum over its edges (a, b) of the edge replaced by
        the diagonal class of a and b, in O(blocks) per output term.

        The forest's edge table gives, per edge, the slots s of a's block
        and r of b's new block.  For a diagonal term e1 x e2 and
        e1 * x = sum k, a's factor x becomes k in place, and b's new factor
        e2 moves from just after a's block to slot r.  Its sign is
        (-1)^(deg e1 * pre_s + deg e2 * pre_r), with pre_t the degree of the
        word before slot t: e2 passes the factors before a's block, x, and
        the factors it crosses."""
        terms = self._diagonal_terms
        mono, word = key
        degrees = self.desc.degrees
        pre = [0]
        for cls in word:
            pre.append(pre[-1] + degrees[cls])
        out: dict[Key, int | Fraction] = {}
        for mono2, s, r, sign_i in self._edge_table(mono):
            head, mid, tail = word[:s], word[s + 1:r], word[r:]
            pre_s, pre_r = pre[s], pre[r]
            for k, e2, coef, deg1, deg2 in terms[word[s]]:
                image = (mono2, head + (k,) + mid + (e2,) + tail)
                total = out.get(image, 0) + (-sign_i if (deg1 * pre_s + deg2 * pre_r) % 2 else sign_i) * coef
                if total:
                    out[image] = total
                else:
                    del out[image]
        return out

    # -- ranks and cohomology ------------------------------------------------

    def differential_rank(self, p: int, q: int) -> int:
        """Rank of d out of cell (p, q); computed once per cell.

        Each row is keyed by its terms' indices in the target cell
        (p + d, q - 1), so span_dim takes pivots in the target's cell order
        and compares ints, and the rows go in in reverse cell order: on
        these pages that keeps the stored rows sparser than cell order does
        (at torus n = 6 the elimination runs about 8 times faster)."""
        keys = self.basis(p, q)
        if keys and (p, q) not in self._ranks:
            index = {key: t for t, key in enumerate(self.basis(p + self.desc.d, q - 1))}
            rows = [{index[k]: c for k, c in self.diff_key(key).items()} for key in reversed(keys)]
            self._ranks[(p, q)] = span_dim(rows)
        return self._ranks.get((p, q), 0)

    def cohomology_dims(self) -> dict[tuple[int, int], int]:
        """E3 = Einfty cell dimensions, keyed by (p, q(d-1)); betti(i) is
        dim H^i(C_n(M); Q), the page degenerating there."""
        d = self.desc.d
        return {(p, q * (d - 1)): self.cohomology_dim(p, q) for p, q in self.cells}

    def euler_characteristic(self) -> int:
        d = self.desc.d
        return sum(
            (-1) ** (p + q * (d - 1)) * len(keys) for (p, q), keys in self.cells.items()
        )

    # -- characters of the surviving page (for colored invariants) ----------

    def cohomology_cell_character(self, p: int, q: int) -> ClassFunction:
        """Character of ker/im at cell (p, q): traces on explicit subspaces.

        The cycles and the boundaries both lie in cell (p, q), so their Reps
        share one LinearIndex over its keys: each permutation's action is
        tabulated once per key and dropped when this call returns."""
        index = LinearIndex(self.basis(p, q), self.act_key)
        kernel = Rep(self.n, index, self.cycles(p, q)).character()
        return kernel - Rep(self.n, index, self.boundaries(p, q)).character()


# ---------------------------------------------------------------------------
# coinvariant complex (transfer: H^*(C_n)^G = G-invariants = G-coinvariants)


def invariant_cell_dim(desc: ManifoldDescriptor, n: int, p: int, q: int) -> int:
    """Closed-form dimension of the S_n-invariant part of cell (p, q edges):
    Lambda x Sym words on the q pairs times Sym x Lambda words on the
    singletons, counted by degree."""
    if q > n // 2:
        return 0
    if q > 0 and desc.d % 2 == 1:
        return 0  # the sign action on each pair kills every invariant
    poincare = desc.poincare()
    pairs = graded_power(poincare, q, 1, p)
    singletons = graded_power(poincare, n - 2 * q, 0, p)
    return sum(map(mul, pairs, reversed(singletons)))


@lru_cache(maxsize=1024)
def block_dim(comp: tuple[int, ...], parity: int) -> int:
    """dim of a block's space in closed form: the S_comp-coinvariants of the
    top degree of H^*(C_s(R^d)), s = sum(comp), for d of the given parity;
    comp counts the block's points of each colour, zeros allowed.  By
    Frobenius reciprocity it is <chi_top(s), Ind_{S_comp}^{S_s} 1>."""
    s = sum(comp)
    chi = induced_cyclic_sign_character(s, 2 + parity)
    return int(chi.inner(young_permutation_character(s, comp)))


@lru_cache(maxsize=256)
def block_space(comp: tuple[int, ...], parity: int) -> tuple[tuple[Monomial, ...], dict]:
    """(basis, classes) of a block's space: the top monomials on points
    1..s, coloured in runs of comp's parts, modulo the adjacent same-colour
    transpositions, for d of the given parity.  The basis is the monomials
    that are not pivots of the relations, and classes maps every top
    monomial to its class as {basis index: coefficient}.  Solved once per
    shape, comp without its zeros, and checked against block_dim."""
    shape = tuple(m for m in comp if m)
    if shape != comp:
        return block_space(shape, parity)
    s = sum(shape)
    colours = [c for c, m in enumerate(shape) for _ in range(m)]
    gens = [from_cycles(s, [(x, x + 1)]) for x in range(1, s) if colours[x - 1] == colours[x]]
    keys = top_basis(s)
    relations = Echelon()
    for key in keys:
        for h in gens:
            v = act_monomial(h, key, 2 + parity)
            if v != {key: 1}:  # h fixes the key: no relation
                add_into(v, {key: 1}, -1)
                relations.insert(v)
    pivots = {pivot for pivot, _ in relations.rows}
    basis = tuple(key for key in keys if key not in pivots)
    if len(basis) != block_dim(shape, parity):
        raise AssertionError(f"block space {shape} has dim {len(basis)}, closed form {block_dim(shape, parity)}")
    index = {key: t for t, key in enumerate(basis)}
    classes = {key: {index[k]: c for k, c in relations.reduce({key: 1}).items()} for key in keys}
    return basis, classes


# A pattern's representative partition and the factors of its coinvariants:
# blocks, in pattern order; word, the classes in block-minimum order; spaces,
# the block_space of each block; runs, (start, stop, odd) per run of
# identical blocks; plain, whether every block space is one monomial, so a
# key's image is a basis key.
Representative = namedtuple("Representative", "blocks word spaces runs plain")


class InvariantComplex(Cochains):
    """H^*(C_n(M))^G for the Young subgroup G = S_{n-k} x S_mu, k = |mu|, on
    the G-coinvariants of the page; mu = () gives H^*(B_n(M)).

    Over Q the G-invariants of the page are isomorphic to its coinvariants,
    and d commutes with G.  Points 1..n-k are uncoloured; the next mu_1
    points have colour 1, the next mu_2 colour 2, and so on.  A key's
    G-orbit is fixed by its pattern, the sorted multiset of block signatures
    (size, colour counts, class of M), and each pattern has one
    representative partition, filled block by block with the lowest free
    points of each colour.  Its stabiliser is the same-colour permutations
    inside each block, extended by the permutations of identical blocks, so
    the pattern's coinvariants are a tensor product over block types: for m
    identical blocks, Sym^m of their block space when the type's total
    degree (s-1)(d-1) + deg cls is even and Lambda^m when it is odd.  At
    mu = () only singletons and, for even d, pairs have a non-zero block
    space: the Sym(H^even) x Lambda(H^odd) complex of Felix-Thomas (2000)
    and Knudsen (AGT 2017).  Rows run to q = n - 1, since blocks of any size
    survive once points are coloured.  No page cell is enumerated and
    nothing is averaged.
    """

    def __init__(self, page: E2Page, mu: Partition = ()):
        self.page = page
        self.desc, self.n = page.desc, page.n
        self.mu = mu
        self.colour_counts = (page.n - sum(mu),) + tuple(mu)
        # colour of point x at x - 1; each colour is a run of consecutive points
        self.colours = tuple(c for c, m in enumerate(self.colour_counts) for _ in range(m))
        self._starts = tuple(sum(self.colour_counts[:c]) + 1 for c in range(len(self.colour_counts)))
        self._bases: dict[tuple[int, int], list[Key]] = {}
        self._ranks: dict[tuple[int, int], int] = {}
        self._representatives: dict[tuple, Representative | None] = {}
        self._tables: dict[int, tuple] = {}
        self._canonical: dict[Key, dict] = {}  # page key -> canonical(key)

    def _composition(self, block: tuple[int, ...]) -> tuple[int, ...]:
        counts = [0] * len(self.colour_counts)
        for x in block:
            counts[self.colours[x - 1]] += 1
        return tuple(counts)

    def _odd(self, signature: tuple) -> bool:
        """Whether a block type's total degree (s-1)(d-1) + deg cls is odd."""
        size, _, cls = signature
        return ((size - 1) * (self.desc.d - 1) + self.desc.degrees[cls]) % 2 == 1

    def _signature_table(self, q: int) -> tuple:
        """(signatures, kinds, stop) for cells with q edges: the block
        signatures (size, colour counts, class) of at most q + 1 points and a
        non-zero block space, largest first; per signature (size, colour
        counts, degree, most copies); and stop(left), one past the last
        signature that every colour with points left still has.  Computed
        once per q."""
        if q not in self._tables:
            desc, n = self.desc, self.n
            parity = desc.d % 2
            comps = [()]
            for m in self.colour_counts:
                comps = [c + (j,) for c in comps for j in range(m + 1)]
            signatures = sorted(
                ((sum(comp), comp, cls) for comp in comps if 0 < sum(comp) <= q + 1
                 if block_dim(comp, parity) for cls in range(desc.dim_total)),
                reverse=True,
            )
            kinds = [
                (size, comp, desc.degrees[cls], block_dim(comp, parity) if self._odd((size, comp, cls)) else n)
                for size, comp, cls in signatures
            ]
            colours = range(len(self.colour_counts))
            last = [-1] * len(colours)
            for t, (_, comp, _) in enumerate(signatures):
                for c in compress(colours, comp):
                    last[c] = t
            stop = cache(lambda left: min(map(last.__getitem__, compress(colours, left))) + 1)
            self._tables[q] = signatures, kinds, stop
        return self._tables[q]

    def patterns(self, p: int, q: int) -> list[tuple]:
        """The patterns of cell (p, q) whose coinvariants can be non-zero:
        sorted (largest first) tuples of block signatures (size, colour
        counts, class) that use every point once, q edges and total class
        degree p, with no block of a zero-dimensional shape and no more
        copies of an odd type than its block space has dimensions."""
        desc, n = self.desc, self.n
        if not 0 <= q <= self.max_edges or p < 0:
            return []
        signatures, kinds, stop = self._signature_table(q)
        top = max(desc.degrees)
        out = []

        def extend(start: int, left: tuple[int, ...], points: int, edges: int, degree: int, acc: list):
            # every copy of one signature is placed in one step, so the depth
            # is at most the number of signatures, whatever n is
            if not points:
                if not edges and not degree:
                    out.append(tuple(acc))
                return
            # a colour with points left takes a block at or before its last signature
            for t in range(start, stop(left)):
                size, comp, deg, most = kinds[t]
                # blocks of at most `size` points have at most (size - 1) / size
                # edges per point, and sizes only fall from signature t on
                if edges * size > points * (size - 1):
                    break
                if size - 1 > edges or deg > degree or any(map(gt, comp, left)):
                    continue
                states = []  # after 1, 2, ... copies of signature t
                now, pts, eds, dgs = left, points, edges, degree
                while True:
                    now, pts, eds, dgs = tuple(map(sub, now, comp)), pts - size, eds - size + 1, dgs - deg
                    # the pts - eds blocks left carry degree <= top each; another
                    # copy takes top from that and only deg <= top from the degree
                    if dgs > top * (pts - eds):
                        break
                    states.append((now, pts, eds, dgs))
                    if len(states) == most or size - 1 > eds or deg > dgs or any(map(gt, comp, now)):
                        break
                # most copies first: patterns come in the order of their
                # signature indices
                acc.extend([signatures[t]] * len(states))
                for now, pts, eds, dgs in reversed(states):
                    extend(t + 1, now, pts, eds, dgs, acc)
                    acc.pop()

        extend(0, self.colour_counts, n, q, p, [])
        return out

    def _representative(self, pattern: tuple) -> Representative | None:
        """The pattern's Representative, or None when its coinvariants
        vanish: a block space of dimension 0, or more copies of an odd type
        than its block space has dimensions.  Built once per pattern."""
        if pattern in self._representatives:
            return self._representatives[pattern]
        self._representatives[pattern] = None
        parity = self.desc.d % 2
        runs: list[tuple[int, int, bool]] = []
        spaces = []
        for t, sig in enumerate(pattern):
            if t and sig == pattern[t - 1]:
                runs[-1] = runs[-1][0], t + 1, runs[-1][2]
            elif block_dim(sig[1], parity):
                runs.append((t, t + 1, self._odd(sig)))
                space = block_space(sig[1], parity)
            else:
                return None
            spaces.append(space)
        if any(odd and stop - start > len(spaces[start][0]) for start, stop, odd in runs):
            return None
        free = list(self._starts)
        blocks = []
        for _, comp, _ in pattern:
            block = []
            for c, m in enumerate(comp):
                block.extend(range(free[c], free[c] + m))
                free[c] += m
            blocks.append(tuple(block))
        word = tuple(cls for _, cls in sorted(zip(blocks, (cls for _, _, cls in pattern))))
        plain = all(len(classes) == 1 for _, classes in spaces)
        rep = self._representatives[pattern] = Representative(blocks, word, spaces, runs, plain)
        return rep

    def _assemble(self, rep: Representative, choice) -> Key:
        """The key with the basis monomial choice[t] of block t's space on
        each representative block."""
        edges = [
            (block[a - 1], block[b - 1])
            for block, (basis, _), t in zip(rep.blocks, rep.spaces, choice)
            for a, b in basis[t]
        ]
        return tuple(sorted(edges, key=itemgetter(1))), rep.word

    def _pattern_basis(self, pattern: tuple) -> list[Key]:
        """The basis keys of a pattern's coinvariants: per run of m identical
        blocks, a multiset (even type) or a set (odd type) of m basis
        monomials of their block space."""
        rep = self._representative(pattern)
        if rep is None:
            return []
        choices = [()]
        for start, stop, odd in rep.runs:
            dim = len(rep.spaces[start][0])
            picks = list((combinations if odd else combinations_with_replacement)(range(dim), stop - start))
            choices = [c + pick for c in choices for pick in picks]
        return [self._assemble(rep, choice) for choice in choices]

    def canonical(self, key: Key) -> dict:
        """The coinvariant class of a key, in basis coordinates.

        The colour-preserving relabelling sends the key's blocks, sorted by
        signature, onto the representative's blocks; within a block the
        points of each colour go in order, which is the order of the sorted
        blocks since every colour is a run of consecutive points.  So it is
        increasing on every block and E2Page.relabel applies it, a sort and
        a sign.  Each block's monomial then reduces in its block space,
        which changes no edge's second index and so no sign, and the basis
        monomials of identical blocks are sorted, with the Koszul sign of an
        odd type."""
        page = self.page
        mono, word = key
        blocks = blocks_of(mono, page.n)
        signatures = [(len(blk), self._composition(blk), cls) for blk, cls in zip(blocks, word)]
        order = sorted(range(len(blocks)), key=signatures.__getitem__, reverse=True)
        rep = self._representative(tuple(signatures[t] for t in order))
        if rep is None:
            return {}
        sigma = [0] * page.n
        for t, target in zip(order, rep.blocks):
            for x, y in zip(blocks[t], target):
                sigma[x - 1] = y
        image, sign = page.relabel(tuple(sigma), key)
        if rep.plain:
            return {image: sign}
        where = {y: (t, x) for t, block in enumerate(rep.blocks) for x, y in enumerate(block, 1)}
        local: list[list] = [[] for _ in rep.blocks]
        for a, b in image[0]:
            t, local_b = where[b]
            local[t].append((where[a][1], local_b))
        out: dict = {}
        for picks in product(*(classes[tuple(edges)].items() for (_, classes), edges in zip(rep.spaces, local))):
            choice = [t for t, _ in picks]
            c = sign * prod(ct for _, ct in picks)
            for start, stop, odd in rep.runs:
                run = choice[start:stop]
                if odd and len(set(run)) < len(run):
                    break
                c *= inversion_sign(run) if odd else 1
                choice[start:stop] = sorted(run)
            else:
                add_into(out, {self._assemble(rep, choice): c})
        return out

    def classes(self, v: dict) -> dict:
        """The coinvariant class of a page vector, in basis coordinates.
        Each key's class is computed once per complex: the d of many basis
        keys share terms."""
        memo = self._canonical
        out: dict = {}
        for key, c in v.items():
            image = memo.get(key)
            if image is None:
                image = memo[key] = self.canonical(key)
            add_into(out, image, c)
        return out

    def diff_key(self, key: Key) -> dict:
        """d of a key, in basis coordinates."""
        return self.classes(self.page.diff_key(key))

    def basis(self, p: int, q: int) -> list[Key]:
        """The basis keys over the patterns of cell (p, q), checked against
        the closed form at mu = (); computed once per cell."""
        if (p, q) not in self._bases:
            basis = [key for pattern in self.patterns(p, q) for key in self._pattern_basis(pattern)]
            expected = invariant_cell_dim(self.desc, self.n, p, q) if not self.mu else len(basis)
            if len(basis) != expected:
                raise AssertionError(f"invariant cell ({p},{q}) has dim {len(basis)}, closed form {expected}")
            self._bases[(p, q)] = basis
        return self._bases[(p, q)]

    def differential_rank(self, p: int, q: int) -> int:
        """Rank of d out of invariant cell (p, q); computed once per cell."""
        if (p, q) not in self._ranks:
            self._ranks[(p, q)] = span_dim([self.diff_key(key) for key in self.basis(p, q)])
        return self._ranks[(p, q)]


# ---------------------------------------------------------------------------
# character backend: sigma-fixed set partitions of k points, cyclic graded traces


# bounded: Bell-sized tuples, asked for on the k points of a block label
@lru_cache(maxsize=256)
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


def _orbits_of_blocks(sigma: Perm, blocks: tuple) -> list[tuple[int, ...]] | None:
    """The cycles of sigma on the blocks, as tuples of block indices from 1,
    or None when sigma does not permute the blocks."""
    index = {blk: t for t, blk in enumerate(blocks, 1)}
    image = tuple(index.get(tuple(sorted(sigma[x - 1] for x in blk))) for blk in blocks)
    return None if None in image else cycles(image)


def graded_power(poincare: dict[int, int], count: int, repeating: int, top: int) -> list[int]:
    """Dimensions in degrees 0..top of the count-th graded power of a graded
    space: its classes of degree parity `repeating` repeat (Sym) and the
    others are distinct (Lambda).  They are the coefficient of t^count in
    the product over classes of 1/(1 - t x^deg) or 1 + t x^deg, grown one
    class at a time in a (count + 1) x (top + 1) table."""
    if count < 0 or top < 0:
        return [0] * (top + 1)
    table = [[0] * (top + 1) for _ in range(count + 1)]
    table[0][0] = 1
    for deg, b in poincare.items():
        if deg > top:
            continue
        # a repeating class reads the row below as already grown by it, a
        # distinct class reads it as before
        counts = range(1, count + 1) if deg % 2 == repeating else range(count, 0, -1)
        for _ in range(b):
            for c in counts:
                row, below = table[c], table[c - 1]
                for x in range(deg, top + 1):
                    row[x] += below[x - deg]
    return table[count]


def _cycle_trace(poincare: dict[int, int], t: int) -> dict[int, int]:
    """Graded trace of a t-cycle on H^(x t): sum_j (-1)^(j(t-1)) b_j x^(jt)."""
    return {j * t: (-1) ** (j * (t - 1)) * b for j, b in poincare.items()}


def _block_orbit_factor(desc: ManifoldDescriptor, cycle_of: dict, orbit, blocks) -> tuple[int, dict[int, int]]:
    """(scalar factor, graded polynomial in the M-degree) for one block-orbit
    of sigma, whose cycle through each point is cycle_of[point]."""
    d = desc.d
    t = len(orbit)
    block = blocks[orbit[0] - 1]
    s = len(block)
    # sigma^t maps the block to itself, and a sigma-cycle of length L through
    # the block meets it in one sigma^t-cycle of length L / t
    tau_type = make_partition(len(c) // t for c in {cycle_of[x] for x in block})
    top_deg = (s - 1) * (d - 1)
    scalar = (-1) ** (top_deg * (t - 1)) * top_character(s, d).value(tau_type)
    return scalar, _cycle_trace(desc.poincare(), t)


def _row(desc: ManifoldDescriptor, qd1: int) -> int | None:
    """The edge count q of the page row in degree qd1 = q(d-1), or None when
    no row has that degree."""
    _check_bigrading(desc)
    d = desc.d
    if qd1 % (d - 1) != 0 or qd1 < 0:
        return None
    return qd1 // (d - 1)


def e2_cell_character(desc: ManifoldDescriptor, n: int, p: int, qd1: int) -> ClassFunction:
    """Character of E2^{p, qd1}(n): the sum of its blocks E(mu, r, alpha)_n,
    each induced from S_k with k <= n."""
    total = ClassFunction(n, (0,) * len(partitions_of(n)))
    q = _row(desc, qd1)
    if q is None:
        return total
    for _, _, _, _, chi in _blocks(desc, p, q, n):
        total = total + induced_character(chi, n)
    return total


def e2_cell_dim(desc: ManifoldDescriptor, n: int, p: int, qd1: int) -> int:
    """Cell dimension, combinatorially (no basis enumeration)."""
    q = _row(desc, qd1)
    rows = page_rows(desc, n)
    return rows[q].get(p, 0) if q is not None and q < len(rows) else 0


def page_rows(desc: ManifoldDescriptor, n: int) -> tuple[MappingProxyType, ...]:
    """The page's cell dimensions in closed form, row q = 0 .. max(n - 1, 0)
    as a read-only {p: dim E2^{p, q(d-1)}}."""
    _check_bigrading(desc)
    return _page_rows(tuple(desc.poincare().items()), n)


# bounded: a query reads the table of one (M, n), and a sweep over n keeps a few
@lru_cache(maxsize=16)
def _page_rows(poincare: tuple[tuple[int, int], ...], n: int) -> tuple[MappingProxyType, ...]:
    """Row q of the page by M-degree: the forests on n points with q edges,
    [t^q] of (1 + t)(1 + 2t)...(1 + (n-1)t), each carrying the words
    P_M(x)^(n-q) on its n - q blocks.  One forest expansion and n products."""
    forests = poincare_polynomial(n, 2) if n else {0: 1}
    factor = dict(poincare)
    powers = [{0: 1}]  # P_M(x)^0 .. P_M(x)^n
    for _ in range(n):
        powers.append(_poly_mul(powers[-1], factor))
    rows = ({p: forests[q] * c for p, c in powers[n - q].items()} for q in range(max(n, 1)))
    return tuple(map(MappingProxyType, rows))


# ---------------------------------------------------------------------------
# E(mu, r, alpha) blocks: each cell character is a sum of induced blocks


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


def _block_trace(desc, sigma, k, mu, r, alpha):
    """Trace over sigma-fixed (partition, degree-function) pairs on {1..k},
    every singleton carrying a positive degree from alpha."""
    shape = make_partition(tuple(x + 1 for x in mu) + (1,) * len(alpha))
    if sum(shape) != k:
        raise ValueError("k must equal |mu| + l(mu) + l(alpha)")
    alpha_sorted = tuple(sorted(alpha, reverse=True))
    cycle_of = {x: c for c in cycles(sigma) for x in c}
    total = 0
    for blocks in set_partitions_of_shape(k, shape):
        orbits = _orbits_of_blocks(sigma, blocks)
        if orbits is None:
            continue
        big_poly = {0: 1}
        scalar = 1
        single_orbits = []
        for orbit in orbits:
            block = blocks[orbit[0] - 1]
            if len(block) == 1:
                single_orbits.append(orbit)
                continue
            fac, opoly = _block_orbit_factor(desc, cycle_of, orbit, blocks)
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
        trace = _cycle_trace(betti, t)
        total = 0
        for v in sorted(set(remaining), reverse=True):
            if remaining.count(v) >= t and betti.get(v, 0):
                new_remaining = list(remaining)
                for _ in range(t):
                    new_remaining.remove(v)
                total += trace[v * t] * rec(idx + 1, tuple(new_remaining))
        return total

    return rec(0, alpha)


def _blocks(desc: ManifoldDescriptor, p: int, q: int, max_k: int | None = None):
    """(mu, r, alpha, k, character on S_k) for each nonzero block
    E(mu, r, alpha) of cell (p, q) with k <= max_k; a label's character is
    computed only once its k is known to fit."""
    poincare = desc.poincare()
    for mu in partitions_of(q):
        for r in range(p + 1):
            for alpha in partitions_of(p - r):
                k = q + len(mu) + len(alpha)
                if (max_k is not None and k > max_k) or not all(poincare.get(v) for v in alpha):
                    continue
                chi = block_character_on_k(desc, mu, r, alpha)
                if chi.degree():
                    yield mu, r, alpha, k, chi


def block_rows(desc: ManifoldDescriptor, p: int, qd1: int) -> list[dict]:
    """The E(mu, r, alpha) inventory of a cell: k, onset 2k, block dimension."""
    q = _row(desc, qd1)
    if q is None:
        return []
    return [
        {
            "mu": mu,
            "r": r,
            "alpha": alpha,
            "k": k,
            "dim_v": chi.degree(),
            "stable_from": 2 * k,
            "character_k": chi,
        }
        for mu, r, alpha, k, chi in _blocks(desc, p, q)
    ]
