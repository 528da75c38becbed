"""Explicit S_n-representations: the span of vectors in a free module with a
linear action, optionally modulo an invariant subspace.

Rep is the one class behind Specht spans (specht.specht_module), the levels
of consistent sequences (stability) and the cohomology cells of the explicit
E2 page (e2).  Every Rep acts through an index over the keys of a finite
basis: the span is a reduced Echelon over integer positions in sorted key
order, and sigma acts on a vector through one table per permutation.  Every
public method still takes and returns key-keyed vectors, and since positions
follow the key order, pivots and bases are those of the keyed computation.

* KeyIndex serves monomial actions, where S_n permutes the keys (the tabloid
  modules, and the tagged keys of their sums).  Without a modulus, traces are
  read as row[g^-1 . pivot] without acting on any row; a quotient still acts
  and reduces.
* LinearIndex serves linear actions, where sigma sends a key to a
  combination of keys (the E2 page, whose Arnold straightening is not
  monomial).  Each table entry is the tuple of (position, coefficient) terms
  of one key's image, so the key action runs once per (sigma, key); traces
  act on the rows.

Traces come from characters.explicit_character.  Constituents are read
through one mechanism, the Gelfand-Tsetlin weight vectors of the
Jucys-Murphy elements J_i = sum_{a<i} (a i), after Okounkov-Vershik (A new
approach to representation theory of symmetric groups, 1996): on a weight
vector of a standard tableau T, J_i acts by the content c_T(i) of the box of
i.  weight_vectors projects echelon rows onto the weights of the row-reading
tableau of mu, one J_i at a time, until it holds m_mu of them.
span_multiplicities takes the images of such vectors one level up, splits
them by the last element J_n into the weight spaces of T + box, carries
those onto the row-reading tableau of each constituent by Young's
seminormal steps, and reads each multiplicity off one rank, with a weight
guard that counts the images off their weights.  The checkers of stability
and specht.monotonicity_witness run on these two methods and close no span.
isotypic (the S_n-span of the weight vectors) and sn_span, the span-closure
loop, are the oracles the tests compare them against.
"""

from functools import cached_property, lru_cache

from .characters import ClassFunction, MultiplicityVector, decompose, explicit_character
from .linalg import Echelon, _integral, _primitive, add_into
from .partitions import Partition, added_box_content, dim_irrep
from .perms import from_cycles, generators


class _Positions:
    """The sorted keys of a finite basis and their integer positions."""

    def __init__(self, keys, act_key):
        self.keys = sorted(keys)
        self.pos = {k: i for i, k in enumerate(self.keys)}
        self.act_key = act_key

    def encode(self, v: dict) -> dict:
        pos = self.pos
        return {pos[k]: c for k, c in v.items()}

    def decode(self, v: dict) -> dict:
        keys = self.keys
        return {keys[i]: c for i, c in v.items()}


class KeyIndex(_Positions):
    """Integer positions for the sorted keys of a finite S_n-set, and the
    index table of each permutation: table(sigma)[i] is the position of
    act_key(sigma, keys[i]).  Tables are built on first use and kept in a
    bounded LRU cache; a Rep asks for the adjacent transpositions, the
    generators, the inverses of the p(n) class representatives and the
    n(n-1)/2 transpositions (a i) of the Jucys-Murphy elements, and one
    pass of the acceptance gate's calls keeps at most 34 tables per index.

    labels, when given, writes a key as a function of the points: a tuple
    holding the key's label of point x at index x, which determines the key,
    such that sigma . key has label labels(key)[x] at sigma(x).  The table of
    an adjacent transposition then swaps two labels of each key and calls no
    act_key."""

    def __init__(self, keys, act_key, labels=None):
        super().__init__(keys, act_key)
        self.labels = labels
        self.table = lru_cache(maxsize=256)(self._build_table)

    @cached_property
    def _labelled(self) -> tuple[list[tuple], dict]:
        words = [self.labels(k) for k in self.keys]
        return words, {w: i for i, w in enumerate(words)}

    def _build_table(self, sigma) -> tuple[int, ...]:
        """act_key, or a swap of labels, gives the tables of the adjacent
        transpositions s_i = (i+1 i+2); any other sigma = s_{i_m} ... s_{i_1},
        read off a bubble sort of its one-line form, composes theirs."""
        word = []
        w = list(sigma)
        i = 0
        while i < len(w) - 1:
            if w[i] > w[i + 1]:
                w[i], w[i + 1] = w[i + 1], w[i]
                word.append(i)
                i = max(i - 1, 0)
            else:
                i += 1
        if len(word) == 1 and self.labels is None:
            pos, act_key = self.pos, self.act_key
            return tuple(pos[act_key(sigma, k)] for k in self.keys)
        if len(word) == 1:
            x = word[0] + 1  # sigma swaps the points x and x + 1
            labelled, at = self._labelled
            return tuple(
                t if lab[x] == lab[x + 1] else at[lab[:x] + (lab[x + 1], lab[x]) + lab[x + 2:]]
                for t, lab in enumerate(labelled)
            )
        table = tuple(range(len(self.keys)))
        for i in word:
            table = tuple(map(self.table(from_cycles(len(w), [(i + 1, i + 2)])).__getitem__, table))
        return table

    def act(self, sigma, v: dict) -> dict:
        table = self.table(sigma)
        return {table[i]: c for i, c in v.items()}


class LinearIndex(_Positions):
    """Integer positions for the sorted keys of a finite basis on which S_n
    acts linearly, act_key(sigma, key) being a {key: coefficient} dict over
    the same keys, and one table per permutation: table(sigma)[i] is the
    tuple of (position, coefficient) terms of act_key(sigma, keys[i]).

    act_key runs once per (sigma, key).  The tables live as long as the
    index, which is meant to serve one computation (E2Page builds one per
    cohomology_cell_character call) and asks for the generators and the
    p(n) class representatives."""

    def __init__(self, keys, act_key):
        super().__init__(keys, act_key)
        self._tables: dict = {}

    def table(self, sigma) -> tuple[tuple[tuple[int, object], ...], ...]:
        table = self._tables.get(sigma)
        if table is None:
            pos, act_key = self.pos, self.act_key
            table = self._tables[sigma] = tuple(
                tuple((pos[k], c) for k, c in act_key(sigma, key).items()) for key in self.keys
            )
        return table

    def act(self, sigma, v: dict) -> dict:
        table = self.table(sigma)
        out: dict = {}
        for i, c in v.items():
            for j, x in table[i]:
                out[j] = out.get(j, 0) + x * c
        return {j: c for j, c in out.items() if c}


def _vanishing_poly(roots) -> list[int]:
    """Coefficients, lowest degree first, of prod (t - r) over the roots."""
    poly = [1]
    for r in roots:
        poly = [a - r * b for a, b in zip([0] + poly, poly + [0])]
    return poly


def _combine(coeffs, vectors) -> dict:
    """sum c_i w_i."""
    out: dict = {}
    for c, w in zip(coeffs, vectors):
        if c:
            add_into(out, w, c)
    return out


def _row_reading(mu: Partition) -> list[tuple[int, int]]:
    """The boxes (row, column) of the entries 1 .. n of the row-reading
    tableau T of mu, which fills the rows in turn: the one standard tableau
    of mu whose weight vectors the checkers take."""
    return [(i, j) for i, part in enumerate(mu) for j in range(part)]


def _addable(boxes) -> dict:
    """{content: box} of the boxes (row, column) that can be added to the
    Young diagram made of these boxes: one per row that may grow, and one
    in a new row below."""
    shape = [0] * len({i for i, _ in boxes}) + [0]
    for i, _ in boxes:
        shape[i] += 1
    return {part - i: (i, part) for i, part in enumerate(shape) if i == 0 or shape[i - 1] > part}


def _seminormal_path(mu: Partition, box: tuple[int, int]) -> list[tuple[int, int]]:
    """Young's seminormal steps (a, r) from T + box, the row-reading tableau
    T of mu with n = |mu| + 1 in box, to the row-reading tableau of mu + box:
    n trades places with each entry of the rows below box, the last first,
    so a runs down from n - 1 and r is the content of box less that of the
    entry a.  The two entries share no row or column, so each swap is
    standard, |r| >= 2, and r (a a+1) - 1 maps the weight vectors of the one
    tableau isomorphically onto those of the other (Okounkov-Vershik)."""
    row, col = box
    below = [(i, j) for i, j in _row_reading(mu) if i > row]
    n = sum(mu) + 1
    return [(n - 1 - k, (col - row) - (j - i)) for k, (i, j) in enumerate(reversed(below))]


class _JucysMurphy:
    """The Jucys-Murphy elements J_i = sum_{a<i} (a i) of S_n and Young's
    seminormal steps, on the vectors of one Rep in index positions, through
    its index's action (integer vectors stay integer).

    The vectors are not reduced by the modulus on the way: W is invariant,
    so reducing once at the end gives the same normal form."""

    def __init__(self, rep: "Rep"):
        self.n = rep.n
        self.act = rep.index.act

    @cached_property
    def jm(self) -> list[list]:
        """The transpositions (a i), a < i, of J_i, for i = 2 .. n."""
        n = self.n
        return [[from_cycles(n, [(a, i)]) for a in range(1, i)] for i in range(2, n + 1)]

    def krylov(self, i: int, w: dict, length: int) -> list[dict]:
        """w, J_i w, ..., J_i^length w: i - 1 transpositions a step."""
        out = [w]
        for _ in range(length):
            image: dict = {}
            for tau in self.jm[i - 2]:
                add_into(image, self.act(tau, out[-1]))
            out.append(image)
        return out

    def project(self, i: int, roots, w: dict) -> dict:
        """prod over the roots r of (J_i - r), applied to w."""
        return _combine(_vanishing_poly(roots), self.krylov(i, w, len(roots)))

    def seminormal(self, a: int, r: int, w: dict) -> dict:
        """r (a a+1) w - w: one step of _seminormal_path; (a a+1) is the last
        transposition of J_{a+1}."""
        out = {k: r * c for k, c in self.act(self.jm[a - 1][-1], w).items()}
        add_into(out, w, -1)
        return out


class Rep:
    """S/W for a span S of vectors and an optional invariant modulus W, with
    S_n acting through index (a KeyIndex or a LinearIndex); the echelon and
    the modulus are over the index's positions."""

    def __init__(self, n: int, index: KeyIndex | LinearIndex, vectors=(), modulus: Echelon | None = None):
        self.n = n
        self.index = index
        self.modulus = modulus
        self.echelon = Echelon()
        # mu -> independent weight vectors of the row-reading tableau of mu,
        # in positions: weight_vectors keeps what it finds, and
        # span_multiplicities a part that it fills
        self._weight_spaces: dict = {}
        for v in vectors:
            self.echelon.insert(self._nf(index.encode(v)))

    @property
    def dim(self) -> int:
        return self.echelon.dim

    @cached_property
    def _jucys_murphy(self) -> _JucysMurphy:
        return _JucysMurphy(self)

    # internal coordinates: the index's positions

    def _nf(self, v: dict) -> dict:
        return v if self.modulus is None else self.modulus.reduce(v)

    def _act(self, sigma, v: dict) -> dict:
        """Normal form of sigma . v, in positions."""
        return self._nf(self.index.act(sigma, v))

    # key-keyed interface

    def nf(self, v: dict) -> dict:
        """Normal form modulo W."""
        return self.index.decode(self._nf(self.index.encode(v)))

    def act_vec(self, sigma, v: dict) -> dict:
        return self.index.decode(self._act(sigma, self.index.encode(v)))

    def contains(self, v: dict) -> bool:
        return self.echelon.contains(self._nf(self.index.encode(v)))

    def basis(self) -> list[dict]:
        return [self.index.decode(v) for v in self.echelon.basis()]

    def modulus_basis(self) -> list[dict]:
        """Basis of W (empty without a modulus)."""
        return [] if self.modulus is None else [self.index.decode(w) for w in self.modulus.basis()]

    def character(self) -> ClassFunction:
        """Traces read off the echelon pivots; raises ValueError unless the
        span is invariant.  Only a monomial index without a modulus reads
        them without acting."""
        monomial = isinstance(self.index, KeyIndex) and self.modulus is None
        table = self.index.table if monomial else None
        return explicit_character(self.echelon, self.n, self._act, table=table)

    def decompose(self) -> MultiplicityVector:
        return decompose(self.character())

    def _check_counts(self, counts: dict) -> list:
        """The constituents of counts = {nu: m_nu}, sorted; a constituent
        left out of counts would leak into the projections by J_n of the
        others, so counts must add up to this level's dimension (ValueError
        otherwise)."""
        if sum(m * dim_irrep(nu) for nu, m in counts.items()) != self.dim:
            raise ValueError("counts is not the decomposition of this level")
        return sorted(nu for nu, m in counts.items() if m)

    def _seeds(self, seeds) -> list:
        """The nonzero normal forms of the seeds, integral, internal."""
        return [_integral(x)[0] for x in (self._nf(self.index.encode(s)) for s in seeds) if x]

    def weight_vectors(self, mu: Partition, m: int) -> list[dict]:
        """Up to m independent weight vectors of the row-reading tableau T of
        mu (_row_reading): vectors v with J_i v = c_T(i) v for i = 2 .. n,
        c_T(i) the content of the box of i.  They span a space of dimension
        m_mu, the multiplicity of V_mu, whose S_n-span is the V_mu-isotypic
        part (Okounkov-Vershik).

        The echelon rows are projected bottom-up until m of them are
        independent modulo the modulus.  On a vector whose J_2 .. J_{i-1}
        eigenvalues are T's, J_i has its eigenvalues among the contents of
        the boxes that can be added to T|_{i-1}, so the product of (J_i - c)
        over those contents other than c_T(i) projects it, up to a nonzero
        scalar, onto the eigenvalue c_T(i).  The vectors are kept, beside the
        full parts of span_multiplicities at this level, so a level that the
        previous step of a checker filled projects no row.
        """
        known = self._weight_spaces.get(mu, [])
        if len(known) < m:
            action = self._jucys_murphy
            boxes = _row_reading(mu)
            steps = [
                (i, [c for c in _addable(boxes[: i - 1]) if c != col - row])
                for i, (row, col) in enumerate(boxes[1:], 2)
            ]
            found = Echelon()
            known = []
            for _, y in self.echelon.rows:
                if found.dim >= m:
                    break
                for i, roots in steps:
                    y = self._nf(action.project(i, roots, y))
                    if not y:
                        break
                    y = _primitive(_integral(y)[0], min(y))
                if y and found.insert(y):
                    known.append(y)
            self._weight_spaces[mu] = known
        return [self.index.decode(v) for v in known[:m]]

    def span_multiplicities(self, weights: dict, counts: dict, nus=None) -> tuple[dict, list]:
        """({nu: multiplicity of V_nu in span(S_n . Y)}, faults) for the
        constituents nu of this level, counts = {nu: m_nu} being its
        decomposition and nus restricting the answer to some partitions.  Y
        is the span of weights = {mu: images of weight vectors of the
        row-reading tableau T of mu} over partitions mu of n - 1, the images
        under an S_{n-1}-equivariant map (phi_{n-1} of weight_vectors).

        Such an image y keeps J_i y = c_T(i) y for i < n, so by the
        branching rule it lies in the sum, over the boxes b with nu = mu + b
        a constituent, of the weight spaces of T + b, the tableau with n in b,
        each inside the V_nu-isotypic part.  J_n acts on them by the contents
        of the b, so the product of (J_n - c) over the other contents
        projects y onto the one of T + b.  e_nu is central, so the V_nu-part
        of span(S_n . Y) is the S_n-span of these projections over the
        mu = nu - b.  Young's seminormal steps (_seminormal_path) carry each
        weight space of T + b onto that of the row-reading tableau of nu,
        respecting the multiplicity space, and the multiplicity of nu is the
        rank there; a part that reaches m_nu takes no more vectors, and is
        kept as the weight vectors of nu at this level.  No span is closed.

        The guard: each image must satisfy J_i y = c_T(i) y for i < n modulo
        the modulus (_is_weight); the images that do not are counted in one
        ("off_branching", count) fault, and a multiplicity is meaningful
        only when there is none.  J_n needs no check of its own: on the
        weights of T its eigenvalues are the contents of the boxes that can
        be added to mu, and a box whose nu is no constituent has no weight
        space here.
        """
        constituents = self._check_counts(counts)
        mult = dict.fromkeys(constituents if nus is None else nus, 0)
        parts = {nu: Echelon() for nu in mult if counts.get(nu)}
        action = self._jucys_murphy
        off = 0
        for mu, images in weights.items():
            boxes = _row_reading(mu)
            added = _addable(boxes)
            grown = {nu: c for nu in constituents if (c := added_box_content(mu, nu)) in added}
            roots = sorted(grown.values())
            feeds = {
                nu: (_vanishing_poly([r for r in roots if r != c]), _seminormal_path(mu, added[c]))
                for nu, c in grown.items()
                if nu in parts
            }
            for y in self._seeds(images):
                if not self._is_weight(boxes, y):
                    off += 1
                krylov = None
                for nu, (projector, path) in feeds.items():
                    if parts[nu].dim == counts[nu]:
                        continue
                    krylov = krylov or action.krylov(self.n, y, len(roots) - 1)
                    v = _combine(projector, krylov)
                    for a, r in path:
                        v = action.seminormal(a, r, v)
                    parts[nu].insert(self._nf(v))
        mult.update((nu, part.dim) for nu, part in parts.items())
        if off:
            return mult, [("off_branching", off)]
        for nu, part in parts.items():
            if part.dim == counts[nu]:
                self._weight_spaces[nu] = [row for _, row in part.rows]
        return mult, []

    def _is_weight(self, boxes, y: dict) -> bool:
        """J_i y = c_T(i) y modulo the modulus for i = 2 .. len(boxes), T the
        tableau with entry k in boxes[k - 1].  Where i - 1 and i share a row,
        c_T(i) = c_T(i-1) + 1 and J_i = s J_{i-1} s + s for s = (i-1 i), so
        s y = y and the check of J_{i-1} give that of J_i, at the cost of one
        transposition rather than i - 1."""
        action = self._jucys_murphy
        for i, (row, col) in enumerate(boxes[1:], 2):
            if boxes[i - 2][0] == row:
                defect = action.seminormal(i - 1, 1, y)  # s y - y
            else:
                defect = action.project(i, [col - row], y)
            if self._nf(defect):
                return False
        return True

    def isotypic(self, counts: dict, nus=None) -> dict:
        """{nu: echelon basis of the V_nu-isotypic part} for the constituents
        nu of this level, counts = {nu: m_nu} being its decomposition; nus
        restricts the answer to some partitions (empty for one that is not a
        constituent).  Each part is the S_n-span of m_nu weight vectors; no
        checker calls this, the tests compare it with the n! group sum."""
        constituents = self._check_counts(counts)
        return {
            nu: self.sn_span(self.weight_vectors(nu, counts.get(nu, 0))).basis()
            for nu in (constituents if nus is None else nus)
        }

    def sn_span(self, seeds) -> "Rep":
        """Smallest invariant subspace containing the seeds (same level,
        modulus and index); the seeds are normalised here."""
        span = Rep(self.n, self.index, modulus=self.modulus)
        queue = [v for v in (self._nf(self.index.encode(s)) for s in seeds) if span.echelon.insert(v)]
        gens = generators(self.n)
        while queue:
            v = queue.pop()
            for g in gens:
                image = self._act(g, v)
                if span.echelon.insert(image):
                    queue.append(image)
        return span
