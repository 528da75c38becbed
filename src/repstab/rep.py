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

Traces come from characters.explicit_character.  Isotypic components and the
constituents of span(S_n . seeds) come from projections read off one Krylov
sequence per vector, fed by one loop (_projections) into one Echelon per
constituent until it is full.  Central projections are products of
Jucys-Murphy power sums: isotypic projects the echelon rows,
central_projections a combination of the seeds and then the seeds, and
span_multiplicities the seeds, whose span is not closed; sn_span, the
span-closure loop, closes only the parts of constituents that occur more
than once and stay short of full.  Seeds inside one V_mu-isotypic part of the
restriction to S_{n-1}, as the monotonicity checks have, are projected
through the branching rule instead (branch_multiplicities): the last
Jucys-Murphy element J_n alone tells the constituents mu + box apart, and
each multiplicity is a rank, so no span is closed.
"""

from functools import cached_property, lru_cache
from itertools import repeat

from .characters import ClassFunction, MultiplicityVector, content_power_sums, decompose, explicit_character
from .linalg import Echelon, _integral, add_into
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
    n(n-1)/2 transpositions (the n - 1 transpositions (a n) alone for a
    branching projection), and one pass of the acceptance gate's calls
    keeps at most 35 tables per index (an index at n = 7).

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


class _JucysMurphy:
    """The Jucys-Murphy elements J_i = sum_{a<i} (a i) of S_n and their power
    sums p_j(J) = sum_i J_i^j, on the vectors of one Rep in index positions,
    through its index's action (integer vectors stay integer).

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

    @cached_property
    def _all(self) -> list:
        return [tau for taus in self.jm for tau in taus]

    @cached_property
    def _last(self) -> list:
        n = self.n
        return [from_cycles(n, [(a, n)]) for a in range(1, n)]

    def _transpositions(self, taus, w: dict) -> dict:
        """sum of tau . w over the transpositions taus."""
        out: dict = {}
        for tau in taus:
            add_into(out, self.act(tau, w))
        return out

    def last(self, w: dict) -> dict:
        """J_n w: n - 1 transpositions."""
        return self._transpositions(self._last, w)

    def power_sum(self, w: dict, j: int) -> dict:
        """p_j(J) w."""
        if j == 1:
            return self._transpositions(self._all, w)
        powers = []
        for taus in self.jm:
            v = w
            for _ in range(j):
                v = self._transpositions(taus, v)
            powers.append(v)
        return _combine(repeat(1), powers)


class Rep:
    """S/W for a span S of vectors and an optional invariant modulus W, with
    S_n acting through index (a KeyIndex or a LinearIndex); the echelon and
    the modulus are over the index's positions."""

    def __init__(self, n: int, index: KeyIndex | LinearIndex, vectors=(), modulus: Echelon | None = None):
        self.n = n
        self.index = index
        self.modulus = modulus
        self.echelon = Echelon()
        for v in vectors:
            self.echelon.insert(self._nf(index.encode(v)))

    @property
    def dim(self) -> int:
        return self.echelon.dim

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
        left out of counts would leak into the central projections of the
        others, so counts must add up to this level's dimension (ValueError
        otherwise)."""
        if sum(m * dim_irrep(nu) for nu, m in counts.items()) != self.dim:
            raise ValueError("counts is not the decomposition of this level")
        return sorted(nu for nu, m in counts.items() if m)

    def _central(self, counts: dict):
        """The central projector of _projections: (x, wanted) -> {nu: nonzero
        multiple of e_nu x} for the wanted constituents (_project), counts
        being the level's decomposition (_check_counts)."""
        constituents = self._check_counts(counts)
        action = _JucysMurphy(self)
        return lambda x, wanted: self._project(action, x, constituents, wanted)

    def _projections(self, xs: list, full: dict, project) -> dict:
        """{nu: Echelon of the projections of the xs onto nu} for the nu of
        full, xs being integer vectors in internal normal form.  Each x is
        projected for every open part at once (project(x, open parts)); a
        part takes the normal forms of its projections until it holds
        full[nu] dimensions (none if 0), and the loop stops when none is
        open."""
        parts = {nu: Echelon() for nu in full}
        open_parts = {nu for nu, d in full.items() if d}
        for x in xs:
            if not open_parts:
                break
            for nu, y in project(x, open_parts).items():
                if parts[nu].insert(self._nf(y)) and parts[nu].dim == full[nu]:
                    open_parts.discard(nu)
        return parts

    def _seeds(self, seeds) -> list:
        """The nonzero normal forms of the seeds, integral, internal."""
        return [_integral(x)[0] for x in (self._nf(self.index.encode(s)) for s in seeds) if x]

    def isotypic(self, counts: dict, nus=None) -> dict:
        """{nu: echelon basis of the V_nu-isotypic part e_nu V} for the
        constituents nu of this level, counts = {nu: m_nu} being its
        decomposition; nus restricts the answer to some partitions (empty for
        one that is not a constituent).  The echelon rows are projected until
        each part holds m_nu f^nu dimensions."""
        project = self._central(counts)
        nus = self._check_counts(counts) if nus is None else nus
        full = {nu: counts.get(nu, 0) * dim_irrep(nu) for nu in nus}
        parts = self._projections([row for _, row in self.echelon.rows], full, project)
        return {nu: [self.index.decode(v) for v in part.basis()] for nu, part in parts.items()}

    def central_projections(self, seeds, counts: dict, nus=None) -> dict:
        """{nu: a nonzero multiple of e_nu x, for some x in the span of the
        seeds}, for each constituent nu of this level that e_nu does not
        kill on the seeds; counts = {nu: m_nu} is the level's decomposition
        and nus restricts the answer to some partitions.

        p_j(J) is central and acts on V_nu by the scalar
        content_power_sums(nu)[j - 1].  Over the distinct content sums c' of
        the constituents, P_c = prod_{c' != c} (p_1(J) - c') is a nonzero
        multiple of the central idempotent onto the constituents of content
        sum c; P_c x is read off one Krylov sequence x, p_1(J) x, ... shared by
        every c, with integer coefficients.  Constituents that tie on p_1 are
        split by p_2(J), p_3(J), ... the same way.  Each part needs one
        nonzero projection: the combination sum (i+1) x_i of the seeds is
        projected first, and the seeds one by one only for the parts it
        cancels.
        """
        project = self._central(counts)
        xs = self._seeds(seeds)
        combined: dict = {}
        for i, x in enumerate(xs):
            add_into(combined, x, i + 1)
        full = {nu: min(counts.get(nu, 0), 1) for nu in (counts if nus is None else nus)}
        parts = self._projections([combined, *xs] if len(xs) > 1 else xs, full, project)
        return {nu: self.index.decode(part.rows[0][1]) for nu, part in parts.items() if part.dim}

    def span_multiplicities(self, seeds, counts: dict, nus=None) -> dict:
        """{nu: multiplicity of V_nu in span(S_n . seeds)} for the constituents
        nu of this level, counts = {nu: m_nu} being its decomposition; nus
        restricts the answer to some partitions.

        e_nu span(S_n . X) = span(S_n . e_nu X), so a constituent is in the
        span exactly when central_projections finds it, once if m_nu = 1.
        For each one found with m_nu > 1, the seeds are projected until its
        part holds m_nu f^nu dimensions, and a part that stays short is
        closed (sn_span).  branch_multiplicities answers the same question
        without closing a span, for seeds that lie in one V_mu-isotypic part
        of the restriction to S_{n-1}.
        """
        mult = dict.fromkeys(counts if nus is None else nus, 0)
        full = {}
        for nu in self.central_projections(seeds, counts, nus):
            if counts[nu] == 1:
                mult[nu] = 1
            else:
                full[nu] = counts[nu] * dim_irrep(nu)
        if full:
            parts = self._projections(self._seeds(seeds), full, self._central(counts))
            for nu, part in parts.items():
                if part.dim < full[nu]:
                    part = self.sn_span([self.index.decode(row) for _, row in part.rows]).echelon
                mult[nu] = part.dim // dim_irrep(nu)
        return mult

    def branch_multiplicities(self, seeds: list, below: Partition, counts: dict, nus=None) -> tuple[dict, list]:
        """({nu: multiplicity of V_nu in span(S_n . seeds)}, faults) for the
        constituents nu of this level, counts = {nu: m_nu} being its
        decomposition and nus restricting the answer to some partitions, when
        the seeds lie in the V_mu-isotypic part of the level restricted to
        S_{n-1}, mu = below: either one vector of an irreducible
        S_{n-1}-submodule W, which stands for W, or a spanning set of an
        S_{n-1}-invariant subspace.

        By the branching rule that part is the sum over the constituents
        nu = mu + box of the mu-parts of their isotypic parts U_nu, and on the
        mu-part of U_nu = V_nu (x) C^{m_nu}, which is V_mu (x) C^{m_nu}, the
        last Jucys-Murphy element J_n acts by the content of the added box,
        distinct for each nu.  So prod_{c' != c_nu} (J_n - c') is a nonzero
        multiple of the projection onto the mu-part of U_nu, read off one
        Krylov sequence x, J_n x, ... of n - 1 transpositions a step.  An
        S_{n-1}-submodule V_mu (x) L there generates the S_n-module
        V_nu (x) L, so the multiplicity of nu is the rank of the projected
        seeds over f^mu, and 1 for a nonzero projection of one seed; every
        other constituent has multiplicity 0.  No span is closed.

        Seeds outside that part break the count, so each projected seed x
        must satisfy prod_c (J_n - c) x = 0 modulo the modulus, and each rank
        must be a multiple of f^mu.  The faults list what fails, as
        ("off_branching", number of seeds) and ("rank", nu, rank); a
        multiplicity is meaningful only when there are none.
        """
        added = {}  # nu = below + box: the content of the box
        for nu in self._check_counts(counts):
            c = added_box_content(below, nu)
            if c is not None:
                added[nu] = c
        roots = sorted(added.values())
        vanishing = _vanishing_poly(roots)
        projector = {nu: _vanishing_poly([r for r in roots if r != c]) for nu, c in added.items()}
        action = _JucysMurphy(self)
        off = []

        def project(x, wanted):
            krylov = [x]
            for _ in roots:
                krylov.append(action.last(krylov[-1]))
            if self._nf(_combine(vanishing, krylov)):
                off.append(x)
            return {nu: _combine(projector[nu], krylov) for nu in wanted}

        f = dim_irrep(below)
        mult = dict.fromkeys(counts if nus is None else nus, 0)
        full = {nu: counts[nu] * f for nu in mult if nu in added}
        parts = self._projections(self._seeds(seeds), full, project)
        faults = [("off_branching", len(off))] if off else []
        for nu, part in parts.items():
            if len(seeds) == 1:
                mult[nu] = part.dim
            elif part.dim % f:
                faults.append(("rank", nu, part.dim))
            else:
                mult[nu] = part.dim // f
        return mult, faults

    def _project(self, action: _JucysMurphy, x, constituents: list, wanted: set, j: int = 1) -> dict:
        """{nu: nonzero multiple of e_nu x} for the wanted constituents, given
        x in the sum of the constituents' isotypic parts, all of which agree
        on p_1 .. p_{j-1}; a zero projection may be left out."""
        if len(constituents) == 1:
            return {nu: x for nu in constituents if nu in wanted}
        value = {nu: content_power_sums(nu, j)[-1] for nu in constituents}
        roots = sorted(set(value.values()))
        if len(roots) == 1:
            return self._project(action, x, constituents, wanted, j + 1)
        krylov = [x]
        while len(krylov) < len(roots):
            krylov.append(action.power_sum(krylov[-1], j))
        out = {}
        for c in roots:
            group = [nu for nu in constituents if value[nu] == c]
            if wanted.isdisjoint(group):
                continue
            y = _combine(_vanishing_poly([r for r in roots if r != c]), krylov)
            if y:
                out.update(self._project(action, y, group, wanted, j + 1))
        return out

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
