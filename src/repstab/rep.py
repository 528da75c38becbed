"""Explicit S_n-representations: the span of vectors in a free module with a
linear action, optionally modulo an invariant subspace.

Rep is the one class behind Specht spans (specht.specht_module), the levels
of consistent sequences (stability) and the cohomology cells of the explicit
E2 page (e2).  It keeps the span as a reduced Echelon and takes a vector
action act(sigma, v).  Traces and isotypic components come from
characters.explicit_character and characters.central_isotypic; sn_span is
the one span-closure loop.

An index over the keys of a finite basis lets a Rep act by table lookups:
the echelon is kept over integer positions in sorted key order, and sigma
acts on a vector through one table per permutation.  Every public method
still takes and returns key-keyed vectors, and since positions follow the
key order, pivots and bases are those of the keyed computation.

* KeyIndex serves monomial actions, where S_n permutes the keys (the tabloid
  modules).  Without a modulus, traces are read as row[g^-1 . pivot] without
  acting on any row; a quotient still acts and reduces.
* LinearIndex serves linear actions, where sigma sends a key to a
  combination of keys (the E2 page, whose Arnold straightening is not
  monomial).  Each table entry is the tuple of (position, coefficient) terms
  of one key's image, so the key action runs once per (sigma, key); traces
  act on the rows.

The generic act(sigma, v) path without an index serves sums of
representations, and is the oracle the tests compare both indices against.
"""

from functools import lru_cache

from .characters import (
    ClassFunction,
    MultiplicityVector,
    central_isotypic,
    decompose,
    explicit_character,
    jucys_murphy_pivots,
    separating_degree,
)
from .linalg import Echelon
from .partitions import Partition
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
    n(n-1)/2 transpositions, and one pass of the acceptance gate's calls
    keeps at most 26 tables per index."""

    def __init__(self, keys, act_key):
        super().__init__(keys, act_key)
        self.table = lru_cache(maxsize=256)(self._build_table)

    def _build_table(self, sigma) -> tuple[int, ...]:
        """act_key gives the tables of the adjacent transpositions s_i =
        (i+1 i+2); any other sigma = s_{i_m} ... s_{i_1}, read off a bubble
        sort of its one-line form, composes theirs."""
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
        if len(word) == 1:
            pos, act_key = self.pos, self.act_key
            return tuple(pos[act_key(sigma, k)] for k in self.keys)
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


class Rep:
    """S/W for a span S of vectors and an optional invariant modulus W, with
    S_n acting by act(sigma, v).

    With an index (a KeyIndex or a LinearIndex), act must agree with the
    index's key action; the echelon and the modulus are then over the
    index's positions, and the Rep acts through its tables.  closed is True
    for a Rep that sn_span built, whose span is invariant by construction,
    so its trace skips the check."""

    closed = False

    def __init__(
        self, n: int, act, vectors=(), modulus: Echelon | None = None, index: KeyIndex | LinearIndex | None = None
    ):
        self.n = n
        self.act = act
        self.modulus = modulus
        self.index = index
        self.echelon = Echelon()
        self._jm = (0, 0, [])  # (dim, degree, Jucys-Murphy pivot entries per row)
        for v in vectors:
            self.echelon.insert(self._nf(self._encode(v)))

    @property
    def dim(self) -> int:
        return self.echelon.dim

    # internal coordinates: positions with an index, keys without

    def _encode(self, v: dict) -> dict:
        return v if self.index is None else self.index.encode(v)

    def _decode(self, v: dict) -> dict:
        return v if self.index is None else self.index.decode(v)

    def _nf(self, v: dict) -> dict:
        return v if self.modulus is None else self.modulus.reduce(v)

    def _act(self, sigma, v: dict) -> dict:
        """Normal form of sigma . v, in internal coordinates."""
        if self.index is None:
            return self._nf(self.act(sigma, v))
        return self._nf(self.index.act(sigma, v))

    # key-keyed interface

    def nf(self, v: dict) -> dict:
        """Normal form modulo W; v itself when there is neither a modulus
        nor an index."""
        return self._decode(self._nf(self._encode(v)))

    def act_vec(self, sigma, v: dict) -> dict:
        return self._decode(self._act(sigma, self._encode(v)))

    def contains(self, v: dict) -> bool:
        return self.echelon.contains(self._nf(self._encode(v)))

    def basis(self) -> list[dict]:
        return [self._decode(v) for v in self.echelon.basis()]

    def modulus_basis(self) -> list[dict]:
        """Basis of W (empty without a modulus)."""
        return [] if self.modulus is None else [self._decode(w) for w in self.modulus.basis()]

    def character(self) -> ClassFunction:
        """Traces read off the echelon pivots; raises ValueError unless the
        span is invariant (checked unless sn_span built it).  Only a
        monomial index without a modulus reads them without acting."""
        monomial = isinstance(self.index, KeyIndex) and self.modulus is None
        table = self.index.table if monomial else None
        return explicit_character(self.echelon, self.n, self._act, table=table, closed=self.closed)

    def decompose(self) -> MultiplicityVector:
        return decompose(self.character())

    def isotypic(self, mu: Partition) -> list[dict]:
        """Echelon basis of the V_mu-isotypic component (Jucys-Murphy kernel).

        The Jucys-Murphy pivot entries are computed once per span, up to the
        largest separating degree asked so far, and shared by every mu."""
        k = separating_degree(mu)
        dim, degree, powers = self._jm
        if dim != self.dim or degree < k:
            powers = jucys_murphy_pivots(self.echelon, self.n, self._act, k)
            self._jm = (self.dim, k, powers)
        return [self._decode(v) for v in central_isotypic(self.echelon, mu, self.n, self._act, powers)]

    def sn_span(self, seeds) -> "Rep":
        """Smallest invariant subspace containing the seeds (same level,
        modulus and index); the seeds are normalised here."""
        span = Rep(self.n, self.act, modulus=self.modulus, index=self.index)
        span.closed = True  # every vector that grew it has its generator images inserted
        queue = [v for v in (self._nf(self._encode(s)) for s in seeds) if span.echelon.insert(v)]
        gens = generators(self.n)
        while queue:
            v = queue.pop()
            for g in gens:
                image = self._act(g, v)
                if span.echelon.insert(image):
                    queue.append(image)
        return span
