"""Explicit S_n-representations: the span of vectors in a free module with a
linear action, optionally modulo an invariant subspace.

Rep is the one class behind Specht spans (specht.specht_module), the levels
of consistent sequences (stability) and the cohomology cells of the explicit
E2 page (e2).  It keeps the span as a reduced Echelon and takes a vector
action act(sigma, v), so non-monomial actions (the E2 page's) need nothing
extra.  Traces and isotypic components come from characters.explicit_character
and characters.central_isotypic; sn_span is the one span-closure loop.
"""

from .characters import (
    ClassFunction,
    MultiplicityVector,
    central_isotypic,
    decompose,
    explicit_character,
)
from .linalg import Echelon
from .partitions import Partition
from .perms import generators


class Rep:
    """S/W for a span S of vectors and an optional invariant modulus W, with
    S_n acting by act(sigma, v)."""

    def __init__(self, n: int, act, vectors=(), modulus: Echelon | None = None):
        self.n = n
        self.act = act
        self.modulus = modulus
        self.echelon = Echelon()
        for v in vectors:
            self.echelon.insert(self.nf(v))

    @property
    def dim(self) -> int:
        return self.echelon.dim

    def nf(self, v: dict) -> dict:
        """Normal form modulo W; v itself when there is no modulus."""
        return v if self.modulus is None else self.modulus.reduce(v)

    def act_vec(self, sigma, v: dict) -> dict:
        return self.nf(self.act(sigma, v))

    def contains(self, v: dict) -> bool:
        return self.echelon.contains(self.nf(v))

    def basis(self) -> list[dict]:
        return self.echelon.basis()

    def character(self) -> ClassFunction:
        """Traces read off the echelon pivots; raises ValueError unless the
        span is invariant."""
        return explicit_character(self.echelon, self.n, self.act_vec)

    def decompose(self) -> MultiplicityVector:
        return decompose(self.character())

    def isotypic(self, mu: Partition) -> list[dict]:
        """Echelon basis of the V_mu-isotypic component (Jucys-Murphy kernel)."""
        return central_isotypic(self.echelon, mu, self.n, self.act_vec)

    def sn_span(self, seeds) -> "Rep":
        """Smallest invariant subspace containing the seeds (same level and
        modulus); the seeds are normalised here."""
        span = Rep(self.n, self.act, modulus=self.modulus)
        queue = [v for v in map(self.nf, seeds) if span.echelon.insert(v)]
        gens = generators(self.n)
        while queue:
            v = queue.pop()
            for g in gens:
                image = self.act_vec(g, v)
                if span.echelon.insert(image):
                    queue.append(image)
        return span
