"""Configuration-space cohomology: Betti numbers of B_n(M) and B_{n,mu}(M).

Two computable regimes, with the transfer isomorphism doing the work:

* odd-dimensional M: the invariant page collapses to the bottom row, so
  unordered Betti numbers are the graded-symmetric power Sym^n(H^*(M)),
  Sym on the even classes and Lambda on the odd ones, counted in time
  polynomial in n by graded_invariants_dim; the exact cycle-index sum over
  the cycle types of S_n (tensor_power_invariants_dim) is kept as the
  reference that tests compare it with;
* descriptors with a diagonal class and the single_differential flag (the
  smooth projective situation): cohomology of the page's coinvariants under
  S_n, or under the Young subgroup S_{n-k} x S_mu for colored
  configurations, computed by e2.InvariantComplex without building a page
  cell.  Each orbit pattern of keys factors over its block types, so the
  only relation solve is one small block space per block shape, and the
  unordered case has no budget.
"""

from collections import OrderedDict
from fractions import Fraction
from math import factorial

from .arnold import _poly_mul
from .e2 import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    E2Page,
    InvariantComplex,
    NotComputable,
    _cycle_trace,
    e2_cell_dim,
    graded_power,
)
from .linalg import Echelon
from .manifolds import ManifoldDescriptor, load_manifold
from .partitions import Partition, make_partition, partitions_of
from .perms import centralizer_order

__all__ = [
    "load_manifold",
    "e2_page",
    "e2_cell_dim",
    "betti_unordered",
    "colored_betti",
    "colored_pattern_bound",
    "graded_invariants_dim",
    "tensor_power_invariants_dim",
    "stable_range_report",
    "correspondence_injective",
    "NotComputable",
]


class BoundedCache(OrderedDict):
    """A dict that keeps only its maxsize most recently used entries."""

    def __init__(self, maxsize: int):
        super().__init__()
        self.maxsize = maxsize

    def fetch(self, key, build):
        """The entry for key, built by build() on a miss."""
        if key in self:
            self.move_to_end(key)
            return self[key]
        value = self[key] = build()
        if len(self) > self.maxsize:
            self.popitem(last=False)
        return value


# Keyed by (name, id(desc), n), and _INVARIANT also by mu; a cached value
# holds desc, so its id stays unique.  One pass of the acceptance gate's
# calls builds no explicit page and 8 invariant complexes.
_PAGES = BoundedCache(16)
_INVARIANT = BoundedCache(64)


def e2_page(desc: ManifoldDescriptor, n: int, budget: int = DEFAULT_BUDGET) -> E2Page:
    """The cached explicit page; a cached page still has to fit the budget."""
    # no cells yet: the check below comes first
    page = _PAGES.fetch((desc.name, id(desc), n), lambda: E2Page(desc, n))
    if page.total_dim > budget:
        raise BudgetExceeded(f"E2 page for n={n} exceeds the {budget}-element budget")
    return page


def tensor_power_invariants_dim(poincare: dict[int, int], n: int, p: int) -> int:
    """Degree-p dimension of ((V^(x n))^{S_n}) by the exact cycle-index sum.

    The graded trace of a t-cycle on V^(x t) is sum_j (-1)^(j(t-1)) dim V^(j)
    x^(jt); averaging the products over cycle types gives the invariants.
    """
    total = Fraction(0)
    for rho in partitions_of(n):
        poly = {0: 1}
        for t in rho:
            poly = _poly_mul(poly, _cycle_trace(poincare, t))
        total += Fraction(poly.get(p, 0), centralizer_order(rho))
    if total.denominator != 1:
        raise ArithmeticError(f"non-integral invariant dimension {total}")
    return int(total)


def graded_invariants_dim(poincare: dict[int, int], n: int, p: int) -> int:
    """Same dimension as the graded-symmetric power Sym^n(V): Sym on the
    even classes and Lambda on the odd ones (e2.graded_power), polynomial
    in n.  Requires a one-dimensional degree-0 part."""
    if poincare.get(0, 0) != 1:
        raise ValueError("graded_invariants_dim requires dim V^(0) = 1")
    if p < 0:
        return 0
    return graded_power(poincare, n, 0, p)[p]


def stabilization_onset(poincare: dict[int, int], p: int) -> int:
    """floor(p/k) with k the lowest positive degree carrying cohomology."""
    positive = sorted(deg for deg, dim in poincare.items() if deg > 0 and dim)
    if not positive:
        return 0
    return p // positive[0]


def betti_unordered(desc: ManifoldDescriptor, n: int, i: int) -> int:
    """dim H^i(B_n(M); Q) via the transfer isomorphism."""
    if n < 0 or i < 0:
        raise ValueError("need n, i >= 0")
    if desc.d % 2 == 1:
        return graded_invariants_dim(desc.poincare(), n, i)
    if desc.diagonal is not None and "single_differential" in desc.flags:
        return _invariant_complex(desc, n).betti(i)
    raise NotComputable(
        f"{desc.name}: closed even-dimensional descriptor without the "
        "single_differential flag (the page may not degenerate after one "
        "differential)"
    )


def _invariant_complex(desc: ManifoldDescriptor, n: int, mu: Partition = ()) -> InvariantComplex:
    """The coinvariant complex of S_{n-|mu|} x S_mu, S_n for mu = ()."""
    return _INVARIANT.fetch((desc.name, id(desc), n, mu), lambda: InvariantComplex(E2Page(desc, n), mu))


def ordered_betti(desc: ManifoldDescriptor, n: int, i: int, budget: int = DEFAULT_BUDGET) -> int:
    """dim H^i(C_n(M); Q) from the degenerate explicit page."""
    if desc.diagonal is None or "single_differential" not in desc.flags:
        raise NotComputable(f"{desc.name}: ordered Betti needs the explicit complex")
    return e2_page(desc, n, budget).betti(i)


def colored_betti(desc: ManifoldDescriptor, n: int, i: int, mu: Partition) -> int:
    """dim H^i(B_{n,mu}(M); Q): invariants under the Young subgroup S_{n,mu}.

    mu = () is the unordered case; otherwise the cohomology of the page's
    Young-subgroup coinvariants (e2.InvariantComplex).
    """
    if n < 0 or i < 0:
        raise ValueError("need n, i >= 0")
    mu = make_partition(mu)
    if sum(mu) > n:
        raise ValueError(f"|mu| = {sum(mu)} exceeds n = {n}")
    if mu == ():
        return betti_unordered(desc, n, i)
    if desc.diagonal is None or "single_differential" not in desc.flags:
        raise NotComputable(
            f"{desc.name}: colored Betti numbers need a diagonal class and the "
            "single_differential flag"
        )
    return _invariant_complex(desc, n, mu).betti(i)


def colored_pattern_bound(desc: ManifoldDescriptor, n: int, i: int) -> int:
    """A bound on the largest block space that colored_betti solves in
    degree i: a block of s points has (s - 1)! <= q! keys, and a key of
    total degree i has q <= min(n - 1, i // (d - 1)) edges.  1 where
    colored_betti refuses before solving anything (d < 2, negative n or i)."""
    if desc.d < 2:
        return 1
    return factorial(max(0, min(n - 1, i // (desc.d - 1))))


def correspondence_injective(desc: ManifoldDescriptor, n: int, i: int) -> bool:
    """The composition (H^i C_n)^{S_n} -> H^i(C_{n+1}) -> (H^i C_{n+1})^{S_{n+1}}.

    Monotonicity for the trivial representation says this is injective once
    n > i; checked here on the coinvariant complexes, where the S_{n+1}-average
    of iota(v) is the class of iota(v).
    """
    inv_n = _invariant_complex(desc, n)
    inv_m = _invariant_complex(desc, n + 1)
    # cocycle representatives of the degree-i cohomology at level n
    reps: list[dict] = []
    for p, q in inv_n.cells_in_degree(i):
        chosen = Echelon(inv_n.boundaries(p, q))
        reps += [v for v in inv_n.cycles(p, q) if chosen.insert(v)]
    if not reps:
        return True
    check = Echelon([v for p, q in inv_m.cells_in_degree(i) for v in inv_m.boundaries(p, q)])
    # iota adds point n+1 carrying the unit class
    lifted = [{(mono, word + (desc.unit,)): c for (mono, word), c in v.items()} for v in reps]
    return all(check.insert(inv_m.classes(v)) for v in lifted)


def euler_characteristic_consistency(desc: ManifoldDescriptor, n: int, budget: int = DEFAULT_BUDGET) -> bool:
    """Alternating sums agree before and after taking cohomology."""
    page = e2_page(desc, n, budget)
    from_cells = page.euler_characteristic()
    top = max(p + qd1 for (p, qd1) in page.cell_dims())
    from_cohomology = sum((-1) ** i * page.betti(i) for i in range(top + 1))
    return from_cells == from_cohomology


def stable_range_report(desc: ManifoldDescriptor, i: int) -> list[tuple[str, str]]:
    """The applicable theoretical stable ranges for degree i."""
    rows = []
    ordered = 2 * i if desc.d >= 3 else 4 * i
    rows.append(("ordered", f"n >= {ordered}"))
    rows.append(("unordered", f"n >= {i + 1}"))
    poincare = desc.poincare()
    k = next(
        (deg for deg in range(1, desc.d) if poincare.get(deg, 0)),
        None,
    )
    if k is not None:
        rows.append(("unordered-improved", f"n >= {i // k + 1} (k = {k})"))
    rows.append(("colored", f"n >= max({ordered}, 2|mu|)"))
    return rows
