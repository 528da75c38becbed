"""Configuration-space cohomology: Betti numbers of B_n(M) and B_{n,mu}(M).

Two computable regimes, with the transfer isomorphism doing the work:

* odd-dimensional M: the invariant page collapses to the bottom row, so
  unordered Betti numbers are graded-symmetric invariants of H^*(M)^(x n),
  computed here by an exact cycle-index sum (and cross-checked against the
  Sym/Lambda partition sum of graded_invariants_dim);
* descriptors with a diagonal class and the single_differential flag (the
  smooth projective situation): cohomology of the S_n-invariant subcomplex
  of the explicit page.

Colored configurations quotient by a Young subgroup instead of all of S_n
and are computed from the decomposition of the surviving page into
irreducibles.
"""

from fractions import Fraction
from math import comb

from .characters import decompose, young_invariants_dim
from .e2 import (
    BudgetExceeded,
    E2Page,
    InvariantComplex,
    NotComputable,
    _poly_mul,
    block_rows,
    e2_cell_character,
    e2_cell_dim,
)
from .linalg import Echelon, add_into, kernel_basis
from .manifolds import ManifoldDescriptor, load_manifold
from .partitions import Partition, make_partition, partitions_of
from .perms import centralizer_order

__all__ = [
    "load_manifold",
    "e2_page",
    "e2_cell_character",
    "e2_cell_dim",
    "betti_unordered",
    "colored_betti",
    "graded_invariants_dim",
    "tensor_power_invariants_dim",
    "stable_range_report",
    "correspondence_injective",
    "block_rows",
    "NotComputable",
]

_PAGES: dict = {}


def e2_page(desc: ManifoldDescriptor, n: int, budget: int = 200_000) -> E2Page:
    """The cached explicit page; a cached page still has to fit the budget."""
    key = (desc.name, id(desc), n)
    if key not in _PAGES:
        _PAGES[key] = E2Page(desc, n, budget=budget)
    page = _PAGES[key]
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
            g_t: dict[int, int] = {}
            for deg, dim in poincare.items():
                g_t[deg * t] = g_t.get(deg * t, 0) + (-1) ** (deg * (t - 1)) * dim
            poly = _poly_mul(poly, g_t)
        total += Fraction(poly.get(p, 0), centralizer_order(rho))
    if total.denominator != 1:
        raise ArithmeticError(f"non-integral invariant dimension {total}")
    return int(total)


def graded_invariants_dim(poincare: dict[int, int], n: int, p: int) -> int:
    """Same dimension by the Sym(even) x Lambda(odd) partition sum.

    Requires a one-dimensional degree-0 part; the summands are indexed by
    how many tensor factors carry each positive degree.
    """
    if poincare.get(0, 0) != 1:
        raise ValueError("graded_invariants_dim requires dim V^(0) = 1")
    degrees = sorted(deg for deg in poincare if deg > 0)

    def count(i: int, slots: int, degree_left: int) -> int:
        if degree_left == 0 and i == len(degrees):
            return 1 if slots >= 0 else 0
        if i == len(degrees):
            return 0
        deg = degrees[i]
        b = poincare[deg]
        total = 0
        a = 0
        while a <= slots and a * deg <= degree_left:
            ways = comb(b, a) if deg % 2 else comb(a + b - 1, a)
            if ways:
                total += ways * count(i + 1, slots - a, degree_left - a * deg)
            a += 1
        return total

    if n < 0:
        return 0
    return count(0, n, p)


def stabilization_onset(poincare: dict[int, int], p: int) -> int:
    """floor(p/k) with k the lowest positive degree carrying cohomology."""
    positive = sorted(deg for deg, dim in poincare.items() if deg > 0 and dim)
    if not positive:
        return 0
    return p // positive[0]


def betti_unordered(desc: ManifoldDescriptor, n: int, i: int, budget: int = 200_000) -> int:
    """dim H^i(B_n(M); Q) via the transfer isomorphism."""
    if n < 0 or i < 0:
        raise ValueError("need n, i >= 0")
    if desc.d % 2 == 1:
        return tensor_power_invariants_dim(desc.poincare(), n, i)
    if desc.diagonal is not None and "single_differential" in desc.flags:
        inv = _invariant_complex(desc, n, budget)
        return inv.betti(i)
    raise NotComputable(
        f"{desc.name}: closed even-dimensional descriptor without the "
        "single_differential flag (the page may not degenerate after one "
        "differential)"
    )


_INVARIANT: dict = {}


def _invariant_complex(desc: ManifoldDescriptor, n: int, budget: int) -> InvariantComplex:
    page = e2_page(desc, n, budget)  # checks the budget on cache hits too
    key = (desc.name, id(desc), n)
    if key not in _INVARIANT:
        _INVARIANT[key] = InvariantComplex(page)
    return _INVARIANT[key]


def ordered_betti(desc: ManifoldDescriptor, n: int, i: int, budget: int = 200_000) -> int:
    """dim H^i(C_n(M); Q) from the degenerate explicit page."""
    if desc.diagonal is None or "single_differential" not in desc.flags:
        raise NotComputable(f"{desc.name}: ordered Betti needs the explicit complex")
    return e2_page(desc, n, budget).betti_ordered(i)


def colored_betti(desc: ManifoldDescriptor, n: int, i: int, mu: Partition, budget: int = 200_000) -> int:
    """dim H^i(B_{n,mu}(M); Q): invariants under the Young subgroup S_{n,mu}.

    mu = () is the unordered case; otherwise the surviving page is decomposed
    into irreducibles and each contributes its Young-invariant dimension.
    """
    if n < 0 or i < 0:
        raise ValueError("need n, i >= 0")
    mu = make_partition(mu)
    if sum(mu) > n:
        raise ValueError(f"|mu| = {sum(mu)} exceeds n = {n}")
    if mu == ():
        return betti_unordered(desc, n, i, budget)
    if desc.diagonal is None or "single_differential" not in desc.flags:
        raise NotComputable(
            f"{desc.name}: colored Betti numbers need the explicit complex"
        )
    return _colored_via_characters(desc, n, i, mu, budget)


def _colored_via_characters(desc: ManifoldDescriptor, n: int, i: int, mu: Partition, budget: int) -> int:
    page = e2_page(desc, n, budget)
    total = 0
    d = desc.d
    for q in range(n // 2 + 1):
        p = i - q * (d - 1)
        if p < 0 or not page.cell(p, q):
            continue
        chi = page.cohomology_cell_character(p, q)
        for lam, mult in decompose(chi).counts.items():
            total += mult * young_invariants_dim(lam, mu)
    return total


def correspondence_injective(desc: ManifoldDescriptor, n: int, i: int, budget: int = 200_000) -> bool:
    """The composition (H^i C_n)^{S_n} -> H^i(C_{n+1}) -> (H^i C_{n+1})^{S_{n+1}}.

    Monotonicity for the trivial representation says this is injective once
    n > i; checked here on explicit cocycle representatives.
    """
    page_n = e2_page(desc, n, budget)
    page_m = e2_page(desc, n + 1, budget)
    inv_n = _invariant_complex(desc, n, budget)
    inv_m = _invariant_complex(desc, n + 1, budget)
    d = desc.d

    def iota_vec(v: dict) -> dict:
        out = {}
        for (mono, word), c in v.items():
            out[(mono, word + (desc.unit,))] = c
        return out

    # cocycle representatives of the degree-i invariant cohomology at level n
    reps: list[dict] = []
    for q in range(n // 2 + 1):
        p = i - q * (d - 1)
        if p < 0:
            continue
        basis_vecs = inv_n.basis(p, q).basis()
        if not basis_vecs:
            continue
        chosen = Echelon(
            [page_n.diff_vec(v) for v in inv_n.basis(p - d, q + 1).basis()]
        )
        for v in kernel_basis([page_n.diff_vec(b) for b in basis_vecs], basis_vecs):
            if chosen.insert(v):
                reps.append(v)
    if not reps:
        return True
    check = Echelon()
    for q in range((n + 1) // 2 + 1):
        p = i - q * (d - 1)
        if p < 0:
            continue
        for v in inv_m.basis(p - d, q + 1).basis():
            check.insert(page_m.diff_vec(v))
    ok = True
    for v in reps:
        averaged: dict = {}
        for key, c in iota_vec(v).items():
            add_into(averaged, page_m.orbit_average(key), c)
        if not check.insert(averaged):
            ok = False
    return ok


def euler_characteristic_consistency(desc: ManifoldDescriptor, n: int, budget: int = 200_000) -> bool:
    """Alternating sums agree before and after taking cohomology."""
    page = e2_page(desc, n, budget)
    from_cells = page.euler_characteristic()
    top = max(p + qd1 for (p, qd1) in page.cell_dims())
    from_cohomology = sum((-1) ** i * page.betti_ordered(i) for i in range(top + 1))
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
