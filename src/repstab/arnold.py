"""The cohomology algebra of ordered Euclidean configuration spaces.

Generators G_ab (a != b, degree d-1) satisfy G_ab = (-1)^d G_ba, G_ab^2 = 0,
the three-term relation G_ab G_bc + G_bc G_ca + G_ca G_ab = 0, and graded
commutativity.  Normal-form monomials have each factor written (a, b) with
a < b and all second indices distinct and increasing; such monomials are
forests, and there are prod(1 + i t^{d-1}) of them weighted by degree.

Straightening rewrites the largest colliding pair first; the multiset of
second indices strictly decreases, so the rewriting terminates.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .characters import ClassFunction, decompose
from .linalg import add_into
from .partitions import partitions_of
from .perms import Perm, class_representative, inversion_sign

Monomial = tuple[tuple[int, int], ...]  # sorted by (second, first)


def poincare_polynomial(m: int, d: int) -> dict[int, int]:
    """Degree -> dimension for H^*(C_m(R^d)): coefficients of prod(1 + i t^(d-1))."""
    if m < 1 or d < 2:
        raise ValueError("need m >= 1 and d >= 2")
    coeffs = {0: 1}
    for i in range(1, m):
        coeffs = _poly_mul(coeffs, {0: 1, d - 1: i})
    return coeffs


def _poly_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Product of two polynomials stored as {degree: coefficient}."""
    out: dict[int, int] = {}
    for da, ca in a.items():
        for db, cb in b.items():
            out[da + db] = out.get(da + db, 0) + ca * cb
    return out


def format_polynomial(coeffs: dict[int, int]) -> str:
    terms = []
    for deg in sorted(coeffs):
        c = coeffs[deg]
        if deg == 0:
            terms.append(str(c))
        elif deg == 1:
            terms.append(f"{c}t" if c != 1 else "t")
        else:
            terms.append(f"{c}t^{deg}" if c != 1 else f"t^{deg}")
    return " + ".join(terms) if terms else "0"


def straighten(factors, d: int) -> dict[Monomial, int]:
    """Normal form of a product of generators G_xy as a sparse combination."""
    out: dict[Monomial, int] = {}
    _straighten_into(list(factors), d, 1, out)
    return {k: v for k, v in out.items() if v}


def _straighten_into(factors, d: int, coeff, out) -> None:
    kappa = -1 if d % 2 == 0 else 1  # sign for swapping two generators
    oriented = []
    for x, y in factors:
        if x == y:
            raise ValueError(f"generator G_{x}{x} does not exist")
        if x > y:
            x, y = y, x
            coeff *= (-1) ** d
        oriented.append((x, y))
    keys = [(b, a) for a, b in oriented]
    if kappa < 0 and inversion_sign(keys) < 0:
        coeff = -coeff
    ordered = [(a, b) for b, a in sorted(keys)]
    for i in range(len(ordered) - 1):
        if ordered[i] == ordered[i + 1]:
            return  # square-zero
    for i in range(len(ordered) - 1):
        a, b = ordered[i]
        c, b2 = ordered[i + 1]
        if b != b2:
            continue
        prefix, suffix = ordered[:i], ordered[i + 2:]
        # G_ab G_cb = -kappa(-1)^d G_ac G_cb - kappa G_ab G_ac   (a < c < b)
        sign1 = -kappa * (-1) ** d
        _straighten_into(prefix + [(a, c), (c, b)] + suffix, d, coeff * sign1, out)
        _straighten_into(prefix + [(a, b), (a, c)] + suffix, d, coeff * (-kappa), out)
        return
    add_into(out, {tuple(ordered): coeff})


def act_monomial(sigma: Perm, mono: Monomial, d: int) -> dict[Monomial, int]:
    """Relabel by sigma and straighten back to normal form."""
    return straighten([(sigma[a - 1], sigma[b - 1]) for a, b in mono], d)


def all_monomials(m: int) -> list[Monomial]:
    """Every normal-form monomial on m points: each b in 2..m picks a < b or nothing."""
    out: list[Monomial] = [()]
    for b in range(2, m + 1):
        nxt = []
        for mono in out:
            nxt.append(mono)
            nxt.extend(mono + ((a, b),) for a in range(1, b))
        out = nxt
    return [tuple(sorted(mono, key=lambda ab: (ab[1], ab[0]))) for mono in out]


def top_basis(m: int) -> list[Monomial]:
    """Monomials of full support: every b in 2..m occurs; there are (m-1)! of them."""
    out: list[Monomial] = [()]
    for b in range(2, m + 1):
        out = [mono + ((a, b),) for mono in out for a in range(1, b)]
    return out


def top_character(m: int, d: int) -> ClassFunction:
    """Character of the S_m action on the top-degree component.

    The straightening signs depend on d only through parity, so the result is
    cached per (m, d mod 2).
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if m > 8:
        raise ValueError("top_character capped at m = 8")
    return _top_character_by_parity(m, d % 2)


# top_character's m <= 8 cap allows at most 16 entries
@lru_cache(maxsize=16)
def _top_character_by_parity(m: int, parity: int) -> ClassFunction:
    return top_character_direct(m, 2 + parity)


def top_character_direct(m: int, d: int) -> ClassFunction:
    """Uncached trace computation: permute the (m-1)! top monomials and straighten."""
    basis = top_basis(m)
    values = []
    for rho in partitions_of(m):
        g = class_representative(rho, m)
        tr = 0
        for mono in basis:
            image = act_monomial(g, mono, d)
            tr += image.get(mono, 0)
        values.append(tr)
    return ClassFunction(m, tuple(values))


def induced_cyclic_sign_character(m: int, d: int = 2) -> ClassFunction:
    """Ind from the cyclic group C_m to S_m of (sign x faithful 1-dim) for
    even d, and of the faithful 1-dim character alone (the Lie character)
    for odd d: top_character(m, d) in closed form.

    Nonzero only on classes (l^g) with l*g = m, where the value is
    (l^g g!/m) * (-1)^((l-1)g) * moebius(l), without the sign factor for odd
    d; the Ramanujan-type sum of the primitive character over a fixed cycle
    type collapses to a Moebius value.
    """
    values = []
    for rho in partitions_of(m):
        parts = set(rho)
        if len(parts) != 1:
            values.append(0)
            continue
        ell = rho[0]
        g = len(rho)
        z_rho = ell**g * factorial(g)
        sign = (-1) ** ((ell - 1) * g) if d % 2 == 0 else 1
        val = Fraction(z_rho, m) * sign * _moebius(ell)
        assert val.denominator == 1
        values.append(int(val))
    return ClassFunction(m, tuple(values))


def _moebius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    if n > 1:
        out = -out
    return out


def trivial_multiplicity(chi: ClassFunction) -> Fraction:
    from .characters import trivial_character

    return chi.inner(trivial_character(chi.n))


def arnold_report(m: int, d: int) -> dict:
    """Poincare polynomial plus the decomposed top character (CLI payload)."""
    chi = top_character(m, d)
    return {
        "poincare": poincare_polynomial(m, d),
        "top_character": chi,
        "top_decomposition": decompose(chi).counts,
    }
