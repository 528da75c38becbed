"""Finite presentations of H^*(M;Q): basis, products, diagonal class, flags.

The descriptor file format is line oriented:

    name torus
    dim 2
    flag closed
    class 1 0            # NAME DEGREE; exactly one degree-0 class (connected)
    mul a b pt 1         # a*b = 1*pt (+ more lines for more summands)
    diag a b -1/1        # diagonal class summand a (x) b with coefficient

Rationals are written p/q and parsed to an int when q divides p.  Unit
products and graded-commutative mirror products are filled in automatically;
a descriptor that contradicts graded commutativity or (when a diagonal is
present) Poincare duality is rejected.
"""

import os
from fractions import Fraction

from ._record import Record
from .linalg import Echelon


# where the package data installs the bundled descriptors
_DATA = os.path.join(os.path.dirname(__file__), "data")


class DescriptorError(Exception):
    pass


class ManifoldDescriptor(Record):
    """A parsed descriptor: products maps (i, j) -> {k: int | Fraction}, and
    diagonal is [(i, j, int | Fraction)] or None; flags starts empty when
    omitted."""

    _fields = ("name", "d", "class_names", "degrees", "products", "diagonal", "flags")

    def __init__(
        self,
        name: str,
        d: int,
        class_names: list[str],
        degrees: list[int],
        products: dict,
        diagonal: list | None,
        flags: set | None = None,
    ):
        self.name = name
        self.d = d
        self.class_names = class_names
        self.degrees = degrees
        self.products = products
        self.diagonal = diagonal
        self.flags = set() if flags is None else flags

    @property
    def dim_total(self) -> int:
        return len(self.class_names)

    @property
    def unit(self) -> int:
        return self.degrees.index(0)

    def betti(self, i: int) -> int:
        return sum(1 for deg in self.degrees if deg == i)

    def poincare(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for deg in self.degrees:
            out[deg] = out.get(deg, 0) + 1
        return out

    def euler_characteristic(self) -> int:
        return sum((-1) ** deg for deg in self.degrees)

    def product(self, i: int, j: int) -> dict:
        return self.products.get((i, j), {})

    def index(self, name: str) -> int:
        try:
            return self.class_names.index(name)
        except ValueError as exc:
            raise DescriptorError(f"unknown class {name!r}") from exc


def _parse_fraction(text: str) -> int | Fraction:
    num, slash, den = text.partition("/")
    value = Fraction(int(num), int(den) if slash else 1)
    return value.numerator if value.denominator == 1 else value


def parse_descriptor(text: str, source: str = "<string>") -> ManifoldDescriptor:
    name = None
    d = None
    class_names: list[str] = []
    degrees: list[int] = []
    raw_products: list[tuple[int, str, str, str, int | Fraction]] = []
    raw_diag: list[tuple[int, str, str, int | Fraction]] = []
    flags: set = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "name" and len(parts) == 2:
                name = parts[1]
            elif parts[0] == "dim" and len(parts) == 2:
                d = int(parts[1])
            elif parts[0] == "flag" and len(parts) == 2:
                flags.add(parts[1])
            elif parts[0] == "class" and len(parts) == 3:
                class_names.append(parts[1])
                degrees.append(int(parts[2]))
            elif parts[0] == "mul" and len(parts) == 5:
                raw_products.append((lineno, parts[1], parts[2], parts[3], _parse_fraction(parts[4])))
            elif parts[0] == "diag" and len(parts) == 4:
                raw_diag.append((lineno, parts[1], parts[2], _parse_fraction(parts[3])))
            else:
                raise DescriptorError(f"{source}:{lineno}: cannot parse {raw!r}")
        except (ValueError, IndexError, ZeroDivisionError) as exc:
            raise DescriptorError(f"{source}:{lineno}: cannot parse {raw!r}") from exc

    if d is None:
        raise DescriptorError(f"{source}: missing `dim` line")
    if name is None:
        name = source
    if len(set(class_names)) != len(class_names):
        raise DescriptorError(f"{source}: duplicate class names")

    desc = ManifoldDescriptor(
        name=name,
        d=d,
        class_names=class_names,
        degrees=degrees,
        products={},
        diagonal=None,
        flags=flags,
    )
    _check_connected(desc)
    _install_products(desc, raw_products, source)
    if raw_diag:
        desc.diagonal = [
            (desc.index(a), desc.index(b), coef) for _, a, b, coef in raw_diag
        ]
    validate_descriptor(desc)
    return desc


def _install_products(desc: ManifoldDescriptor, raw_products, source: str) -> None:
    table: dict = {}
    for lineno, a, b, c, coef in raw_products:
        i, j, k = desc.index(a), desc.index(b), desc.index(c)
        if desc.degrees[i] + desc.degrees[j] != desc.degrees[k]:
            raise DescriptorError(f"{source}:{lineno}: degree mismatch in {a}*{b}={c}")
        table.setdefault((i, j), {})
        table[(i, j)][k] = table[(i, j)].get(k, 0) + coef
    # unit products
    unit = desc.unit
    for i in range(desc.dim_total):
        table.setdefault((unit, i), {i: 1})
        table.setdefault((i, unit), {i: 1})
    # graded-commutative mirrors
    for (i, j) in list(table):
        sign = (-1) ** (desc.degrees[i] * desc.degrees[j])
        mirror = {k: sign * v for k, v in table[(i, j)].items()}
        existing = table.get((j, i))
        if existing is None:
            table[(j, i)] = mirror
        else:
            if {k: v for k, v in existing.items() if v} != {k: v for k, v in mirror.items() if v}:
                raise DescriptorError(
                    f"{source}: products of {desc.class_names[i]} and "
                    f"{desc.class_names[j]} violate graded commutativity"
                )
    desc.products = {
        key: {k: v for k, v in val.items() if v} for key, val in table.items()
    }
    desc.products = {key: val for key, val in desc.products.items() if val}


def _invert(matrix: list[list]) -> list[list[Fraction]]:
    """The inverse of a square matrix, read off one Echelon over the rows
    [matrix | 1]: the matrix is invertible exactly when every pivot falls
    left of the bar, and then the reduced rows are [1 | matrix^-1]."""
    n = len(matrix)
    ech = Echelon(
        {**{j: x for j, x in enumerate(row) if x}, n + i: 1} for i, row in enumerate(matrix)
    )
    if any(pivot >= n for pivot, _ in ech.rows):
        raise DescriptorError("duality pairing is degenerate")
    return [[row.get(n + i, 0) for i in range(n)] for row in ech.basis()]


def _check_connected(desc: ManifoldDescriptor) -> None:
    if sum(1 for deg in desc.degrees if deg == 0) != 1:
        raise DescriptorError(f"{desc.name}: needs exactly one degree-0 class (connected)")


def validate_descriptor(desc: ManifoldDescriptor) -> None:
    _check_connected(desc)
    if any(deg < 0 or deg > desc.d for deg in desc.degrees):
        raise DescriptorError(f"{desc.name}: class degree outside 0..{desc.d}")
    for (i, j), terms in desc.products.items():
        for k, coef in terms.items():
            if desc.degrees[i] + desc.degrees[j] != desc.degrees[k] and coef:
                raise DescriptorError(f"{desc.name}: graded product degree mismatch")
    if desc.diagonal is not None:
        _validate_diagonal(desc)


def _validate_diagonal(desc: ManifoldDescriptor) -> None:
    """Check the diagonal class against Poincare duality: the pairing
    <e_i, e_j> = coefficient of the top class in e_i * e_j must be
    invertible (_invert raises on a degenerate one), and the diagonal must be
    sum_i (-1)^deg(e_i) e_i (x) e_i^vee over the dual basis it gives."""
    tops = [i for i, deg in enumerate(desc.degrees) if deg == desc.d]
    if len(tops) != 1:
        raise DescriptorError(f"{desc.name}: diagonal requires a unique top class")
    top = tops[0]
    n = desc.dim_total
    for (i, j, coef) in desc.diagonal:
        if desc.degrees[i] + desc.degrees[j] != desc.d and coef:
            raise DescriptorError(f"{desc.name}: diagonal term off degree {desc.d}")
    pairing = [
        [desc.product(i, j).get(top, Fraction(0)) for j in range(n)] for i in range(n)
    ]
    inverse = _invert(pairing)  # raises if degenerate
    expected: dict[tuple[int, int], Fraction] = {}
    for i in range(n):
        # dual basis: e_i^vee = sum_k inverse[k][i] e_k
        for k in range(n):
            coef = inverse[k][i]
            if coef:
                key = (i, k)
                expected[key] = expected.get(key, Fraction(0)) + (-1) ** desc.degrees[i] * coef
    given: dict[tuple[int, int], Fraction] = {}
    for (i, j, coef) in desc.diagonal:
        given[(i, j)] = given.get((i, j), Fraction(0)) + coef
    given = {k: v for k, v in given.items() if v}
    expected = {k: v for k, v in expected.items() if v}
    if given != expected:
        raise DescriptorError(
            f"{desc.name}: diagonal fails duality pairing; expected "
            + ", ".join(
                f"{desc.class_names[i]}(x){desc.class_names[j]}={coef}"
                for (i, j), coef in sorted(expected.items())
            )
        )


def load_manifold(path_or_name: str) -> ManifoldDescriptor:
    """Load a descriptor from a path, or from the bundled set by name."""
    if os.path.exists(path_or_name):
        try:
            with open(path_or_name, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DescriptorError(f"cannot read descriptor {path_or_name!r}: {exc.strerror}") from exc
        return parse_descriptor(text, source=path_or_name)
    base = path_or_name if path_or_name.endswith(".desc") else path_or_name + ".desc"
    try:
        with open(os.path.join(_DATA, base), encoding="utf-8") as fh:
            data = fh.read()
    except OSError as exc:
        raise DescriptorError(f"no descriptor file or bundled name {path_or_name!r}") from exc
    return parse_descriptor(data, source=base)
