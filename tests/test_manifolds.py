import random
from fractions import Fraction

import pytest

from repstab.manifolds import (
    DescriptorError,
    _invert,
    load_manifold,
    parse_descriptor,
)


def test_load_bundled():
    torus = load_manifold("torus")
    assert torus.d == 2
    assert torus.euler_characteristic() == 0
    assert torus.poincare() == {0: 1, 1: 2, 2: 1}
    s2 = load_manifold("s2")
    assert s2.euler_characteristic() == 2
    s3 = load_manifold("s3")
    assert s3.poincare() == {0: 1, 3: 1}
    cp1 = load_manifold("cp1")
    assert cp1.poincare() == s2.poincare()


def test_unknown_name_rejected():
    with pytest.raises(DescriptorError):
        load_manifold("klein-bottle")


def test_disconnected_rejected():
    text = "dim 2\nclass 1 0\nclass 1b 0\n"
    with pytest.raises(DescriptorError, match="degree-0"):
        parse_descriptor(text)


def test_degree_mismatch_rejected():
    text = "dim 2\nclass 1 0\nclass a 1\nmul a a 1 1\n"
    with pytest.raises(DescriptorError, match="degree mismatch"):
        parse_descriptor(text)


def test_graded_commutativity_enforced():
    # both orders given but inconsistent: a*b = pt while b*a = pt (should be -pt)
    text = (
        "dim 2\nclass 1 0\nclass a 1\nclass b 1\nclass pt 2\n"
        "mul a b pt 1\nmul b a pt 1\n"
    )
    with pytest.raises(DescriptorError, match="commutativity"):
        parse_descriptor(text)


def test_mirror_products_inferred():
    torus = load_manifold("torus")
    a, b, pt = torus.index("a"), torus.index("b"), torus.index("pt")
    assert torus.product(a, b) == {pt: Fraction(1)}
    assert torus.product(b, a) == {pt: Fraction(-1)}
    unit = torus.unit
    assert torus.product(unit, a) == {a: Fraction(1)}


def test_diagonal_validation_catches_wrong_sign():
    text = (
        "dim 2\nflag closed\nclass 1 0\nclass pt 2\n"
        "diag 1 pt 1\ndiag pt 1 -1\n"  # should be +1 for the 2-sphere
    )
    with pytest.raises(DescriptorError, match="duality"):
        parse_descriptor(text)


def test_diagonal_validation_catches_missing_term():
    text = "dim 2\nflag closed\nclass 1 0\nclass pt 2\ndiag 1 pt 1\n"
    with pytest.raises(DescriptorError, match="duality"):
        parse_descriptor(text)


def test_parse_error_reports_line():
    with pytest.raises(DescriptorError, match=":2:"):
        parse_descriptor("dim 2\nbogus line here\nclass 1 0\n")


def test_rational_coefficients():
    text = (
        "dim 4\nclass 1 0\nclass x 2\nclass pt 4\n"
        "mul x x pt 1/2\n"
    )
    desc = parse_descriptor(text)
    x, pt = desc.index("x"), desc.index("pt")
    assert desc.product(x, x) == {pt: Fraction(1, 2)}


def test_load_from_path(tmp_path):
    path = tmp_path / "point.desc"
    path.write_text("name pt\ndim 2\nclass 1 0\nflag open\n")
    desc = load_manifold(str(path))
    assert desc.name == "pt"
    assert "open" in desc.flags
    assert desc.diagonal is None


@pytest.mark.parametrize("line", ["mul x x pt 1/0", "diag x x 1/0"])
def test_zero_denominator_reports_line(line):
    text = f"dim 4\nclass 1 0\nclass x 2\nclass pt 4\n{line}\n"
    with pytest.raises(DescriptorError, match=":5: cannot parse"):
        parse_descriptor(text)


def test_missing_degree_zero_class_named():
    with pytest.raises(DescriptorError, match="needs exactly one degree-0 class"):
        parse_descriptor("dim 2\nclass a 1\nclass pt 2\n")


def test_integral_coefficients_parse_to_int():
    base = "dim 4\nclass 1 0\nclass x 2\nclass pt 4\n"
    desc = parse_descriptor(base + "mul x x pt 4/2\n")
    x, pt = desc.index("x"), desc.index("pt")
    assert all(type(c) is int for terms in desc.products.values() for c in terms.values())
    assert desc.product(x, x) == {pt: 2}
    [half] = parse_descriptor(base + "mul x x pt 1/2\n").product(x, x).values()
    assert type(half) is Fraction and half == Fraction(1, 2)


def reference_invert(matrix):
    """The dense Gauss-Jordan inverse before the Echelon one, copied verbatim."""
    n = len(matrix)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise DescriptorError("duality pairing is degenerate")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _outcome(invert, matrix):
    try:
        return invert(matrix)
    except DescriptorError as exc:
        return str(exc)


def test_echelon_inverse_matches_gauss_jordan():
    rng = random.Random(24)
    singular = 0
    for trial in range(400):
        n = rng.randint(1, 5)
        matrix = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.7 else 0 for _ in range(n)]
            for _ in range(n)
        ]
        if trial % 3 == 0 and n > 1:
            # a row that is a combination of two others makes it singular
            i, j, k = (rng.randrange(n) for _ in range(3))
            c = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
            matrix[i] = [c * x + y for x, y in zip(matrix[j], matrix[k])] if i not in (j, k) else [0] * n
        expected = _outcome(reference_invert, [[Fraction(x) for x in row] for row in matrix])
        got = _outcome(_invert, matrix)
        assert got == expected, matrix
        singular += isinstance(expected, str)
    assert 50 < singular < 350
