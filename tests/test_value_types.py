"""The value types keep the behaviour they had as dataclasses.

Every expected repr, order and message below was recorded from the
@dataclass versions of these classes.
"""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from repstab.characters import ClassFunction, MultiplicityVector, NotACharacter
from repstab.manifolds import ManifoldDescriptor
from repstab.specht import ClaimsReport
from repstab.stability import RangeParams, StabilityReport, SuiteReport
from repstab.tabloids import PseudoTableau, PseudoTabloid, pseudo_tabloids

# (class, constructor arguments, repr)
FROZEN = [
    (ClassFunction, (2, (1, -1)), "ClassFunction(n=2, values=(1, -1))"),
    (RangeParams, (Fraction(1, 2), 1), "RangeParams(m=Fraction(1, 2), ell=1)"),
    (PseudoTableau, (3, ((3, 1), (2,))), "PseudoTableau(n=3, rows=((3, 1), (2,)))"),
    (PseudoTabloid, (3, ((1, 3), (2,))), "PseudoTabloid(n=3, rows=((1, 3), (2,)))"),
]
MUTABLE = [
    (
        ManifoldDescriptor,
        ("pt", 2, ["1"], [0], {}, None),
        "ManifoldDescriptor(name='pt', d=2, class_names=['1'], degrees=[0], products={}, diagonal=None, flags=set())",
    ),
    (ClaimsReport, ((1,), 2), "ClaimsReport(lam=(1,), n=2, entries=[], failures=[])"),
    (
        StabilityReport,
        ("x", (1, 3)),
        "StabilityReport(label='x', window=(1, 3), injectivity={}, surjectivity={}, "
        "multiplicities={}, monotone={}, witnesses=[])",
    ),
    (SuiteReport, ([("a", "b", True, None)], 3), "SuiteReport(checks=[('a', 'b', True, None)], seed_count=3)"),
]


def first_field(text: str) -> str:
    return text[text.index("(") + 1 : text.index("=")]


@pytest.mark.parametrize("cls, args, text", FROZEN)
def test_frozen_types_repr_equality_hash_and_assignment(cls, args, text):
    value, twin = cls(*args), cls(*args)
    assert repr(value) == text
    assert twin == value and not twin != value and twin is not value
    assert hash(value) == hash(args) == hash(twin)
    assert value != args  # equal only to the same class
    assert len({value, twin}) == 1
    name = first_field(text)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, 0)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        value.extra = 0
    with pytest.raises(AttributeError):
        delattr(value, name)
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert clone == value and type(clone) is cls


def test_multiplicity_vector_is_frozen_but_unhashable():
    mv = MultiplicityVector(3, {(2, 1): 1, (3,): 2})
    assert repr(mv) == "MultiplicityVector(n=3, counts={(2, 1): 1, (3,): 2})"
    assert mv == MultiplicityVector(3, {(3,): 2, (2, 1): 1})
    assert mv != MultiplicityVector(3, {(3,): 2})
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(mv)
    with pytest.raises(AttributeError, match="cannot assign to field 'counts'"):
        mv.counts = {}


@pytest.mark.parametrize("cls, args, text", MUTABLE)
def test_mutable_types_repr_equality_and_no_hash(cls, args, text):
    value, twin = cls(*args), cls(*args)
    assert repr(value) == text
    assert twin == value and not twin != value and twin is not value
    with pytest.raises(TypeError, match=f"unhashable type: '{cls.__name__}'"):
        hash(value)
    setattr(twin, first_field(text), "changed")
    assert twin != value


def test_omitted_containers_are_fresh():
    assert StabilityReport("x", (1, 2)).witnesses is not StabilityReport("x", (1, 2)).witnesses
    assert ClaimsReport((1,), 2).entries is not ClaimsReport((1,), 2).entries
    assert SuiteReport().checks is not SuiteReport().checks
    assert SuiteReport().seed_count == 0
    assert ManifoldDescriptor("a", 2, [], [], {}, None).flags is not ManifoldDescriptor("b", 2, [], [], {}, None).flags
    report = SuiteReport(seed_count=2)
    assert (report.checks, report.seed_count) == ([], 2)


def test_equality_holds_only_within_one_class():
    tabloid, tableau = PseudoTabloid(2, ((1,),)), PseudoTableau(2, ((1,),))
    assert tabloid != tableau and not tabloid == tableau
    assert tabloid != (2, ((1,),)) and tableau != (2, ((1,),))
    assert ClassFunction(2, (1, 1)) != ClassFunction(3, (1, 1))
    with pytest.raises(TypeError):
        tabloid < tableau
    with pytest.raises(TypeError):
        ClassFunction(1, (1,)) < ClassFunction(1, (2,))


def test_tabloids_order_as_their_fields():
    expected = (
        "1,2;3 1,2;4 1,2;5 1,3;2 1,3;4 1,3;5 1,4;2 1,4;3 1,4;5 1,5;2 1,5;3 1,5;4 2,3;1 2,3;4 2,3;5 "
        "2,4;1 2,4;3 2,4;5 2,5;1 2,5;3 2,5;4 3,4;1 3,4;2 3,4;5 3,5;1 3,5;2 3,5;4 4,5;1 4,5;2 4,5;3"
    ).split()
    shuffled = list(pseudo_tabloids((2, 1), 5))
    random.Random(0).shuffle(shuffled)
    assert [t.render() for t in sorted(shuffled)] == expected
    a, b = PseudoTabloid(3, ((1, 2), (3,))), PseudoTabloid(4, ((1, 2), (3,)))
    assert a < b and a <= b and b > a and b >= a and a <= a and a >= a
    assert not (a > b or a >= b or b < a or b <= a)
    c, d = PseudoTableau(3, ((2, 1),)), PseudoTableau(3, ((2, 3),))
    assert c < d and sorted([d, c]) == [c, d]


def test_validation_messages():
    with pytest.raises(ValueError, match=r"^labels not injective: \(\(1, 1\),\)$"):
        PseudoTableau(3, ((1, 1),))
    with pytest.raises(ValueError, match=r"^labels outside 1\.\.2: \(\(1, 3\),\)$"):
        PseudoTableau(2, ((1, 3),))
    with pytest.raises(ValueError, match=r"^\(1, 2\) is not a partition$"):
        PseudoTableau(3, ((1,), (2, 3)))
    with pytest.raises(ValueError, match=r"^tabloid rows must be sorted: \(\(2, 1\),\)$"):
        PseudoTabloid(3, ((2, 1),))
    with pytest.raises(ValueError, match="^m must be positive$"):
        RangeParams(Fraction(0), 1)
    with pytest.raises(NotACharacter, match=r"^multiplicity of \(2,\) is -1$"):
        MultiplicityVector(2, {(2,): -1})
    with pytest.raises(NotACharacter, match=r"^multiplicity of \(2,\) is 1/2$"):
        MultiplicityVector(2, {(2,): Fraction(1, 2)})


def test_keyword_construction():
    assert RangeParams(m=Fraction(2), ell=-1) == RangeParams(Fraction(2), -1)
    assert PseudoTabloid(rows=((1,),), n=2) == PseudoTabloid(2, ((1,),))
    assert ClassFunction(n=1, values=(1,)).degree() == 1
    desc = ManifoldDescriptor(name="pt", d=2, class_names=["1"], degrees=[0], products={}, diagonal=None, flags={"closed"})
    assert desc.flags == {"closed"}
