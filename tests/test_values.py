"""The value types refuse set and del, and survive copy, deepcopy and pickle."""

import copy
import pickle

import pytest

from modent.distributions import ModDist, ModMeasure, entropy
from modent.finprob import FinProbSpace, make_map
from modent.modular import LiftedResidue, PrimeModulus, Residue
from modent.polynomials import entropy_poly
from modent.residue import RationalDist

P5 = PrimeModulus(5)


def _space():
    return FinProbSpace("abc", ModDist(P5, (2, 3, 1)))


def _map():
    point = FinProbSpace(("*",), ModDist(P5, (1,)))
    return make_map(_space(), point, {"a": "*", "b": "*", "c": "*"})


# each type with a constructor of one value and the name of one of its fields
VALUES = {
    "PrimeModulus": (lambda: PrimeModulus(5), "p"),
    "Residue": (lambda: Residue(3, P5), "value"),
    "LiftedResidue": (lambda: LiftedResidue(7, P5), "modulus"),
    "ModDist": (lambda: ModDist(P5, (2, 3, 1)), "_values"),
    "ModMeasure": (lambda: ModMeasure(P5, (4, 0, 2)), "p"),
    "MultiPoly": (lambda: entropy_poly(3, P5), "terms"),
    "FinProbSpace": (_space, "labels"),
    "MPMap": (_map, "mapping"),
    "RationalDist": (lambda: RationalDist(["1/3", "2/3"]), "probs"),
}

ROUND_TRIPS = (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v)))


def _assert_frozen(value, field, expected):
    for name in (field, "extra"):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(value, name, None)
    with pytest.raises(AttributeError, match="is immutable"):
        delattr(value, field)
    assert value == expected and repr(value) == repr(expected)


@pytest.mark.parametrize("kind", VALUES)
def test_value_types_refuse_set_and_del_and_round_trip(kind):
    make, field = VALUES[kind]
    value = make()
    assert type(value).__name__ == kind and not hasattr(value, "__dict__")
    _assert_frozen(value, field, make())
    for trip in ROUND_TRIPS:
        back = trip(value)
        assert type(back) is type(value) and back == value
        _assert_frozen(back, field, value)
        if kind == "ModDist":
            assert entropy(back) == entropy(value)
