"""Every library check on sizes, counts and pairings raises a typed error.

Each error is a `ModentError` and, as the bare `ValueError` it replaced, a
`ValueError`, so older `except ValueError` clauses still catch it; an
unknown label is a `KeyError`, as the failed lookup it stands for, and a
representative that is not an int an `InvalidResidue`, a `TypeError`.
"""

from fractions import Fraction

import pytest

from modent import cli
from modent.characterization import build_system
from modent.distributions import (
    ModDist,
    entropy_of_representatives,
    measure_entropy_of_representatives,
    pad_zeros,
    uniform,
)
from modent.errors import (
    ArityMismatch,
    DuplicateLabel,
    InvalidPolynomial,
    InvalidResidue,
    InvalidSize,
    ModentError,
    NotCommonDenominator,
    UnknownLabel,
)
from modent.finprob import FinProbSpace, convex_combine_maps, make_map
from modent.modular import PrimeModulus, Residue
from modent.polynomials import MultiPoly, check_grouping, check_poly_chain_rule, entropy_poly, interpolate
from modent.residue import RationalDist, scaled_numerators

P3 = PrimeModulus(3)


def _point():
    return FinProbSpace(("a",), ModDist(P3, (1,)))


def _identity_map():
    return make_map(_point(), _point(), {"a": "a"})


CASES = {
    "build_system": (InvalidSize, lambda: build_system(P3, 0)),
    "uniform": (InvalidSize, lambda: uniform(0, P3)),
    "pad_zeros": (InvalidSize, lambda: pad_zeros(ModDist(P3, (1,)), 0, -1)),
    "FinProbSpace labels": (DuplicateLabel, lambda: FinProbSpace(("a", "a"), ModDist(P3, (2, 2)))),
    "FinProbSpace count": (ArityMismatch, lambda: FinProbSpace(("a",), ModDist(P3, (2, 2)))),
    "make_map unhashable image": (UnknownLabel, lambda: make_map(_point(), _point(), {"a": ["a"]})),
    "convex_combine_maps": (ArityMismatch, lambda: convex_combine_maps(ModDist(P3, (1,)), [_identity_map()] * 2)),
    "scaled_numerators": (NotCommonDenominator, lambda: scaled_numerators(RationalDist([Fraction(1, 3)] * 3), 2)),
    "MultiPoly.__pow__": (InvalidPolynomial, lambda: MultiPoly.variable(P3, 1, 0) ** -1),
    "MultiPoly.__pow__ not an int": (InvalidPolynomial, lambda: MultiPoly.variable(P3, 1, 0) ** 1.5),
    "entropy_poly": (InvalidPolynomial, lambda: entropy_poly(-1, P3)),
    "interpolate": (InvalidPolynomial, lambda: interpolate(lambda pt: 0, P3, -1)),
    "_blocks count": (ArityMismatch, lambda: check_grouping(2, (1,), P3)),
    "_blocks size": (InvalidSize, lambda: check_poly_chain_rule(2, (1, -1), P3)),
    "_blocks size not an int": (InvalidSize, lambda: check_grouping(2, (1, "a"), P3)),
    "_blocks size a float": (InvalidSize, lambda: check_grouping(2, (1, 1.0), P3)),
    "_blocks count not an int": (InvalidSize, lambda: check_grouping("2", (1, 1), P3)),
    "entropy_poly not an int": (InvalidPolynomial, lambda: entropy_poly(1.5, P3)),
    "interpolate not an int": (InvalidPolynomial, lambda: interpolate(lambda pt: 0, P3, 1.5)),
    "uniform size a float": (InvalidSize, lambda: uniform(2.0, P3)),
    "uniform size not an int": (InvalidSize, lambda: uniform("2", P3)),
    "pad_zeros count a float": (InvalidSize, lambda: pad_zeros(ModDist(P3, (1,)), 0, 1.5)),
    "pad_zeros position not an int": (InvalidSize, lambda: pad_zeros(ModDist(P3, (1,)), "0", 1)),
}


@pytest.mark.parametrize("name", CASES)
def test_size_and_pairing_errors_are_typed_value_errors(name):
    error, call = CASES[name]
    with pytest.raises(error) as info:
        call()
    builtin = KeyError if error is UnknownLabel else ValueError
    assert isinstance(info.value, ModentError) and isinstance(info.value, builtin)


# a representative that is not an int is refused: the sum is taken over the
# representatives as given, though the power sum may reduce them mod p
NOT_INT_REPRESENTATIVES = {
    "text": lambda: entropy_of_representatives(["a"], P3),
    "residue": lambda: entropy_of_representatives([Residue(1, P3)], P3),
    "float measure": lambda: measure_entropy_of_representatives([1.5], P3),
}


@pytest.mark.parametrize("name", NOT_INT_REPRESENTATIVES)
def test_representatives_that_are_not_ints_are_typed_type_errors(name):
    with pytest.raises(InvalidResidue) as info:
        NOT_INT_REPRESENTATIVES[name]()
    assert isinstance(info.value, ModentError) and isinstance(info.value, TypeError)


def test_cli_reports_typed_errors_with_exit_2(capsys):
    for argv in (["uniform", "0", "--p", "3"], ["characterize", "--p", "3", "--max-arity", "0"]):
        assert cli.run(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
