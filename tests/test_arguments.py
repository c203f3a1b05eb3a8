"""One argument rule for every public numeric parameter, checked from the
signatures.

An integer is read by errors.as_integer and a rational by errors.as_rational:
Python and numpy integers are accepted, a bool or a float is a ValueError
that names the argument, and so is a str, except an exact one such as "3"
or "1/2" for a rational.  PARAMETERS lists every public numeric parameter
with its kind, the noun its error names, and a call that feeds it one
value; a sequence kind feeds the value as one element of an otherwise
valid sequence.  The walk over the signatures of qfermat.__all__ fails on
any parameter annotated with int or float that the list does not name, so
a new one fails until it is listed.
"""

import inspect
import math
import re
from functools import lru_cache

import numpy as np
import pytest

import qfermat
from qfermat.cohomology import (
    RatPolynomial,
    TwistMultiset,
    algebra_twist_multiset,
    cohomology_dim,
    euler_characteristic,
    section_dimension_sum,
    sheaf_cohomology,
)
from qfermat.cyclotomic import ONE, CycNum, root_power
from qfermat.errors import PreconditionError
from qfermat.fiber import FiberPoint
from qfermat.indices import position
from qfermat.qmatrix import QMatrix, admissible_matrix, orbit_representatives
from qfermat.rewrite import (
    AlgElement,
    graded_dimension,
    normal_form,
    normal_form_random_schedule,
)
from qfermat.structure import build_table, verify_associativity

ZERO_MATRIX = QMatrix([[0] * 5] * 5)


@lru_cache(maxsize=1)
def _table():
    return build_table(ZERO_MATRIX)


def _rows(v):
    return [[v, 0, 0, 0, 0]] + [[0] * 5] * 4


# (owner, parameter, kind, noun of its error, a valid value, call with one value)
PARAMETERS = [
    ("CycNum.times_root", "k", "integer", "root exponents", 2, lambda v: ONE.times_root(v)),
    ("CycNum.galois", "k", "integer", "Galois exponents", 2, lambda v: ONE.galois(v)),
    ("root_power", "k", "integer", "root exponents", 2, root_power),
    ("position", "a", "integer", "index positions", 3, position),
    ("position", "a", "integer sequence", "index digits", 0,
     lambda v: position((v, 0, 0, 0, 0))),
    ("StructureTable.entry", "a", "integer", "index positions", 3,
     lambda v: _table().entry(v, 0)),
    ("StructureTable.entry", "b", "integer", "index positions", 3,
     lambda v: _table().entry(0, v)),
    ("StructureTable.replace_exponent", "a", "integer", "index positions", 3,
     lambda v: _table().replace_exponent(v, 0, 1)),
    ("StructureTable.replace_exponent", "b", "integer", "index positions", 3,
     lambda v: _table().replace_exponent(0, v, 1)),
    ("StructureTable.replace_exponent", "new_exp", "integer", "exponents", 1,
     lambda v: _table().replace_exponent(0, 0, v)),
    ("verify_associativity", "seed", "optional integer", "seeds", 1,
     lambda v: verify_associativity(_table(), "exact", seed=v)),
    ("verify_associativity", "budget_seconds", "seconds", "budget_seconds", 5,
     lambda v: verify_associativity(_table(), "sampled=1", seed=1, budget_seconds=v)),
    ("QMatrix.__init__", "rows", "integer sequence", "matrix entries", 0,
     lambda v: QMatrix(_rows(v))),
    ("admissible_matrix", "N", "integer sequence", "matrix entries", 0,
     lambda v: admissible_matrix(_rows(v))),
    ("AlgElement.__init__", "terms", "integer sequence", "monomial exponents", 1,
     lambda v: AlgElement({(v, 0, 0, 0, 0): 1})),
    ("AlgElement.__init__", "terms", "rational", "CycNum coordinates", 3,
     lambda v: AlgElement({(0, 0, 0, 0, 0): v})),
    ("AlgElement.generator", "i", "integer", "word letters", 2, AlgElement.generator),
    ("normal_form", "w", "integer sequence", "word letters", 2,
     lambda v: normal_form((v, 1), ZERO_MATRIX)),
    ("normal_form_random_schedule", "w", "integer sequence", "word letters", 2,
     lambda v: normal_form_random_schedule((v, 1), ZERO_MATRIX, np.random.default_rng(0))),
    ("graded_dimension", "n", "integer", "degrees", 3, graded_dimension),
    ("CycNum.__init__", "coeffs", "rational", "CycNum coordinates", 3,
     lambda v: CycNum((v, 0, 0, 0))),
    ("FiberPoint.__init__", "coords", "rational", "CycNum coordinates", 3,
     lambda v: FiberPoint((v, -3, 0, 0, 0))),
    ("RatPolynomial.__init__", "coeffs", "rational", "polynomial coefficients", 3,
     lambda v: RatPolynomial([v])),
    ("RatPolynomial.__call__", "n", "rational", "polynomial arguments", 3,
     lambda v: RatPolynomial([1, 1])(v)),
    ("TwistMultiset.__init__", "pairs", "integer sequence", "twists and multiplicities", 1,
     lambda v: TwistMultiset([(v, 1)])),
    ("TwistMultiset.__init__", "pairs", "integer sequence", "twists and multiplicities", 1,
     lambda v: TwistMultiset([(0, v)])),
    ("cohomology_dim", "d", "integer", "twists d", 3, lambda v: cohomology_dim(v, 0)),
    ("cohomology_dim", "i", "integer", "cohomological degrees i", 3,
     lambda v: cohomology_dim(0, v)),
    ("sheaf_cohomology", "n", "integer", "twists n", 3,
     lambda v: sheaf_cohomology(algebra_twist_multiset(), v)),
    ("euler_characteristic", "n", "integer", "twists n", 3,
     lambda v: euler_characteristic(algebra_twist_multiset(), v)),
    ("section_dimension_sum", "n", "integer", "twists n", 3,
     lambda v: section_dimension_sum(algebra_twist_multiset(), v)),
]

# values each kind refuses and accepts beside the valid value and its numpy
# integer.  A rational also takes an exact str; seconds are any real number
# >= 0, so a float is a valid budget and the refused values are a bool, a
# str, a negative number and NaN.  None is accepted only where Optional.
_BOOLS_AND_FLOATS = [True, np.True_, 1.5, np.float64(0.5)]
REFUSED = {
    "integer": _BOOLS_AND_FLOATS + ["3", None],
    "integer sequence": _BOOLS_AND_FLOATS + ["3", None],
    "optional integer": _BOOLS_AND_FLOATS + ["3"],
    "rational": _BOOLS_AND_FLOATS + ["x", None],
    "seconds": [True, np.True_, "3", -1.0, math.nan],
}
ACCEPTED = {
    "integer": [],
    "integer sequence": [],
    "optional integer": [None],
    "rational": ["3"],
    "seconds": [None, 1.5, np.float64(0.5)],
}

_IDS = ["%s.%s-%s" % (owner, param, kind.replace(" ", "-"))
        for owner, param, kind, *_ in PARAMETERS]


@pytest.mark.parametrize("owner, param, kind, noun, valid, call", PARAMETERS, ids=_IDS)
def test_numeric_parameter_follows_the_rule(owner, param, kind, noun, valid, call):
    for value in REFUSED[kind]:
        with pytest.raises(ValueError, match=re.escape(noun)):
            call(value)
    for value in [valid, np.int64(valid)] + ACCEPTED[kind]:
        call(value)


# Parameters left out of the rule, by name:
#  - FiberAlgebra.scalar and target are the inner loop of every fiber
#    computation (the commutant solve and the trace entries call them about
#    a million times per point); validating there would change the fiber pass;
#  - the fields of the dataclass records, which the package builds from
#    values it has already checked.
EXEMPT = {("FiberAlgebra.scalar", "i"), ("FiberAlgebra.scalar", "j"),
          ("FiberAlgebra.target", "i"), ("FiberAlgebra.target", "j")}
RECORDS = {"ClassificationReport", "AssociativityReport", "CyCertificate"}

_NUMERIC = re.compile(r"\b(int|float)\b")


def _public_callables():
    """(owner name, callable) for every function and public method, with
    __init__ and __call__, of the names in qfermat.__all__."""
    for name in qfermat.__all__[1:]:
        obj = getattr(qfermat, name)
        if inspect.isclass(obj):
            if name in RECORDS:
                continue
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr not in ("__init__", "__call__"):
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield "%s.%s" % (name, attr), member
        elif inspect.isfunction(obj):
            yield name, obj


def test_every_numeric_parameter_is_listed():
    listed = {(owner, param) for owner, param, *_ in PARAMETERS}
    found, unlisted = set(), []
    for owner, fn in _public_callables():
        for param in inspect.signature(fn).parameters.values():
            found.add((owner, param.name))
            annotation = param.annotation
            if not isinstance(annotation, str):
                annotation = inspect.formatannotation(annotation)
            if _NUMERIC.search(annotation) and (owner, param.name) not in listed | EXEMPT:
                unlisted.append("%s(%s: %s)" % (owner, param.name, annotation))
    assert not unlisted, "numeric parameters outside the rule: %s" % ", ".join(unlisted)
    # and the list names only parameters that exist
    assert listed | EXEMPT <= found, sorted(listed | EXEMPT - found)
    assert {name for name in RECORDS if hasattr(qfermat, name)} == RECORDS


def test_actions_refuse_a_bare_str():
    # a str is a collection of its characters: "scale" once read as the
    # actions a, c, e, l and s
    for actions in ("scale", "permute,twist"):
        with pytest.raises(PreconditionError, match="actions must be a collection"):
            orbit_representatives(actions)
    # a name that is not a str is reported, not a TypeError from the report
    with pytest.raises(PreconditionError, match="unknown actions: 3"):
        orbit_representatives(["scale", 3])
    assert len(orbit_representatives(("permute", "twist"))) == 1
