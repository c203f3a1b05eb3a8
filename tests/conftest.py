import tempfile

import pytest
from hypothesis import configuration

from qfermat import qmatrix, structure

_HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    # hypothesis caches literals of the code under test in its home
    # directory, ./.hypothesis unless set, as soon as it collects a property
    # test; a temporary one keeps the checkout clean
    config.stash[_HYPOTHESIS_HOME] = home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    configuration.set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    configuration.set_hypothesis_home_dir(None)
    config.stash[_HYPOTHESIS_HOME].cleanup()


# The lex-minimal generic matrix, written out so the fixtures do not depend
# on the enumeration scan; its identity with the computed canonical form is
# itself asserted in the classification tests.
CANONICAL_ROWS = (
    (0, 0, 0, 0, 0),
    (0, 0, 1, 1, 3),
    (0, 4, 0, 2, 4),
    (0, 4, 3, 0, 3),
    (0, 2, 1, 2, 0),
)


@pytest.fixture(scope="session")
def canonical_matrix():
    return qmatrix.QMatrix(CANONICAL_ROWS)


@pytest.fixture(scope="session")
def canonical_table(canonical_matrix):
    return structure.build_table(canonical_matrix)


@pytest.fixture(scope="session")
def zero_table():
    return structure.build_table(qmatrix.QMatrix.zero())
