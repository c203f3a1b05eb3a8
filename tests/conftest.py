import tempfile
import time
from functools import cached_property

import pytest
from hypothesis import configuration

from qfermat import fiber, qmatrix, structure

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
    return structure.build_table(qmatrix.QMatrix([[0] * 5] * 5))


class FiberFacts:
    """The slow fiber oracles at one point of the canonical table, each run
    on first use: center_dim(F, "both"), which raises unless the graded scan
    and the dense commutant solve agree, and radical_is_ideal.  seconds adds
    up the time they took, so a budget holds whichever test runs them."""

    def __init__(self, table, coords):
        self.seconds = 0.0
        self.algebra = self._timed(fiber.specialize, table, coords)

    def _timed(self, fn, *args, **kwargs):
        start = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds += time.monotonic() - start

    @cached_property
    def center(self):
        return self._timed(fiber.center_dim, self.algebra, method="both")

    @cached_property
    def radical_is_ideal(self):
        return self._timed(fiber.radical_is_ideal, self.algebra)


@pytest.fixture(scope="session")
def fiber_facts(canonical_table):
    """FiberFacts by point, one per point a session.  They come from the real
    fiber module, so no test that monkeypatches fiber may read them."""
    memo = {}

    def facts(coords):
        key = tuple(coords)
        if key not in memo:
            memo[key] = FiberFacts(canonical_table, key)
        return memo[key]

    return facts
