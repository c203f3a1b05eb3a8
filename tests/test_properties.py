"""Derandomized property tests: CycNum against sympy, and the CLI's failure
contract under junk command lines and input files; and seeded words for the
term cap of normal-form.

derandomize=True fixes the examples, so these tests are as deterministic as
the rest of the suite; database=None, and the temporary home directory that
conftest.py sets, keep hypothesis from writing into the checkout.
"""

import io
import json
import random
import time
import tracemalloc
from fractions import Fraction
from math import comb

import pytest
import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qfermat.cli import main
from qfermat.cyclotomic import ONE, CycNum, root_power
from qfermat.qmatrix import QMatrix
from qfermat.rewrite import normal_form

# ---------------------------------------------------------
# CycNum against polynomial arithmetic modulo the 5th cyclotomic polynomial
# ---------------------------------------------------------

Z = sympy.Symbol("z")
PHI5 = sympy.Poly(Z ** 4 + Z ** 3 + Z ** 2 + Z + 1, Z, domain="QQ")

coords = st.fractions(min_value=-4, max_value=4, max_denominator=6)
cycnums = st.builds(CycNum, st.lists(coords, min_size=4, max_size=4))


def _poly(x):
    return sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator) * Z ** i
                          for i, c in enumerate(x.coeffs)), Z, domain="QQ")


def _reduce(p):
    """The CycNum with the coordinates of p mod PHI5 on 1, z, z^2, z^3."""
    r = p.rem(PHI5)
    return CycNum(Fraction(int(r.coeff_monomial(Z ** i).p), int(r.coeff_monomial(Z ** i).q))
                  for i in range(4))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(cycnums, cycnums)
def test_cycnum_field_operations_match_sympy(x, y):
    assert x + y == _reduce(_poly(x) + _poly(y))
    assert x * y == _reduce(_poly(x) * _poly(y))
    if x:
        assert x.inv() == _reduce(_poly(x).invert(PHI5))
        assert x * x.inv() == ONE


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(cycnums, cycnums, st.integers(-7, 12))
def test_times_root_and_galois(x, y, k):
    assert x.times_root(k) == x * root_power(k)
    for g in range(1, 5):
        # z -> z^g is a ring homomorphism, and it is x(z^g) mod PHI5
        assert (x + y).galois(g) == x.galois(g) + y.galois(g)
        assert (x * y).galois(g) == x.galois(g) * y.galois(g)
        assert ONE.galois(g) == ONE
        assert x.galois(g) == _reduce(_poly(x).compose(sympy.Poly(Z ** g, Z)))


# ---------------------------------------------------------
# normal-form's term cap: t_0^(5k) has C(k+3, 3) standard terms
# ---------------------------------------------------------


def _t0_heavy_words(seed, zero_counts):
    """Words with each given number of letters 0, shuffled among up to 12 others."""
    rng = random.Random(seed)
    for zeros in zero_counts:
        word = [0] * zeros + [rng.randint(1, 4) for _ in range(rng.randint(0, 12))]
        rng.shuffle(word)
        yield word


def _matrix_files(tmp_path, *matrices):
    paths = []
    for i, matrix in enumerate(matrices):
        paths.append(tmp_path / ("matrix%d.json" % i))
        paths[-1].write_text(json.dumps(matrix.to_json()))
    return [str(path) for path in paths]


def test_normal_form_under_the_cap_has_the_predicted_term_count(
        capsys, tmp_path, canonical_matrix):
    (matrix,) = _matrix_files(tmp_path, canonical_matrix)
    rng = random.Random(11)
    zero_counts = [0, 4, 5, 94, 185, 189] + [rng.randint(0, 189) for _ in range(6)]
    for word in _t0_heavy_words(12, zero_counts):
        code = main(["normal-form", "--matrix", matrix, "--word", ",".join(map(str, word))])
        terms = json.loads(capsys.readouterr().out)["terms"]
        assert code == 0 and len(terms) == comb(word.count(0) // 5 + 3, 3)
        assert len(normal_form(word, canonical_matrix).terms) == len(terms)


def test_normal_form_over_the_cap_is_refused_at_once(capsys, tmp_path, canonical_matrix):
    # the count is decided before the letters and the matrix are checked, so
    # a letter outside 0..4 or a non-admissible matrix changes nothing.  Time
    # and memory are bounded by 50 ms and 1 MiB plus what parsing costs per
    # letter; an expansion would need C(k+3, 3) terms, over 10^4 here
    files = _matrix_files(tmp_path, canonical_matrix,
                          QMatrix([[0, 1, 0, 0, 0]] + [[0] * 5] * 4))
    rng = random.Random(13)
    zero_counts = [190, 194, 5000, 100_000] + [rng.randint(190, 20_000) for _ in range(6)]
    for i, word in enumerate(_t0_heavy_words(14, zero_counts)):
        word += [[], [7], [-1]][i % 3]
        argv = ["--word", ",".join(map(str, word))]
        message = "%d standard terms" % comb(word.count(0) // 5 + 3, 3)
        for matrix in files:
            start = time.perf_counter()
            code = main(["normal-form", "--matrix", matrix] + argv)
            elapsed = time.perf_counter() - start
            captured = capsys.readouterr()
            error = json.loads(captured.err)["error"]
            assert code == 3 and captured.out == "" and error["kind"] == "precondition"
            assert message in error["message"]
            assert elapsed < 0.05 + 1e-6 * len(word)
        tracemalloc.start()
        try:
            assert main(["normal-form", "--matrix", files[0]] + argv) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 2 ** 20 + 32 * len(word)


# ---------------------------------------------------------
# CLI robustness: no exception escapes main, and every failure is one record
# ---------------------------------------------------------

KINDS = {2: {"usage", "parse"}, 3: {"precondition"}, 4: {"budget"}, 5: {"internal"}}

junk = st.text(alphabet=" ,:-/.0123456789eaz", max_size=12)
keys = st.sampled_from(["format", "source_matrix", "exp", "entries"]) | st.text(
    alphabet="abcxyz", max_size=3)
json_docs = st.recursive(
    st.none() | st.booleans() | st.integers(-6, 6) | st.floats(-10, 10) | junk,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(keys, inner, max_size=4),
    max_leaves=20)


def _files(canonical_rows):
    """(matrix file, table file) texts: the canonical matrix, small integer
    matrices, JSON junk and text junk.  A table here has at most three
    exponent rows, so none is valid and no fiber computation runs."""
    matrices = st.just(canonical_rows) | st.lists(
        st.lists(st.integers(-6, 6), min_size=5, max_size=5), min_size=4, max_size=6)
    tables = st.fixed_dictionaries({
        "format": st.sampled_from([2, 1, "2"]),
        "source_matrix": matrices | json_docs,
        "exp": st.lists(st.text(alphabet="0123456789x", max_size=3), max_size=3) | json_docs,
    })
    other = json_docs.map(json.dumps) | junk
    return (matrices.map(json.dumps) | other), (tables.map(json.dumps) | other)


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _csv(item, n):
    return st.lists(item, max_size=n).map(",".join) | junk


def _opt(name, values):
    # --name=value, so that a junk value starting with '-' still reaches it
    return values.map(lambda v: ["%s=%s" % (name, v)])


def _maybe(name, values):
    return _opt(name, values) | st.just([])


def _argvs(matrix, table, out_paths):
    commands = st.one_of(
        st.tuples(st.just(["hilbert"]), _opt("--twists", _csv(
            st.tuples(_ints(-6, 6), _ints(-2, 9)).map(":".join), 3)),
            _maybe("--at", _ints(-9, 9)), st.just([]) | st.just(["--cohomology"])),
        st.tuples(st.just(["normal-form", "--matrix=" + matrix]),
                  _opt("--word", _csv(_ints(-1, 6), 8))),
        st.tuples(st.just(["build-table", "--matrix=" + matrix]),
                  _opt("--out", st.sampled_from(out_paths))),
        st.tuples(st.just(["verify", "--table=" + table]), _maybe("--mode", st.sampled_from(
            ["exact", "full", "sampled"]) | _ints(-2, 10 ** 6).map("sampled={}".format) | junk),
            _maybe("--seed", _ints(-2, 9) | junk), _maybe("--budget-seconds", junk)),
        st.tuples(st.just(["fiber", "--table=" + table]), _opt("--point", _csv(
            _ints(-3, 3) | st.sampled_from(["1/2", "-1/3", "z", "1/0"]), 6))),
    )
    return commands.map(lambda parts: sum(parts, []))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_cli_failures_are_single_records(fuzz_dir, canonical_matrix):
    matrix, table = fuzz_dir / "matrix.json", fuzz_dir / "table.json"
    out_paths = [str(fuzz_dir / "out.json"), str(fuzz_dir),
                 str(fuzz_dir / "absent" / "out.json"), ""]
    matrix_files, table_files = _files(canonical_matrix.to_json())

    @settings(derandomize=True, database=None, max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argv=_argvs(str(matrix), str(table), out_paths),
           matrix_text=matrix_files, table_text=table_files)
    def check(argv, matrix_text, table_text):
        matrix.write_text(matrix_text)
        table.write_text(table_text)
        out, err = io.StringIO(), io.StringIO()
        code = main(argv, stdout=out, stderr=err)
        assert code in range(6), argv
        if code in (0, 1):
            assert err.getvalue() == "", argv
        else:
            record = json.loads(err.getvalue())
            assert list(record) == ["error"], argv
            assert record["error"]["kind"] in KINDS[code], argv
            assert out.getvalue() == "", argv

    check()
