import json

import numpy as np
import pytest

from qfermat import indices, structure
from qfermat.errors import BudgetExceededError, PreconditionError
from qfermat.fiber import specialize
from qfermat.qmatrix import QMatrix, act_twist, is_admissible, sample_admissible
from qfermat.structure import (
    build_table,
    cy_certificate,
    exponent_matrix,
    frobenius_pairing,
    is_symmetric_pairing,
    parse_mode,
    verify_associativity,
)

# ---------------------------------------------------------
# exponent matrix
# ---------------------------------------------------------


def test_zero_matrix_gives_zero_exponents(zero_table):
    assert (zero_table.exp == 0).all()


def test_exponents_vanish_against_the_unit(canonical_table):
    # E(a, 0) = E(0, b) = 0: the zero index is a two-sided unit
    assert (canonical_table.exp[:, 0] == 0).all()
    assert (canonical_table.exp[0, :] == 0).all()


def _definition(rows):
    # E(a,b) = sum_{i>j} n_ij a_i b_j mod 5 on all 625^2 pairs, in int64 with
    # n reduced mod 5 first
    n = np.array([[x % 5 for x in row] for row in rows], dtype=np.int64)
    n *= np.greater.outer(np.arange(5), np.arange(5))
    a = indices.tables().idx
    return np.einsum("ai,ij,bj->ab", a, n, a) % 5


def test_exponent_matches_direct_formula(canonical_matrix, canonical_table):
    # the all-pairs definition is the oracle of E independent of the row
    # gather, on the canonical table, a skew matrix that is not admissible,
    # and random integer matrices with negative entries and entries above 2^63
    assert (canonical_table.exp == _definition(canonical_matrix.entries)).all()
    skew = QMatrix.from_upper([1] + [0] * 9)
    assert not is_admissible(skew)
    rng = np.random.default_rng(314)
    randoms = [[[int(x) + int(k) * 2 ** 64 for x, k in zip(xs, ks)]
                for xs, ks in zip(rng.integers(-10 ** 6, 10 ** 6, (5, 5)),
                                  rng.integers(-2, 3, (5, 5)))] for _ in range(8)]
    flat = [x for rows in randoms for row in rows for x in row]
    assert min(flat) < 0 and max(flat) > 2 ** 63
    for rows in [skew.entries] + randoms:
        assert (exponent_matrix(rows) == _definition(rows)).all(), rows


def test_exponent_bilinearity_arrays(canonical_table):
    # E(a, b + c) = E(a, b) + E(a, c) mod 5, and same in the first slot, for
    # the canonical table and for seeded integer matrices with entries in
    # -9..9, skew and not
    t = indices.tables()
    entries = np.random.default_rng(57).integers(-9, 10, size=(6, 5, 5))
    upper = np.triu(entries[3:], 1)
    matrices = list(entries[:3]) + list(upper - upper.transpose(0, 2, 1))
    rng = np.random.default_rng(56)
    for E in [canonical_table.exp] + [exponent_matrix(m.tolist()) for m in matrices]:
        E = E.astype(np.int16)
        for _ in range(25):
            b, c = (int(x) for x in rng.integers(0, 625, size=2))
            bc = int(t.sum_idx[b, c])
            assert ((E[:, b] + E[:, c]) % 5 == E[:, bc]).all()
            assert ((E[b, :] + E[c, :]) % 5 == E[bc, :]).all()


def test_exponent_matrix_of_plain_rows_with_huge_entries(canonical_matrix):
    # entries beyond the int64 range must reduce mod 5 first
    rows = [list(r) for r in canonical_matrix.entries]
    rows[1][0] = 5 * 10 ** 17 + 1
    rows[3][2] -= 5 * 10 ** 30
    assert (exponent_matrix(rows) == exponent_matrix(QMatrix(rows))).all()


def test_build_table_rejects_non_admissible():
    bad = QMatrix([[0, 1, 0, 0, 0], [4, 0, 0, 0, 0]] + [[0] * 5] * 3)
    with pytest.raises(PreconditionError):
        build_table(bad)


# ---------------------------------------------------------
# table access and provenance
# ---------------------------------------------------------


def test_entry_accessor_types(canonical_table):
    a, b = (0, 0, 1, 1, 3), (0, 1, 4, 4, 1)
    e, carry, target = canonical_table.entry(a, b)
    assert type(e) is int and 0 <= e <= 4
    assert e == int(canonical_table.exp[indices.position(a), indices.position(b)])
    assert carry == tuple(x + y >= 5 for x, y in zip(a, b))
    assert target == tuple((x + y) % 5 for x, y in zip(a, b))
    assert all(type(f) is bool for f in carry) and all(type(d) is int for d in target)
    assert canonical_table.entry(indices.position(a), list(b)) == (e, carry, target)


def test_carry_count_is_weight_drop(canonical_table):
    rng = np.random.default_rng(77)
    for _ in range(100):
        ia, ib = (int(x) for x in rng.integers(0, 625, size=2))
        _, carry, target = canonical_table.entry(ia, ib)
        t = indices.tables()
        drop = int(t.weight[ia]) + int(t.weight[ib]) - int(t.weight[t.sum_idx[ia, ib]])
        assert sum(carry) == drop


# ---------------------------------------------------------
# associativity verification
# ---------------------------------------------------------


def test_exact_bilinear_passes(canonical_table):
    report = verify_associativity(canonical_table)
    assert report.ok
    assert bool(report)
    assert report.mode == "exact-bilinear"
    assert report.violations == []
    assert report.checks >= 625 * 625


def test_full_triple_passes_on_zero_matrix(zero_table):
    report = verify_associativity(zero_table, "full-triple", budget_seconds=300)
    assert report.ok
    assert report.checks == 625 ** 3


def test_full_triple_passes_on_canonical_table(canonical_table):
    # unlike on the zero table, about a third of the cocycle defects here are
    # 5 or -5, which the residue rule must read as 0 mod 5
    report = verify_associativity(canonical_table, "full")
    assert report.ok and report.violations == []
    assert report.checks == 625 ** 3


def test_full_triple_budget_enforced(canonical_table):
    with pytest.raises(BudgetExceededError):
        verify_associativity(canonical_table, "full", budget_seconds=0.01)


def test_verify_rejects_negative_seed_and_bad_budget(canonical_table):
    with pytest.raises(PreconditionError):
        verify_associativity(canonical_table, "sampled=10", seed=-1)
    for budget in (float("nan"), -1.0):
        with pytest.raises(PreconditionError):
            verify_associativity(canonical_table, "full", budget_seconds=budget)


def test_sampled_requires_seed(canonical_table):
    with pytest.raises(PreconditionError):
        verify_associativity(canonical_table, "sampled=100")


def test_sampled_deterministic_and_clean(canonical_table):
    r1 = verify_associativity(canonical_table, "sampled=5000", seed=42)
    r2 = verify_associativity(canonical_table, "sampled(5000)", seed=42)
    assert r1.ok and r2.ok
    assert r1.seed == 42
    assert r1.checks == r2.checks == 5000


def test_parse_mode_accepts_both_spellings():
    assert parse_mode("exact") == parse_mode("exact-bilinear")
    assert parse_mode("full") == parse_mode("full-triple")
    assert parse_mode("sampled=250") == ("sampled", 250)
    assert parse_mode("sampled(250)") == ("sampled", 250)
    assert parse_mode("sampled=1_000") == ("sampled", 1000)
    for mode in ("fuzzy", "sampled=0", "sampled(1__0)", "sampled=_1", "sampled(abc)"):
        with pytest.raises(PreconditionError):
            parse_mode(mode)


def test_corrupted_exponent_detected_by_every_mode(canonical_table):
    a, b = (0, 0, 1, 1, 3), (0, 1, 4, 4, 1)
    old = canonical_table.entry(a, b)[0]
    bad = canonical_table.replace_exponent(a, b, (old + 2) % 5)

    exact = verify_associativity(bad)
    assert not exact.ok
    assert exact.violations
    first = exact.violations[0]
    assert first["a"] == list(a) and first["b"] == list(b)

    sampled = verify_associativity(bad, "sampled=200000", seed=9)
    assert not sampled.ok

    with_full = verify_associativity(bad, "full", budget_seconds=300)
    assert not with_full.ok


def test_exact_bilinear_is_stricter_than_associativity(canonical_matrix, canonical_table):
    # a twisted matrix's exponents differ from N's by a coboundary: the table
    # is associative, but its exponents are not N's bilinear form
    twisted = exponent_matrix(act_twist(canonical_matrix, (0, 1, 2, 3, 4)))
    assert int((twisted != canonical_table.exp).sum()) == 312_000
    table = structure.StructureTable(canonical_matrix, twisted)
    assert verify_associativity(table, "full").ok
    assert verify_associativity(table, "sampled(100000)", seed=3).ok
    exact = verify_associativity(table)
    assert not exact.ok
    assert len(exact.violations) == 20
    assert {v["kind"] for v in exact.violations} == {"bilinear-form"}
    with pytest.raises(PreconditionError, match="fails exact-bilinear verification"):
        specialize(table, (1, 1, 1, 1, -4))


def test_recorded_violations_carry_both_cocycle_sides(canonical_table):
    a, b = (0, 0, 1, 1, 3), (0, 1, 4, 4, 1)
    old = canonical_table.entry(a, b)[0]
    bad = canonical_table.replace_exponent(a, b, (old + 2) % 5)
    exp = bad.exp.astype(np.int64)
    s = indices.tables().sum_idx
    pos = indices.tables().index_of
    for report in (verify_associativity(bad, "full", budget_seconds=300),
                   verify_associativity(bad, "sampled=200000", seed=9)):
        assert report.violations
        for v in report.violations:
            x, y, z = (pos[tuple(v[k])] for k in "abc")
            assert v["kind"] == "cocycle"
            assert v["lhs"] == (exp[x, y] + exp[s[x, y], z]) % 5
            assert v["rhs"] == (exp[y, z] + exp[x, s[y, z]]) % 5
            assert v["lhs"] != v["rhs"]


def test_violation_reports_are_capped(canonical_table):
    exp = canonical_table.exp.copy()
    exp[1:50, 1:50] = (exp[1:50, 1:50] + 1) % 5
    bad = structure.StructureTable(canonical_table.source_matrix, exp)
    report = verify_associativity(bad)
    assert not report.ok
    assert len(report.violations) <= 20


def _flipped(table, positions):
    # a copy of the table with each listed exponent moved by 1..4
    exp = table.exp.copy()
    rows, cols = positions
    exp[rows, cols] = (exp[rows, cols] + 1 + np.arange(len(rows)) % 4) % 5
    return structure.StructureTable(table.source_matrix, exp)


def _corrupted_pair(table, first_pair):
    # one flipped exponent, and 0.1 % of the entries flipped at a fixed seed
    rng = np.random.default_rng(808)
    many = np.nonzero(rng.random((625, 625)) < 0.001)
    return _flipped(table, ([first_pair[0]], [first_pair[1]])), _flipped(table, many)


def _sampled_slices(n, seed):
    # slice j of a sampled run is the j-th integers(0, 625, (3, k)) int32
    # draw of the seeded stream, k = 2^16 except in the last slice
    rng = np.random.default_rng(seed)
    for lo in range(0, n, 1 << 16):
        yield lo, rng.integers(0, 625, (3, min(1 << 16, n - lo)), dtype=np.int32)


def test_sampled_records_are_first_bad_triples(canonical_table):
    n, seed = 150001, 23  # more than two slices of 2^16, not a multiple of it
    a, b, c = np.concatenate([abc for _, abc in _sampled_slices(n, seed)], axis=1)
    digits = indices.tables().idx.tolist()
    s = indices.tables().sum_idx.tolist()
    for bad in _corrupted_pair(canonical_table, (a[0], b[0])):
        E = bad.exp.tolist()
        expected = []
        for x, y, z in zip(a.tolist(), b.tolist(), c.tolist()):
            lhs = (E[x][y] + E[s[x][y]][z]) % 5
            rhs = (E[y][z] + E[x][s[y][z]]) % 5
            if lhs != rhs:
                expected.append({"kind": "cocycle", "a": digits[x], "b": digits[y],
                                 "c": digits[z], "lhs": lhs, "rhs": rhs})
                if len(expected) == 20:
                    break
        report = verify_associativity(bad, "sampled=%d" % n, seed=seed)
        assert expected
        assert report.violations == expected
        assert not report.ok and report.checks == n


def _sampled_bad_triples(table, n, seed):
    # the reference evaluates each slice of the seeded stream in int64 over
    # sum_idx; returns the first 20 records and the slices they came from
    s = indices.tables().sum_idx
    digits = indices.tables().idx.tolist()
    exp = table.exp.astype(np.int64)
    expected, slices = [], set()
    for lo, (a, b, c) in _sampled_slices(n, seed):
        lhs = (exp[a, b] + exp[s[a, b], c]) % 5
        rhs = (exp[b, c] + exp[a, s[b, c]]) % 5
        for t in np.flatnonzero(lhs != rhs)[:20 - len(expected)].tolist():
            slices.add(lo)
            expected.append({"kind": "cocycle", "a": digits[a[t]],
                             "b": digits[b[t]], "c": digits[c[t]],
                             "lhs": int(lhs[t]), "rhs": int(rhs[t])})
    return expected, slices


def test_sampled_records_across_batches(canonical_table):
    n, seed = 2000001, 29
    one, many = _corrupted_pair(canonical_table, (37, 412))
    for bad in (one, many):
        expected, slices = _sampled_bad_triples(bad, n, seed)
        report = verify_associativity(bad, "sampled=%d" % n, seed=seed)
        assert expected
        assert report.violations == expected
        assert not report.ok and report.checks == n
        if bad is one:
            # one flipped exponent is rare enough that later slices record too
            assert len(slices) >= 2


def _first_bad_triples(table, count=20):
    # the reference scan: rows a in order, both cocycle sides in int64 mod 5
    exp, s = table.exp.astype(np.int64), indices.tables().sum_idx
    digits = indices.tables().idx.tolist()
    found = []
    for a in range(625):
        lhs = (exp[a][:, None] + exp[s[a]]) % 5
        rhs = (exp + exp[a][s]) % 5
        for b, c in np.argwhere(lhs != rhs)[:count - len(found)].tolist():
            found.append({"kind": "cocycle", "a": digits[a], "b": digits[b],
                          "c": digits[c], "lhs": int(lhs[b, c]), "rhs": int(rhs[b, c])})
        if len(found) == count:
            break
    return found


def test_full_triple_records_are_first_bad_triples(canonical_table):
    one, many = _corrupted_pair(canonical_table, (37, 412))
    exp = canonical_table.exp.copy()
    exp[1:50, 1:50] = (exp[1:50, 1:50] + 1) % 5
    block = structure.StructureTable(canonical_table.source_matrix, exp)
    tables = [one, many, block,
              _flipped(canonical_table, ([624], [623])),  # last row
              _flipped(canonical_table, ([0], [311])),    # row of the unit
              _flipped(canonical_table, ([5, 400], [0, 0]))]  # column of the unit
    for bad in tables:
        expected = _first_bad_triples(bad)
        report = verify_associativity(bad, "full")
        assert len(expected) == 20
        assert report.violations == expected
        assert not report.ok and report.checks == 625 ** 3
    # the 0.1 % table has more than 20 bad (a, c) pairs on many slabs of b
    exp, s = many.exp.astype(np.int64), indices.tables().sum_idx
    crowded = 0
    for b in range(0, 625, 25):
        lhs = (exp[:, b, None] + exp[s[:, b]]) % 5
        rhs = (exp[b] + exp[:, s[b]]) % 5
        crowded += np.count_nonzero(lhs != rhs) > 20
    assert crowded >= 20


def _first_nonlinear_pairs(table, count):
    # the reference scan of the linearity witnesses in int64: for each c, the
    # first two pairs (a, b) that break additivity in the second slot, then
    # the first two that break it in the first slot
    exp, s = table.exp.astype(np.int64), indices.tables().sum_idx
    digits = indices.tables().idx.tolist()
    found = []
    for c in range(25):
        for lhs, rhs in ((exp[:, s[:, c]], (exp + exp[:, c, None]) % 5),
                         (exp[s[c]], (exp + exp[c]) % 5)):
            for a, b in np.argwhere(lhs != rhs)[:2].tolist():
                found.append({"kind": "linearity", "a": digits[a], "b": digits[b],
                              "c": digits[c], "lhs": int(lhs[a, b]), "rhs": int(rhs[a, b])})
        if len(found) >= count:
            break
    return found[:count]


def test_residue_rule_decides_zero_mod_5():
    # 5 * 51 = 255 = -1 mod 256, so a defect D in [-8, 8] reads as 51 D + 1
    # mod 256 in uint8; every cocycle defect x + y - z - w and every linearity
    # defect x + y - z of exponents 0..4 is checked
    x = np.arange(5)
    r = structure._residues(x.astype(np.int8))
    one = np.uint8(1)
    cocycle = r[:, None, None, None] + r[:, None, None] - r[:, None] - r + one
    linearity = r[:, None, None] + r[:, None] - r + one
    for residue, defect in (
            (cocycle, x[:, None, None, None] + x[:, None, None] - x[:, None] - x),
            (linearity, x[:, None, None] + x[:, None] - x)):
        assert residue.dtype == np.uint8
        assert ((residue <= 2) == (defect % 5 == 0)).all()
        assert (residue[defect % 5 != 0] >= 51).all()


@pytest.mark.parametrize("shift", [1, 2, 3, 4])
def test_every_defect_class_is_recorded(canonical_table, shift):
    # one exponent moved by each of its four wrong values: every mode records
    # what the int64 references find
    exp = canonical_table.exp.copy()
    exp[37, 412] = (exp[37, 412] + shift) % 5
    bad = structure.StructureTable(canonical_table.source_matrix, exp)
    assert verify_associativity(bad, "full").violations == _first_bad_triples(bad)
    expected, _ = _sampled_bad_triples(bad, 10 ** 6, 7)
    assert expected and verify_associativity(
        bad, "sampled=1000000", seed=7).violations == expected
    exact = verify_associativity(bad, "exact").violations
    assert exact[0]["kind"] == "cocycle" and len(exact) == 20
    assert exact[1:] == _first_nonlinear_pairs(bad, 19)


def test_exact_bilinear_records_match_definitions(canonical_matrix, canonical_table):
    n = canonical_matrix.entries
    pos = indices.tables().index_of

    def definition(a, b):
        return sum(n[i][j] * a[i] * b[j] for i in range(5) for j in range(i)) % 5

    def plus(a, b):
        return [(x + y) % 5 for x, y in zip(a, b)]

    one, many = _corrupted_pair(canonical_table, (37, 412))
    for bad in (one, many):
        def E(a, b):
            return int(bad.exp[pos[tuple(a)], pos[tuple(b)]])

        report = verify_associativity(bad, "exact")
        assert not report.ok and len(report.violations) == 20
        for v in report.violations:
            a, b, c, lhs, rhs = v["a"], v["b"], v.get("c"), v["lhs"], v["rhs"]
            assert lhs != rhs and 0 <= lhs < 5 and 0 <= rhs < 5
            if v["kind"] == "cocycle":
                assert lhs == (E(a, b) + E(plus(a, b), c)) % 5
                assert rhs == (E(b, c) + E(a, plus(b, c))) % 5
            elif v["kind"] == "bilinear-form":
                assert (lhs, rhs) == (E(a, b), definition(a, b))
            else:
                assert v["kind"] == "linearity"
                assert (lhs, rhs) in (
                    (E(a, plus(b, c)), (E(a, b) + E(a, c)) % 5),
                    (E(plus(a, c), b), (E(a, b) + E(c, b)) % 5))
    kinds = [v["kind"] for v in verify_associativity(one, "exact").violations]
    assert kinds[0] == "cocycle" and kinds.count("linearity") == 19


# ---------------------------------------------------------
# Frobenius pairing
# ---------------------------------------------------------


def test_pairing_perfect_and_symmetric(canonical_table):
    p = frobenius_pairing(canonical_table)
    assert (p == p[indices.tables().comp]).all()
    assert is_symmetric_pairing(canonical_table)
    certificate = cy_certificate(canonical_table)
    assert certificate.nondegenerate and certificate.symmetric


def test_pairing_pairs_with_complement():
    # a + comp(a) is the top index with no carry, and no other b reaches it
    rng = np.random.default_rng(3)
    t = indices.tables()
    idx = [tuple(a) for a in t.idx.tolist()]
    top = indices.position((4,) * 5)
    for k in (int(k) for k in rng.integers(0, 625, size=40)):
        a = idx[k]
        assert tuple(4 - d for d in a) == idx[int(t.comp[k])]
        assert t.sum_idx[k, t.comp[k]] == top and t.carry_code[k, t.comp[k]] == 0
        for j in (int(j) for j in rng.integers(0, 625, size=5)):
            if j != t.comp[k]:
                assert tuple((x + y) % 5 for x, y in zip(a, idx[j])) != (4,) * 5
                assert t.sum_idx[k, j] != top


def test_pairing_entries_are_pure_roots(canonical_table):
    # the entry at (a, comp a) is zeta^p[a], p[a] the stored exponent there
    p = frobenius_pairing(canonical_table)
    assert p.shape == (625,) and np.issubdtype(p.dtype, np.integer)
    assert ((0 <= p) & (p <= 4)).all()
    for k, a in enumerate(indices.tables().idx.tolist()):
        assert p[k] == canonical_table.entry(a, [4 - d for d in a])[0]


def test_pairing_on_zero_matrix_is_all_ones(zero_table):
    # every entry is zeta^0 = 1
    assert (frobenius_pairing(zero_table) == 0).all()


def test_symmetry_closed_form_over_random_skew():
    """Elementwise antidiagonal symmetry of the pairing exponents holds iff
    all row sums of the skew matrix agree mod 5, admissible or not."""
    rng = np.random.default_rng(2718)
    t = indices.tables()
    rows = np.arange(625)
    comp = t.comp
    seen_sym, seen_asym = 0, 0
    for _ in range(300):
        upper = rng.integers(0, 5, size=10)
        n = [[0] * 5 for _ in range(5)]
        pos = 0
        for i in range(5):
            for j in range(i + 1, 5):
                n[i][j] = int(upper[pos])
                n[j][i] = (-n[i][j]) % 5
                pos += 1
        E = exponent_matrix(QMatrix(n))
        sym = bool((E[rows, comp] == E[comp, rows]).all())
        sums = {sum(r) % 5 for r in QMatrix(n).entries}
        assert sym == (len(sums) == 1)
        seen_sym += sym
        seen_asym += not sym
    assert seen_sym > 0 and seen_asym > 0


# ---------------------------------------------------------
# twist covariance of the exponent cocycle
# ---------------------------------------------------------


def test_twist_changes_exponents_by_a_coboundary(canonical_matrix):
    # E_twisted - E = delta(gamma) with gamma(a) = -3 sum_{i>j} (v_i - v_j) a_i a_j
    t = indices.tables()
    digits = t.idx.astype(np.int64)
    E1 = exponent_matrix(canonical_matrix).astype(np.int64)
    rng = np.random.default_rng(31)
    for _ in range(6):
        v = [int(x) for x in rng.integers(0, 5, size=5)]
        v[4] = (-sum(v[:4])) % 5  # zero-sum twists stay admissible
        twisted = act_twist(canonical_matrix, v)
        E2 = exponent_matrix(twisted).astype(np.int64)
        W = np.zeros((5, 5), dtype=np.int64)
        for i in range(5):
            for j in range(i):
                W[i, j] = v[i] - v[j]
        gamma = (-3 * np.einsum("ai,ij,aj->a", digits, W, digits)) % 5
        delta = (gamma[:, None] + gamma[None, :] - gamma[t.sum_idx]) % 5
        assert (((E2 - E1) % 5) == delta).all()


# ---------------------------------------------------------
# certificates
# ---------------------------------------------------------


def test_certificate_on_canonical(canonical_matrix):
    cert = cy_certificate(canonical_matrix)
    assert cert.passed
    assert bool(cert)
    assert cert.nondegenerate and cert.symmetric
    assert cert.verdict == "Calabi-Yau pairing criterion satisfied"
    js = cert.to_json()
    assert js["passed"] is True
    assert js["associativity"]["ok"] is True


def test_certificate_flags_associativity_fault(canonical_table):
    a, b = (0, 0, 1, 1, 3), (0, 1, 4, 4, 1)
    old = canonical_table.entry(a, b)[0]
    bad = canonical_table.replace_exponent(a, b, (old + 1) % 5)
    cert = cy_certificate(bad)
    assert not cert.passed
    assert cert.verdict == "associativity failure"


def test_certificate_accepts_prebuilt_table(canonical_table):
    cert = cy_certificate(canonical_table)
    assert cert.passed
    assert cert.source_matrix == canonical_table.source_matrix


# ---------------------------------------------------------
# serialization
# ---------------------------------------------------------


def test_table_json_roundtrip(canonical_table):
    data = canonical_table.to_json()
    assert len(data["exp"]) == 625
    loaded = structure.StructureTable.from_json(data)
    assert loaded.source_matrix == canonical_table.source_matrix
    assert (loaded.exp == canonical_table.exp).all()
    for pair in ((0, 0), (17, 311), (624, 624)):
        assert loaded.entry(*pair) == canonical_table.entry(*pair)
    # seeded admissible matrices, through the bytes that build-table writes
    for matrix in sample_admissible(4, seed=58):
        table = build_table(matrix)
        text = json.dumps(table.to_json(), sort_keys=True, separators=(",", ":"))
        loaded = structure.StructureTable.from_json(json.loads(text))
        assert loaded.source_matrix == matrix
        assert (loaded.exp == table.exp).all()
        assert json.dumps(loaded.to_json(), sort_keys=True, separators=(",", ":")) == text


def _drop_last_row(data):
    data["exp"] = data["exp"][:-1]


def _short_row(data):
    data["exp"][3] = data["exp"][3][:-1]


def _set_digit(char):
    def corrupt(data):
        row = data["exp"][5]
        data["exp"][5] = row[:9] + char + row[10:]
    return corrupt


def _format_1(data):
    # a format-1 file lists per-pair records and has no format field
    del data["format"], data["exp"]
    data["entries"] = [{"a": [0] * 5, "b": [0] * 5, "target": [0] * 5,
                        "exp": 0, "carry": [False] * 5}]


@pytest.mark.parametrize("corrupt", [
    _drop_last_row, _short_row, _set_digit("x"), _set_digit("5"), _format_1,
], ids=["624-rows", "short-row", "non-digit", "digit-5", "format-1"])
def test_table_json_rejects_malformed(canonical_table, corrupt):
    data = canonical_table.to_json()
    corrupt(data)
    with pytest.raises(PreconditionError):
        structure.StructureTable.from_json(data)


# ---------------------------------------------------------
# seeded admissible sweep (small here; the acceptance suite widens it)
# ---------------------------------------------------------


def test_seeded_admissible_tables_verify():
    for m in sample_admissible(5, seed=2024):
        table = build_table(m)
        assert verify_associativity(table).ok
        assert cy_certificate(table).passed
