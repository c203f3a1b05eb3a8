import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import act_permute, act_scale, act_twist, is_generic, sample_admissible
from qfermat import qmatrix
from qfermat.errors import PreconditionError
from qfermat.qmatrix import (
    ALL_ACTIONS,
    QMatrix,
    admissible_matrix,
    classify,
    count_admissible,
    enumerate_generic,
    is_admissible,
    orbit_representatives,
)
from qfermat.rewrite import (
    AlgElement,
    is_central,
    multiply,
    normal_form,
    normal_form_random_schedule,
)
from qfermat.structure import StructureTable, build_table

ACTION_SUBSETS = [set(c) for r in (1, 2, 3) for c in itertools.combinations(ALL_ACTIONS, r)]

CANONICAL = QMatrix([
    (0, 0, 0, 0, 0),
    (0, 0, 1, 1, 3),
    (0, 4, 0, 2, 4),
    (0, 4, 3, 0, 3),
    (0, 2, 1, 2, 0),
])

# ---------------------------------------------------------
# predicates
# ---------------------------------------------------------


def test_zero_matrix_is_admissible_not_generic():
    z = QMatrix([[0] * 5] * 5)
    assert is_admissible(z)
    assert not is_generic(z)


def test_canonical_matrix_is_admissible_and_generic():
    assert is_admissible(CANONICAL)
    assert is_generic(CANONICAL)


def test_admissibility_requires_skew_and_zero_row_sums():
    # break skewness
    rows = [list(r) for r in CANONICAL.entries]
    rows[1][2] = 3  # n_21 stays 4, no longer -n_12
    assert not is_admissible(QMatrix(rows))
    # break a row sum but keep skewness
    rows = [[0] * 5 for _ in range(5)]
    rows[0][1], rows[1][0] = 1, 4
    rows[0][2], rows[2][0] = 1, 4
    assert not is_admissible(QMatrix(rows))
    # nonzero diagonal
    rows = [[0] * 5 for _ in range(5)]
    rows[3][3] = 1
    assert not is_admissible(QMatrix(rows))


def test_admissible_matrix_is_the_one_gate(canonical_table):
    # a QMatrix passes through as itself, rows are read by the constructor,
    # and every reader of a matrix that must be admissible refuses with the
    # gate's one message
    assert admissible_matrix(CANONICAL) is CANONICAL
    assert admissible_matrix(CANONICAL.to_json()) == CANONICAL
    t1 = AlgElement.generator(1)
    document = dict(canonical_table.to_json())
    readers = [
        admissible_matrix, build_table,
        lambda N: normal_form((1, 0), N),
        lambda N: multiply(t1, t1, N),
        lambda N: is_central(t1, N),
        lambda N: normal_form_random_schedule((1, 0), N, np.random.default_rng(0)),
        lambda N: StructureTable.from_json(dict(document, source_matrix=N)),
    ]
    skew = [[0, 1, 0, 0, 0], [4, 0, 0, 0, 0]] + [[0] * 5] * 3
    diagonal = [[1, 0, 0, 0, 0]] + [[0] * 5] * 4
    for rows in (skew, diagonal):
        with pytest.raises(PreconditionError) as first:
            admissible_matrix(rows)
        for read in readers:
            for N in (rows, QMatrix(rows)):
                with pytest.raises(PreconditionError) as refused:
                    read(N)
                assert str(refused.value) == str(first.value)
    assert "not admissible" in str(first.value)


def test_admissible_matrix_agrees_with_the_predicate_past_its_cache():
    # 40 matrices, more than the 16 the gate caches, each asked twice
    rng = np.random.default_rng(34)
    mats = [QMatrix(m - m.T) for m in rng.integers(0, 5, (20, 5, 5))]
    mats += oracles.admissible_matrices()[::800]
    assert len(mats) == 40 and 0 < sum(map(is_admissible, mats)) < 40
    for m in mats + mats[::-1]:
        if is_admissible(m):
            assert admissible_matrix(m) is m
        else:
            with pytest.raises(PreconditionError):
                admissible_matrix(m)


def test_genericity_checks_all_ordered_triples():
    # matrix admissible but with one additive coincidence n_01 + n_12 = n_02
    m = QMatrix([
        (0, 1, 2, 1, 1),
        (4, 0, 1, 0, 0),
        (3, 4, 0, 0, 3),
        (4, 0, 0, 0, 1),
        (4, 0, 2, 4, 0),
    ])
    assert is_admissible(m)
    assert not is_generic(m)


def test_matrix_entries_reduced_mod_5():
    m = QMatrix([[-1, 6, 0, 0, 0]] + [[0] * 5] * 4)
    assert m.entries[0] == (4, 1, 0, 0, 0)


# ---------------------------------------------------------
# the three symmetry actions (test oracles)
# ---------------------------------------------------------


def test_scale_action_multiplies_entries():
    m = act_scale(CANONICAL, 2)
    for i in range(5):
        for j in range(5):
            assert m.entries[i][j] == (2 * CANONICAL.entries[i][j]) % 5
    with pytest.raises(ValueError):
        act_scale(CANONICAL, 0)
    with pytest.raises(ValueError):
        act_scale(CANONICAL, 5)


def test_scale_action_group_law():
    assert act_scale(act_scale(CANONICAL, 2), 3) == act_scale(CANONICAL, 6)
    assert act_scale(act_scale(CANONICAL, 2), 3) == CANONICAL  # 6 = 1 mod 5


def test_permute_action_relabels_entries():
    sigma = (1, 0, 2, 3, 4)
    m = act_permute(CANONICAL, sigma)
    for i in range(5):
        for j in range(5):
            assert m.entries[i][j] == CANONICAL.entries[sigma[i]][sigma[j]]
    with pytest.raises(ValueError):
        act_permute(CANONICAL, (0, 0, 1, 2, 3))


def test_permute_action_composition_order():
    # acting by sigma then tau equals acting by their composite
    rng = np.random.default_rng(42)
    for _ in range(20):
        sigma = tuple(rng.permutation(5))
        tau = tuple(rng.permutation(5))
        once = act_permute(act_permute(CANONICAL, sigma), tau)
        composite = tuple(sigma[tau[i]] for i in range(5))
        assert once == act_permute(CANONICAL, composite)


def test_twist_action_shifts_by_coboundary():
    v = (1, 0, 2, 4, 3)
    m = act_twist(CANONICAL, v)
    for i in range(5):
        for j in range(5):
            if i == j:
                assert m.entries[i][j] == 0
            else:
                assert m.entries[i][j] == (CANONICAL.entries[i][j] + v[i] - v[j]) % 5


def test_twist_action_is_additive_in_v():
    u = (1, 2, 0, 0, 4)
    v = (3, 0, 1, 1, 2)
    w = tuple((a + b) % 5 for a, b in zip(u, v))
    assert act_twist(act_twist(CANONICAL, u), v) == act_twist(CANONICAL, w)
    # constant vectors act trivially
    assert act_twist(CANONICAL, (2, 2, 2, 2, 2)) == CANONICAL


def test_all_actions_preserve_admissible_and_generic():
    rng = np.random.default_rng(99)
    mats = [CANONICAL] + sample_admissible(10, seed=5)
    for m in mats:
        adm, gen = is_admissible(m), is_generic(m)
        for a in range(1, 5):
            out = act_scale(m, a)
            assert is_admissible(out) == adm and is_generic(out) == gen
        for _ in range(4):
            sigma = tuple(rng.permutation(5))
            out = act_permute(m, sigma)
            assert is_admissible(out) == adm and is_generic(out) == gen
        for _ in range(4):
            v = tuple(int(x) for x in rng.integers(0, 5, size=5))
            if sum(v) % 5 != 0:
                v = v[:4] + ((-sum(v[:4])) % 5,)
            out = act_twist(m, v)
            assert is_admissible(out) == adm and is_generic(out) == gen


def test_genericity_defect_is_twist_invariant():
    # the triple sums n_ij + n_jk - n_ik are unchanged by any twist
    rng = np.random.default_rng(123)
    m = CANONICAL
    for _ in range(10):
        v = tuple(int(x) for x in rng.integers(0, 5, size=5))
        t = act_twist(m, v)
        for i, j, k in itertools.permutations(range(5), 3):
            lhs = (m.entries[i][j] + m.entries[j][k] - m.entries[i][k]) % 5
            rhs = (t.entries[i][j] + t.entries[j][k] - t.entries[i][k]) % 5
            assert lhs == rhs


# ---------------------------------------------------------
# enumeration (frozen counts)
# ---------------------------------------------------------


def test_enumeration_counts():
    assert len(enumerate_generic()) == 3000
    assert count_admissible() == len(oracles.admissible_matrices()) == 15625
    assert len(oracles.generic_matrices()) == 3000


def test_enumerated_matrices_satisfy_predicates():
    # the oracle builds every matrix from its free entries in plain Python
    # and keeps those with no additive coincidence among the 60 triples, so
    # it shares no code with the int8 array that enumerate_generic reads
    assert all(is_admissible(m) for m in oracles.admissible_matrices())
    assert enumerate_generic() == list(oracles.generic_matrices())


def test_enumeration_sorted_and_first_element():
    # code order is row-major order, so the least code is the least matrix
    rows = [m.entries for m in oracles.admissible_matrices()]
    assert rows == sorted(rows)
    assert enumerate_generic()[0] == CANONICAL


def test_enumeration_agrees_with_predicates():
    # neither the free-entry construction nor the int8 genericity test
    # consults the predicates, so compare them on a seeded sample of the
    # 5^10 upper-entry vectors; every second vector has its column-4 entries
    # solved for zero row sums, so both answers occur
    admissible = set(oracles.admissible_matrices())
    generic = set(enumerate_generic())
    rng = np.random.default_rng(4321)
    seen = {(True, True): 0, (True, False): 0, (False, False): 0}
    upper = np.triu_indices(5, 1)  # row-major, as the 10 entries are drawn
    for k, u in enumerate(rng.integers(0, 5, size=(4000, 10))):
        m = np.zeros((5, 5), dtype=np.int64)
        m[upper] = u
        if k % 2:
            # n04, n14, n24, n34 each enter exactly one of the rows 0..3
            m[:4, 4] -= (m - m.T).sum(axis=1)[:4]
        m = QMatrix(m - m.T)
        adm = is_admissible(m)
        gen = adm and is_generic(m)
        assert (m in admissible) == adm
        assert (m in generic) == gen
        seen[adm, gen] += 1
    assert min(seen.values()) >= 200, seen


def test_sample_admissible_seeded_and_valid():
    a = sample_admissible(25, seed=77)
    b = sample_admissible(25, seed=77)
    assert a == b
    assert all(is_admissible(m) for m in a)
    c = sample_admissible(25, seed=78)
    assert a != c


# ---------------------------------------------------------
# orbits and classification
# ---------------------------------------------------------

# every group element once, as a scaling after a permutation after a
# zero-sum twist with v_0 = 0 (v and v + (c, ..., c) twist alike)
TWISTS = np.array([(0,) + v for v in itertools.product(range(5), repeat=4) if sum(v) % 5 == 0])
PERMS = np.array(list(itertools.permutations(range(5))))


def _group_images(m, actions):
    """(k, v, s, 5, 5) images of m, one per element of the group the actions
    generate: entry (i, j) of image [k, v, s] is
    scalings[k] (n_ij + v_i - v_j)[s_i, s_j] mod 5."""
    scalings = [1, 2, 3, 4] if "scale" in actions else [1]
    twists = TWISTS if "twist" in actions else TWISTS[:1]
    perms = PERMS if "permute" in actions else PERMS[:1]
    twisted = np.array(m.entries) + twists[:, :, None] - twists[:, None, :]
    return np.multiply.outer(scalings, twisted[:, perms[:, :, None], perms[:, None, :]]) % 5


def _codes(entries):
    """Positions in oracles.admissible_matrices() of admissible (..., 5, 5)
    entries: the free entries read as a base-5 number."""
    rows, cols = np.array(oracles.FREE_PAIRS).T
    return set((entries[..., rows, cols] @ 5 ** np.arange(5, -1, -1)).ravel().tolist())


def _partition(matrices, actions):
    """Least member of each orbit among the matrices, ascending: take the
    least remaining matrix, remove its group images, and repeat.  Asserts
    that the matrices are a union of orbits."""
    admissible = oracles.admissible_matrices()
    remaining = _codes(np.array([m.entries for m in matrices]))
    reps = []
    while remaining:
        rep = admissible[min(remaining)]
        orbit = _codes(_group_images(rep, actions))
        assert orbit <= remaining, "orbit of %r left the set" % (rep,)
        remaining -= orbit
        reps.append(rep)
    return reps


def _oracle_generic():
    return _codes(np.array([m.entries for m in oracles.generic_matrices()]))


def test_orbit_of_canonical_is_everything_generic():
    assert _codes(_group_images(CANONICAL, ALL_ACTIONS)) == _oracle_generic()
    assert orbit_representatives() == [CANONICAL]


def test_orbit_without_scaling_already_full():
    assert _codes(_group_images(CANONICAL, {"permute", "twist"})) == _oracle_generic()
    assert orbit_representatives({"permute", "twist"}) == [CANONICAL]


def test_orbit_stabilizer_certificate():
    # the images of CANONICAL under every group element, through the oracle
    # actions, are its orbit, and |orbit| * |stabilizer| = |group|; neither
    # the orbit labels nor a closure search is used
    twists = [tuple(v) for v in TWISTS.tolist()]
    perms = list(itertools.permutations(range(5)))
    assert (len(twists), len(perms)) == (125, 120)
    permuted = [act_permute(act_twist(CANONICAL, v), s) for v in twists for s in perms]
    scaled = [act_scale(m, a) for m in permuted for a in range(1, 5)]
    generic = set(oracles.generic_matrices())
    for images, order, stabilizer in ((permuted, 15_000, 5), (scaled, 60_000, 20)):
        assert len(images) == order
        assert images.count(CANONICAL) == stabilizer
        assert len(set(images)) * stabilizer == order
        assert set(images) == generic


def test_class_equation_over_the_admissible_matrices():
    # the orbits partition all 15625 admissible matrices, so the orbit sizes
    # |G| / |Stab(r)| over one representative r per orbit sum to 15625; each
    # stabilizer is counted over every group element
    rng = np.random.default_rng(17)
    for actions, scalings, count in ((ALL_ACTIONS, [1, 2, 3, 4], 4),
                                     (("permute", "twist"), [1], 6)):
        reps = _partition(oracles.admissible_matrices(), actions)
        assert len(reps) == count
        total = 0
        for r in reps:
            images = _group_images(r, actions)
            order = images.size // 25
            assert order == 15_000 * len(scalings)
            for k, v, s in zip(*(rng.integers(0, m, 10) for m in images.shape[:3])):
                image = act_scale(act_permute(act_twist(r, TWISTS[v]), PERMS[s]), scalings[k])
                assert images[k, v, s].tolist() == [list(row) for row in image.entries]
            stabilizer = int((images == np.array(r.entries)).all(axis=(-2, -1)).sum())
            assert order % stabilizer == 0
            total += order // stabilizer
        assert total == 15625, actions


def _bfs_orbit(start, actions):
    """Closure of {start} under the seven generators, through the oracle actions."""
    moves = []
    if "scale" in actions:
        moves.append(lambda m: act_scale(m, 2))
    if "permute" in actions:
        moves += [lambda m, s=s: act_permute(m, s) for s in ((1, 0, 2, 3, 4), (1, 2, 3, 4, 0))]
    if "twist" in actions:
        moves += [lambda m, v=tuple(int(t == 0) - int(t == b) for t in range(5)): act_twist(m, v)
                  for b in range(1, 5)]
    seen, todo = {start}, [start]
    while todo:
        m = todo.pop()
        for move in moves:
            image = move(m)
            if image not in seen:
                seen.add(image)
                todo.append(image)
    return seen


def test_orbit_matches_bfs_over_public_actions():
    # the generators reach every group image: on a generic matrix and on two
    # twists of zero, whose orbit has 125 members, under every action subset
    zero = QMatrix([[0] * 5] * 5)
    mats = sample_admissible(1, seed=4) + [act_twist(zero, (1, 2, 0, 4, 3)),
                                           act_twist(zero, (0, 1, 1, 4, 4))]
    assert [is_generic(m) for m in mats] == [True, False, False]
    for m, size in zip(mats, (3000, 125, 125)):
        assert len(_codes(_group_images(m, ALL_ACTIONS))) == size
        for actions in ACTION_SUBSETS:
            orbit = np.array([x.entries for x in _bfs_orbit(m, actions)])
            assert _codes(orbit) == _codes(_group_images(m, actions)), (m, actions)


def test_orbit_representatives_per_action_subset():
    # the labels' least orbit members against the oracle's own partition of
    # the generic matrices, built from explicit group images
    counts = {}
    for actions in ACTION_SUBSETS:
        reps = orbit_representatives(actions)
        assert reps == _partition(oracles.generic_matrices(), actions), actions
        counts[",".join(sorted(actions))] = len(reps)
    assert counts == {
        "scale": 750, "permute": 29, "twist": 24, "permute,scale": 16,
        "scale,twist": 6, "permute,twist": 1, "permute,scale,twist": 1,
    }
    report = classify()
    assert (report.orbit_count_all_actions, report.orbit_count_without_scaling) == (1, 1)


def test_canonical_representative_idempotent_and_orbit_constant():
    # the least group image is the orbit's representative: it maps CANONICAL
    # to itself and is the same for members of its orbit drawn at random
    def least_image(m):
        return oracles.admissible_matrices()[min(_codes(_group_images(m, ALL_ACTIONS)))]

    assert orbit_representatives() == [CANONICAL] == [qmatrix.canonical_generic_representative()]
    assert least_image(CANONICAL) == CANONICAL
    rng = np.random.default_rng(6)
    orb = sorted(oracles.generic_matrices(), key=lambda m: m.entries)
    assert len(orb) == 3000
    for k in rng.integers(0, 3000, size=8):
        assert least_image(orb[int(k)]) == CANONICAL


def test_classification_report_frozen_values():
    rep = classify()
    assert rep.generic_count == 3000
    assert rep.admissible_count == 15625
    assert rep.orbit_count_all_actions == 1
    assert rep.orbit_count_without_scaling == 1
    assert rep.canonical_representatives == [CANONICAL]
    js = rep.to_json()
    assert js["generic_count"] == 3000
    assert js["canonical_representatives"] == [CANONICAL.to_json()]


def test_classify_does_not_import_numpy_ma():
    # np.unique imports numpy.ma lazily, about 35 ms of a cold process; the
    # orbit representatives are read off the labels without it
    env = dict(os.environ, PYTHONPATH=str(Path(qmatrix.__file__).resolve().parents[1]))
    code = "import sys, qfermat; qfermat.classify(); print('numpy.ma' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------
# serialization and ordering
# ---------------------------------------------------------


def test_qmatrix_json_roundtrip():
    js = CANONICAL.to_json()
    assert js == [list(r) for r in CANONICAL.entries]
    assert QMatrix(js) == CANONICAL


def test_qmatrix_rejects_non_integer_entries(canonical_matrix):
    # entry (1, 2) of the canonical matrix is 1, so truncating 1.5 would
    # silently build the canonical matrix
    for x in (1.5, 1.0, True, np.float64(1), np.bool_(True), "1", None):
        rows = [list(r) for r in canonical_matrix.entries]
        rows[1][2] = x
        with pytest.raises(ValueError, match="integers"):
            QMatrix(rows)
        with pytest.raises(ValueError, match="integers"):
            build_table(rows)


def test_qmatrix_accepts_numpy_integers(canonical_matrix):
    rows = np.array(canonical_matrix.entries)
    for dtype in (np.int8, np.uint8, np.int32, np.int64):
        assert QMatrix(rows.astype(dtype)) == canonical_matrix
    assert QMatrix(rows + 5 * np.arange(25).reshape(5, 5)) == canonical_matrix


def test_qmatrix_rejects_bad_shapes():
    with pytest.raises(Exception):
        QMatrix([[0] * 5] * 4)
    with pytest.raises(Exception):
        QMatrix([[0] * 4] * 5)
