import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qfermat import qmatrix
from qfermat.errors import PreconditionError
from qfermat.qmatrix import (
    ALL_ACTIONS,
    QMatrix,
    act_permute,
    act_scale,
    act_twist,
    canonical_representative,
    classify,
    count_admissible,
    enumerate_admissible,
    enumerate_generic,
    is_admissible,
    is_generic,
    orbit,
    orbit_representatives,
    sample_admissible,
)
from qfermat.structure import build_table

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
    z = QMatrix.zero()
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
# the three symmetry actions
# ---------------------------------------------------------


def test_scale_action_multiplies_entries():
    m = act_scale(CANONICAL, 2)
    for i in range(5):
        for j in range(5):
            assert m.entries[i][j] == (2 * CANONICAL.entries[i][j]) % 5
    with pytest.raises(PreconditionError):
        act_scale(CANONICAL, 0)
    with pytest.raises(PreconditionError):
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
    with pytest.raises(PreconditionError):
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
    gens = enumerate_generic()
    assert len(gens) == 3000
    assert count_admissible() == 15625
    assert len(enumerate_admissible()) == 15625


def test_enumerated_matrices_satisfy_predicates():
    gens = enumerate_generic()
    for m in gens[::97]:
        assert is_admissible(m)
        assert is_generic(m)
    adm = enumerate_admissible()
    for m in adm[::501]:
        assert is_admissible(m)
    # generic list is a subset of the admissible list
    adm_set = set(adm)
    assert all(m in adm_set for m in gens[::53])


def test_enumeration_sorted_and_first_element():
    for mats in (enumerate_generic(), enumerate_admissible()):
        flats = [m.flat() for m in mats]
        assert flats == sorted(flats)
    assert enumerate_generic()[0] == CANONICAL


def test_enumeration_agrees_with_predicates():
    # the construction never consults the predicates, so compare them on a
    # seeded sample of the 5^10 upper-entry vectors; every second vector has
    # its column-4 entries solved for zero row sums, so both answers occur
    admissible = set(enumerate_admissible())
    generic = set(enumerate_generic())
    rng = np.random.default_rng(4321)
    seen = {(True, True): 0, (True, False): 0, (False, False): 0}
    for k, u in enumerate(rng.integers(0, 5, size=(4000, 10)).tolist()):
        if k % 2:
            sums = QMatrix.from_upper(u).row_sums()
            # n04, n14, n24, n34 each enter exactly one of the rows 0..3
            for p, i in ((3, 0), (6, 1), (8, 2), (9, 3)):
                u[p] -= sums[i]
        m = QMatrix.from_upper(u)
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


def test_orbit_of_canonical_is_everything_generic():
    orb = orbit(CANONICAL)
    assert len(orb) == 3000
    assert orb == set(enumerate_generic())


def test_orbit_without_scaling_already_full():
    orb = orbit(CANONICAL, actions={"permute", "twist"})
    assert len(orb) == 3000


def test_orbit_stabilizer_certificate():
    # every group element once, as a scaling after a permutation after a
    # zero-sum twist with v_0 = 0 (v and v + (c, ..., c) twist alike): the
    # images of CANONICAL are its orbit, and |orbit| * |stabilizer| = |group|;
    # neither the orbit labels nor a closure search is used
    twists = [(0,) + v for v in itertools.product(range(5), repeat=4) if sum(v) % 5 == 0]
    perms = list(itertools.permutations(range(5)))
    assert (len(twists), len(perms)) == (125, 120)
    permuted = [act_permute(act_twist(CANONICAL, v), s) for v in twists for s in perms]
    scaled = [act_scale(m, a) for m in permuted for a in range(1, 5)]
    generic = set(enumerate_generic())
    for images, order, stabilizer in ((permuted, 15_000, 5), (scaled, 60_000, 20)):
        assert len(images) == order
        assert images.count(CANONICAL) == stabilizer
        assert len(set(images)) * stabilizer == order
        assert set(images) == generic


def test_class_equation_over_the_admissible_matrices():
    # the orbits partition all 15625 admissible matrices, so the orbit sizes
    # |G| / |Stab(r)| over one representative r per orbit sum to 15625; each
    # stabilizer is counted over every group element, listed as above
    twists = np.array([(0,) + v for v in itertools.product(range(5), repeat=4)
                       if sum(v) % 5 == 0])
    perms = np.array(list(itertools.permutations(range(5))))
    admissible = enumerate_admissible()
    rng = np.random.default_rng(17)
    for actions, scalings, count in ((ALL_ACTIONS, [1, 2, 3, 4], 4),
                                     (("permute", "twist"), [1], 6)):
        reps = {canonical_representative(m, actions) for m in admissible}
        assert len(reps) == count
        total = 0
        for r in reps:
            n = np.array(r.entries)
            # entry (i, j) of image [k, v, s] is scalings[k] (n_ij + v_i - v_j)[s_i, s_j]
            twisted = n + twists[:, :, None] - twists[:, None, :]
            images = np.multiply.outer(scalings, twisted[:, perms[:, :, None],
                                                         perms[:, None, :]]) % 5
            order = images.size // 25
            assert order == 15_000 * len(scalings)
            for k, v, s in zip(*(rng.integers(0, m, 10) for m in images.shape[:3])):
                image = act_scale(act_permute(act_twist(r, twists[v]), perms[s]), scalings[k])
                assert images[k, v, s].tolist() == [list(row) for row in image.entries]
            stabilizer = int((images == n).all(axis=(-2, -1)).sum())
            assert order % stabilizer == 0
            total += order // stabilizer
        assert total == 15625, actions


def _bfs_orbit(start, actions):
    """Closure of {start} under the generators, through the public actions."""
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
    # the generic orbit, a non-generic one of size 5000, and two twists of
    # zero, whose orbit has 125 members; the BFS pays about 0.1 ms per member
    # and move, so the non-generic orbit of size 7500 is left out
    zero = QMatrix.zero()
    mats = sample_admissible(2, seed=4) + [act_twist(zero, (1, 2, 0, 4, 3)),
                                           act_twist(zero, (0, 1, 1, 4, 4))]
    assert [is_generic(m) for m in mats] == [True, False, False, False]
    assert [len(orbit(m)) for m in mats] == [3000, 5000, 125, 125]
    for m in mats:
        for actions in ACTION_SUBSETS:
            orb = orbit(m, actions)
            assert orb == _bfs_orbit(m, actions), (m, actions)
            assert canonical_representative(m, actions) == min(orb)


def test_orbit_representatives_per_action_subset():
    counts = {}
    for actions in ACTION_SUBSETS:
        reps = orbit_representatives(actions)
        assert reps == sorted(reps)
        assert all(canonical_representative(r, actions) == r for r in reps)
        assert sum(len(orbit(r, actions)) for r in reps) == 3000
        counts[",".join(sorted(actions))] = len(reps)
    assert counts == {
        "scale": 750, "permute": 29, "twist": 24, "permute,scale": 16,
        "scale,twist": 6, "permute,twist": 1, "permute,scale,twist": 1,
    }


def test_orbit_requires_admissible_start():
    bad = QMatrix([[0, 1, 0, 0, 0]] + [[0] * 5] * 4)
    with pytest.raises(PreconditionError):
        orbit(bad)


def test_canonical_representative_idempotent_and_orbit_constant():
    rep = canonical_representative(CANONICAL)
    assert rep == CANONICAL
    rng = np.random.default_rng(6)
    orb = sorted(orbit(CANONICAL))
    for k in rng.integers(0, 3000, size=8):
        assert canonical_representative(orb[int(k)]) == rep


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
    assert QMatrix.from_json(js) == CANONICAL


def test_qmatrix_ordering_row_major():
    a = QMatrix.zero()
    assert a < CANONICAL
    assert sorted([CANONICAL, a])[0] == a


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
    upper = [0] * 10
    upper[4] = 2.5
    with pytest.raises(ValueError, match="integers"):
        QMatrix.from_upper(upper)


def test_qmatrix_accepts_numpy_integers(canonical_matrix):
    rows = np.array(canonical_matrix.entries)
    for dtype in (np.int8, np.uint8, np.int32, np.int64):
        assert QMatrix(rows.astype(dtype)) == canonical_matrix
    assert QMatrix(rows + 5 * np.arange(25).reshape(5, 5)) == canonical_matrix
    assert QMatrix.from_upper(np.arange(10)) == QMatrix.from_upper(list(range(10)))


def test_qmatrix_rejects_bad_shapes():
    with pytest.raises(Exception):
        QMatrix([[0] * 5] * 4)
    with pytest.raises(Exception):
        QMatrix([[0] * 4] * 5)
