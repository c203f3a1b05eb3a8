"""Peak-memory budgets of the array kernels, measured with tracemalloc.

numpy reports its data buffers to tracemalloc, so a peak counts every array
a kernel allocates, temporaries included.  Each budget sits between the
kernel's peak and that of an int64-temporary version of it.
"""

import tracemalloc

from qfermat import fiber, indices, structure

MIB = 1 << 20


def _peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def test_index_tables_build_in_small_temporaries():
    # sum_idx and carry_code, the only pair tables, take 1.9 MiB
    indices.tables()  # the cached digit rows are not part of the budget
    assert _peak_mib(indices.IndexTables) <= 4


def test_exponent_matrix_and_exact_bilinear_budget(canonical_matrix, canonical_table):
    # a row gather from the cached int8 dot-product table: the int8 result
    # of 0.4 MiB, or 0.8 MiB on the call that also builds the table
    assert _peak_mib(lambda: structure.exponent_matrix(canonical_matrix)) <= 1
    assert _peak_mib(
        lambda: structure.verify_associativity(canonical_table, "exact")) <= 4


def test_full_triple_budget(canonical_table):
    # the uint8 residues of E with its rows, and its columns, translated and
    # repeated twice along the two high digit axes: two tiles of 1.5 MiB
    # each, allocated once and refilled, plus the 0.4 MiB slab
    assert _peak_mib(
        lambda: structure.verify_associativity(canonical_table, "full")) <= 8


def test_sampled_budget_does_not_grow_with_the_count(canonical_table):
    # each slice of 2^16 triples is drawn, evaluated and dropped; the rows a
    # and b of 10^6 triples alone would take 3.8 MiB as uint16
    for mode in ("sampled=1000000", "sampled=2000001"):
        assert _peak_mib(lambda: structure.verify_associativity(
            canonical_table, mode, seed=7)) <= 4, mode


def test_integer_point_radical_budget(canonical_table):
    F = fiber.specialize(canonical_table, (1, -1, 0, 0, 0))
    assert _peak_mib(lambda: fiber.radical_dim(F)) <= 8
