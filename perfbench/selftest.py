#!/usr/bin/env python3
"""Self-test of the benchmark's references and of its failure counting.

    python3 perfbench/selftest.py

Exits 0 when every reference reproduces the facts below and a wrong answer
is counted as a failed operation.  Needs no qfermat; takes a few seconds.
"""

from __future__ import annotations

import copy
import json
import sys

import reference as ref
import run


def check(label: str, got, want) -> bool:
    ok = got == want
    print("%-58s %s" % (label, "ok" if ok else "FAILED: got %r, want %r" % (got, want)))
    return ok


def main() -> int:
    results = []
    facts = ref.classification_facts()
    results.append(check("admissible matrices", facts["admissible_count"], 15625))
    results.append(check("generic matrices", facts["generic_count"], 3000))
    results.append(check("lex-min generic matrix is N", facts["lexmin_generic"],
                         [list(r) for r in ref.MATRIX_N]))
    results.append(check("standard monomials in degrees 5, 10, 15",
                         [facts["graded"][n] for n in (5, 10, 15)], [125, 875, 2875]))

    # a = b = (0,0,0,1,4): only n_43 a_4 b_3 = 2*4*1 contributes to E
    results.append(check("table entry at ((0,0,0,1,4), (0,0,0,1,4))",
                         ref.table_entry((0, 0, 0, 1, 4), (0, 0, 0, 1, 4)),
                         (3, [False] * 4 + [True], [0, 0, 0, 2, 3])))
    # t2 t1 t0: inversions (2,1), (2,0), (1,0) give n21 + n20 + n10 = 4
    results.append(check("normal form of t2 t1 t0", ref.word_normal_form([2, 1, 0]),
                         [{"monomial": [1, 1, 1, 0, 0], "coeff": ["-1", "-1", "-1", "-1"]}]))

    zeta = [ref.ring(*([0] * k + [1])) for k in range(5)]
    for label, point, want in (
            ("fiber (center, radical) at (1,-1,1,-1,0)", (1, -1, 1, -1, 0), (25, 500)),
            ("fiber at (3,2,-5,6,-6) = 6 * (1/2,1/3,-5/6,1,-1)", (3, 2, -5, 6, -6), (25, 0)),
            ("fiber at (1, z, z^2, z^3, z^4)", zeta, (25, 0)),
            ("fiber at (1,-1,0,0,0)", (1, -1, 0, 0, 0), (29, 620))):
        results.append(check(label, ref.fiber_dims(point), want))

    # failure counting: a wrong answer and a crash both count as failed
    # operations; only the wrong answer makes the run incorrect
    report = {
        "classification": {"admissible_count": 15625, "generic_count": 3000,
                           "orbit_count_all_actions": 1,
                           "canonical_representatives": [facts["lexmin_generic"]]},
        "cy_certificate": {"passed": True, "source_matrix": facts["lexmin_generic"]},
        "dimensions": {"graded_dimensions": [facts["graded"][n] for n in range(11)]},
        "cohomology": {"hilbert_polynomial": ["0", "125/6", "0", "625/6"]},
        "sampled_verification": {"ok": True, "seed": 7, "violations": []},
    }
    algebra = run.Algebra(7, None, None)
    step = run.Step("report", 1, algebra.check_report, cli=["report"])
    tally = run.Tally()
    tally.step(step, run.Proc(1.0, 1.0, 0, json.dumps(report), ""))
    results.append(check("a right report passes", (tally.failed, tally.wrong), (0, [])))
    wrong = copy.deepcopy(report)
    wrong["classification"]["generic_count"] = 2999
    tally.step(step, run.Proc(1.0, 1.0, 0, json.dumps(wrong), ""))
    results.append(check("a wrong report counts as failed", (tally.failed, len(tally.wrong)),
                         (1, 1)))
    tally.step(step, run.Proc(1.0, 1.0, 1, "", "Traceback"))
    results.append(check("a crash counts as failed, not as wrong",
                         (tally.attempted, tally.failed, len(tally.wrong), len(tally.crashed)),
                         (3, 2, 1, 1)))
    fiber = run.Fiber(7, None, None)
    lib = run.Step("fiber_lib", 2, fiber.check_lib, job=["fiber"])
    tally = run.Tally()
    radical = run.fiber_dims("cyclotomic")[1]
    tally.step(lib, run.Proc(1.0, 1.0, 0, json.dumps({
        "radical_is_ideal": {"ok": False, "error": "ValueError: boom"},
        "radical_dim_cyclotomic": {"ok": True, "value": radical + 1}}), ""))
    results.append(check("a raised call and a wrong value are two failures",
                         (tally.attempted, tally.failed), (2, 2)))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
