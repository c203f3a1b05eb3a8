"""Library calls of the benchmark, one fresh process per call group.

Run with qfermat importable (PYTHONPATH=src):

    python3 perfbench/worker.py [--trace SPANS.json] JOB [INPUT.json | -- CLI ARGS]

Jobs print one JSON document on stdout:

    rewrite      normal forms, associativity triples and confluence words
    fiber        radical_is_ideal and radical_dim on build_table(N)
    table-check  entries of a written table file, read through the public API
    layers       calls timed only in the traced run (center methods, radical
                 at an integer point, CycNum throughput, ExactRREF)
    cli          the qfermat CLI itself, in this process (traced run only)

With --trace, the public functions of each layer are wrapped so that every
call records a span (name, start, end, parent); the spans stay in memory and
are written to SPANS.json when the job ends.
"""

from __future__ import annotations

import functools
import json
import random
import sys
import time
from fractions import Fraction

_dumps = json.dumps
_SPANS = []
_STACK = []

# the layer boundaries that the traced run records
_TRACED = (
    ("indices", "tables"),
    ("qmatrix", "enumerate_generic"),
    ("qmatrix", "classify"),
    ("structure", "build_table"),
    ("structure", "verify_associativity"),
    ("structure", "cy_certificate"),
    ("fiber", "specialize"),
    ("fiber", "center_dim"),
    ("fiber", "radical_dim"),
    ("fiber", "radical_is_ideal"),
    ("rewrite", "normal_form"),
    ("rewrite", "multiply"),
    ("rewrite", "normal_form_random_schedule"),
)


def _timed(name, count, fn, *args, **kwargs):
    """Call fn, recording one span that covers `count` operations."""
    span = [name, time.perf_counter(), None, _STACK[-1] if _STACK else -1, count]
    _STACK.append(len(_SPANS))
    _SPANS.append(span)
    try:
        return fn(*args, **kwargs)
    finally:
        span[2] = time.perf_counter()
        _STACK.pop()


def _wrap(fn, name):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return _timed(name, 1, fn, *args, **kwargs)
    return traced


def _install_tracing():
    import importlib

    from qfermat import cli, structure  # cli imports every other module

    modules = [m for n, m in sorted(sys.modules.items())
               if n == "qfermat" or n.startswith("qfermat.")]
    for mod_name, attr in _TRACED:
        orig = getattr(importlib.import_module("qfermat." + mod_name), attr)
        traced = _wrap(orig, "%s.%s" % (mod_name, attr))
        # rebind every import of the function, so calls inside the package
        # are recorded too
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, traced)
    table_cls = structure.StructureTable
    table_cls.to_json = _wrap(table_cls.to_json, "StructureTable.to_json")
    table_cls.from_json = classmethod(
        _wrap(table_cls.__dict__["from_json"].__func__, "StructureTable.from_json"))
    json.loads = _wrap(json.loads, "json.loads")
    json.dumps = _wrap(json.dumps, "json.dumps")


def _call(fn):
    """Run one library call; a raised exception becomes an error record."""
    try:
        return {"ok": True, "value": fn()}
    except Exception as exc:  # the benchmark counts it as a failed operation
        return {"ok": False, "error": "%s: %s" % (type(exc).__name__, exc)}


# ---------------------------------------------------------------------------
# jobs


def job_rewrite(spec):
    from qfermat import QMatrix, multiply, normal_form
    from qfermat.rewrite import normal_form_random_schedule
    import numpy as np

    N = QMatrix(spec["matrix"])
    words = [_call(lambda w=w: normal_form(w, N).to_json()) for w in spec["words"]]

    def triple(u, v, w):
        x, y, z = (normal_form(s, N) for s in (u, v, w))
        return [multiply(multiply(x, y, N), z, N).to_json(),
                multiply(x, multiply(y, z, N), N).to_json(),
                normal_form(list(u) + list(v) + list(w), N).to_json()]

    triples = [_call(lambda t=t: triple(*t)) for t in spec["triples"]]
    rng = np.random.default_rng(spec["seed"])

    def confluence(w):
        return [normal_form(w, N).to_json(),
                normal_form_random_schedule(w, N, rng).to_json()]

    conf = [_call(lambda w=w: confluence(w)) for w in spec["confluence"]]
    return {"words": words, "triples": triples, "confluence": conf}


def job_fiber(spec):
    from qfermat import QMatrix, build_table, radical_dim, specialize
    from qfermat.fiber import radical_is_ideal

    table = build_table(QMatrix(spec["matrix"]))
    return {
        "radical_is_ideal": _call(
            lambda: radical_is_ideal(specialize(table, spec["integer_point"]))),
        "radical_dim_cyclotomic": _call(
            lambda: radical_dim(specialize(table, spec["cyclotomic_point"]))),
    }


def job_table_check(spec):
    from qfermat import StructureTable, verify_associativity

    with open(spec["table"], encoding="utf-8") as fh:
        table = StructureTable.from_json(json.loads(fh.read()))
    entries = []
    for a, b in spec["pairs"]:
        e, carry, target = table.entry(a, b)
        entries.append([int(e), [bool(f) for f in carry], [int(d) for d in target]])
    a, b = spec["pairs"][0]
    broken = table.replace_exponent(a, b, int(table.entry(a, b)[0]) + 1)
    return {
        "entries": entries,
        "broken_table_ok": bool(verify_associativity(broken, "exact-bilinear").ok),
    }


def job_layers(spec):
    from qfermat import (CycNum, QMatrix, build_table, center_dim, radical_dim,
                         specialize)
    from qfermat.linalg import ExactRREF

    out = {}
    table = build_table(QMatrix(spec["matrix"]))
    F = specialize(table, [Fraction(p) for p in spec["rational_point"]])
    out["center_graded"] = _timed("layers.center_graded", 1, center_dim, F, "graded")
    out["center_solve"] = _timed("layers.center_solve", 1, center_dim, F, "solve")
    G = specialize(table, spec["integer_point"])
    out["radical_int"] = _timed("layers.radical_int", 1, radical_dim, G)

    rng = random.Random(spec["seed"])

    def element():
        return CycNum([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)])

    xs = [element() for _ in range(spec["cyc_count"])]
    ys = [element() for _ in range(spec["cyc_count"])]
    pairs = list(zip(xs, ys))
    _timed("layers.cyc_add", len(pairs), lambda: [x + y for x, y in pairs])
    _timed("layers.cyc_mul", len(pairs), lambda: [x * y for x, y in pairs])
    invertible = [x for x in xs if x][:spec["cyc_count"] // 10]
    _timed("layers.cyc_inv", len(invertible), lambda: [x.inv() for x in invertible])

    rows = _rref_system(rng, element, spec["rref_rank"], spec["rref_extra"])

    def reduce_all():
        rref = ExactRREF()
        for row in rows:
            rref.add_row(row)
        return rref.rank

    out["rref_rank"] = _timed("layers.rref", len(rows), reduce_all)
    return out


def _rref_system(rng, element, rank, extra, ncols=625):
    """Sparse rows over Q(zeta_5) on 625 columns with rank `rank` by construction.

    Base row i owns one column that no other base row touches, so the base
    rows are independent; the extra rows are combinations of base rows."""
    cols = list(range(ncols))
    rng.shuffle(cols)
    owned, shared = cols[:rank], cols[rank:]

    def nonzero():
        while True:
            x = element()
            if x:
                return x

    base = []
    for col in owned:
        row = {col: nonzero()}
        for c in rng.sample(shared, 4):
            row[c] = element()
        base.append(row)
    rows = list(base)
    for _ in range(extra):
        combo = {}
        for row in rng.sample(base, 3):
            f = nonzero()
            for c, v in row.items():
                combo[c] = combo[c] + f * v if c in combo else f * v
        rows.append(combo)
    rng.shuffle(rows)
    return rows


JOBS = {"rewrite": job_rewrite, "fiber": job_fiber,
        "table-check": job_table_check, "layers": job_layers}


def main(argv):
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    job, rest = argv[0], argv[1:]
    if job != "cli":
        with open(rest[0], encoding="utf-8") as fh:
            spec = json.load(fh)
    if trace_path:
        _install_tracing()
    try:
        if job == "cli":
            from qfermat import cli

            return cli.main(rest[1:] if rest[:1] == ["--"] else rest)
        sys.stdout.write(_dumps(JOBS[job](spec)) + "\n")
        return 0
    finally:
        if trace_path:
            with open(trace_path, "w", encoding="utf-8") as fh:
                fh.write(_dumps(_SPANS))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
