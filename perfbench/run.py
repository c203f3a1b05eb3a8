#!/usr/bin/env python3
"""End-to-end benchmark of qfermat: the CLI in fresh processes, on three workloads.

    python3 perfbench/run.py --workload {algebra,table,fiber} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source tree (it uses src/ directly, nothing needs
installing).  A run sets the workload up at least three times, then repeats
whole passes of the workload's commands and library calls (at least one, and
no pass that would end after --seconds), checks every answer against
perfbench's own reference computations and prints, as its last line, one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics pass_s, setup_s and peak_rss_mb.
--trace 1 reports the per-layer metrics instead: it replays the pass of every
workload with spans around the public functions of each module (see
worker.py), and compares its own pass time with an untraced pass.

Every process gets one BLAS/OpenMP thread.  See README.md for what each
workload exercises and how the references are computed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

import reference as ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
WORKER = str(HERE / "worker.py")
PY = sys.executable

# set-up runs at least 3 times and for at least 2 s, so a fast set-up gets
# enough repeats for a steady median
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_MIN_SECONDS = 3, 15, 2.0
RUN_DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# fixed points of the fiber workload (see README.md)
RATIONAL_POINT = ("1/2", "1/3", "-5/6", "0", "0")
RATIONAL_POINT_SCALED = (3, 2, -5, 0, 0)          # times 6, an isomorphic fiber
INTEGER_POINT = (1, -1, 0, 0, 0)
CYCLOTOMIC_POINT = ([1, 0, 0, 0], [0, 1, 0, 0], [-1, -1, 0, 0], 0, 0)  # 1, z, -1-z
CYCLOTOMIC_POINT_RING = (ref.ring(1), ref.ring(0, 1), ref.ring(-1, -1), 0, 0)
RREF_RANK = 60  # rank of the traced run's ExactRREF system, by construction


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed set-up)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Proc:
    """One finished child process: wall time, peak RSS and its output."""

    wall: float
    rss_mb: float
    code: int
    out: str
    err: str

    def doc(self):
        return json.loads(self.out)


class Runner:
    def __init__(self):
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def run(self, argv: List[str]) -> Proc:
        timeout = max(1.0, self.deadline - time.monotonic())
        with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Proc(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                        out.read().decode(), err.read().decode())


def write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# steps: one process each, holding one or more operations


@dataclass
class Step:
    """One process of a pass.

    cli: qfermat CLI arguments, or job: a worker.py job with its input file.
    check(doc) returns how many of the step's `ops` operations gave a wrong
    answer or raised; a process that exits nonzero fails all of them.
    """

    label: str
    ops: int
    check: Callable
    cli: Optional[List[str]] = None
    job: Optional[List[str]] = None

    def argv(self, spans: Optional[Path]) -> List[str]:
        trace = ["--trace", str(spans)] if spans else []
        if self.cli is not None:
            if spans:
                return [PY, WORKER] + trace + ["cli", "--"] + self.cli
            return [PY, "-m", "qfermat.cli"] + self.cli
        return [PY, WORKER] + trace + self.job


def _call_failures(records, expected) -> int:
    """Failed library calls: an error record or a value other than expected."""
    if len(records) != len(expected):
        return len(expected)
    return sum(1 for rec, want in zip(records, expected)
               if not rec.get("ok") or not want(rec["value"]))


# ---------------------------------------------------------------------------
# reference answers, computed once per run and outside every timed region

classification_facts = lru_cache(maxsize=None)(ref.classification_facts)


@lru_cache(maxsize=None)
def fiber_dims(point: str):
    return ref.fiber_dims({"rational": RATIONAL_POINT_SCALED, "integer": INTEGER_POINT,
                           "cyclotomic": CYCLOTOMIC_POINT_RING}[point])


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""

    def __init__(self, seed: int, wdir: Path, runner: Runner):
        self.seed, self.wdir, self.runner = seed, wdir, runner

    def prepare(self) -> None:
        """Write the inputs (everything before the first pass)."""
        self.matrix = self.wdir / "N.json"
        write_json(self.matrix, [list(r) for r in ref.MATRIX_N])

    def steps(self) -> List[Step]:
        raise NotImplementedError

    def run_checks(self) -> List[str]:
        """Checks made once per run after the passes; returns what failed."""
        return []


class Algebra(Workload):
    """`report --seed S` and a seeded rewriting sweep."""

    name = "algebra"
    WORDS, WORD_LEN = 1500, 12
    TRIPLES, TRIPLE_LEN = 300, 4
    CONFLUENCE, CONFLUENCE_LEN = 150, 10

    def prepare(self):
        super().prepare()
        rng = random.Random(self.seed)

        def word(length, zero_weight=1):
            letters = [0] * zero_weight + [1, 2, 3, 4]
            return [rng.choice(letters) for _ in range(length)]

        words = []
        while len(words) < self.WORDS:
            w = word(self.WORD_LEN)
            if w.count(0) < 5:
                words.append(w)
        spec = {
            "matrix": [list(r) for r in ref.MATRIX_N],
            "seed": self.seed,
            "words": words,
            "triples": [[word(self.TRIPLE_LEN, 2) for _ in range(3)]
                        for _ in range(self.TRIPLES)],
            "confluence": [word(self.CONFLUENCE_LEN, 4) for _ in range(self.CONFLUENCE)],
        }
        self.spec_path = write_json(self.wdir / "rewrite.json", spec)
        self.words = words

    def check_report(self, doc) -> int:
        f = classification_facts()
        cls, cert, dims = doc["classification"], doc["cy_certificate"], doc["dimensions"]
        poly = [Fraction(c) for c in doc["cohomology"]["hilbert_polynomial"]]
        ok = (cls["admissible_count"] == f["admissible_count"] == 15625
              and cls["generic_count"] == f["generic_count"] == 3000
              and cls["orbit_count_all_actions"] == 1
              and cls["canonical_representatives"] == [f["lexmin_generic"]]
              and cert["passed"] and cert["source_matrix"] == f["lexmin_generic"]
              and dims["graded_dimensions"] == [f["graded"][n] for n in range(11)]
              and all(sum(c * n ** k for k, c in enumerate(poly)) == f["graded"][5 * n]
                      for n in (1, 2, 3))
              and [f["graded"][n] for n in (5, 10, 15)] == [125, 875, 2875]
              and doc["sampled_verification"]["ok"]
              and doc["sampled_verification"]["seed"] == self.seed
              and not doc["sampled_verification"]["violations"])
        return 0 if ok else 1

    def check_rewrite(self, doc) -> int:
        failed = _call_failures(doc["words"], [
            (lambda v, w=w: v == ref.word_normal_form(w)) for w in self.words])
        failed += _call_failures(doc["triples"], [lambda v: v[0] == v[1] == v[2]] * self.TRIPLES)
        failed += _call_failures(doc["confluence"], [lambda v: v[0] == v[1]] * self.CONFLUENCE)
        return failed

    def steps(self):
        return [
            Step("report", 1, self.check_report, cli=["report", "--seed", str(self.seed)]),
            Step("rewrite", self.WORDS + self.TRIPLES + self.CONFLUENCE,
                 self.check_rewrite, job=["rewrite", self.spec_path]),
        ]


class Table(Workload):
    """build-table on N, then verify in the modes exact, sampled and full."""

    name = "table"
    CHECK_PAIRS = 2000
    SAMPLES = 1_000_000

    def prepare(self):
        super().prepare()
        self.table = self.wdir / "table.json"

    def check_build(self, doc) -> int:
        ok = (doc["entries"] == 625 * 625 and doc["written"] == str(self.table)
              and doc["source_matrix"] == [list(r) for r in ref.MATRIX_N])
        return 0 if ok else 1

    @staticmethod
    def check_verify(mode: str):
        def check(doc) -> int:
            return 0 if doc["ok"] and not doc["violations"] and doc["mode"] == mode else 1
        return check

    def steps(self):
        table = str(self.table)
        return [
            Step("build_table", 1, self.check_build,
                 cli=["build-table", "--matrix", str(self.matrix), "--out", table]),
            Step("verify_exact", 1, self.check_verify("exact-bilinear"),
                 cli=["verify", "--table", table, "--mode", "exact"]),
            Step("verify_sampled", 1, self.check_verify("sampled(%d)" % self.SAMPLES),
                 cli=["verify", "--table", table, "--mode", "sampled=%d" % self.SAMPLES,
                      "--seed", str(self.seed)]),
            Step("verify_full", 1, self.check_verify("full-triple"),
                 cli=["verify", "--table", table, "--mode", "full"]),
        ]

    def run_checks(self):
        """Entries of the written file against E(a,b), target and carry."""
        rng = random.Random(self.seed)
        idx = ref.index_set().tolist()
        pairs = [[rng.choice(idx), rng.choice(idx)] for _ in range(self.CHECK_PAIRS)]
        spec = write_json(self.wdir / "table-check.json",
                          {"table": str(self.table), "pairs": pairs})
        proc = self.runner.run([PY, WORKER, "table-check", spec])
        if proc.code != 0:
            return ["table-check exited %d: %s" % (proc.code, proc.err[-300:])]
        doc = proc.doc()
        failures = []
        want = [list(ref.table_entry(a, b)) for a, b in pairs]
        if doc["entries"] != want:
            failures.append("table entries differ from E(a,b), target and carry")
        if doc["broken_table_ok"]:
            failures.append("exact-bilinear accepted a table with one exponent changed")
        return failures


class Fiber(Workload):
    """CLI fiber at a rational point, plus radical_is_ideal and radical_dim calls."""

    name = "fiber"

    def prepare(self):
        super().prepare()
        self.table = self.wdir / "table.json"
        proc = self.runner.run([PY, "-m", "qfermat.cli", "build-table", "--matrix",
                                str(self.matrix), "--out", str(self.table)])
        if proc.code != 0:
            raise BenchError("build-table failed in set-up: %s" % proc.err[-300:])
        self.spec_path = write_json(self.wdir / "fiber.json", {
            "matrix": [list(r) for r in ref.MATRIX_N],
            "integer_point": list(INTEGER_POINT),
            "cyclotomic_point": list(CYCLOTOMIC_POINT),
        })

    def check_cli(self, doc) -> int:
        center, radical = fiber_dims("rational")
        ok = (doc["center_dim"] == center and doc["radical_dim"] == radical
              and doc["semisimple"] == (radical == 0)
              and doc["point"] == [[p, "0", "0", "0"] for p in RATIONAL_POINT])
        return 0 if ok else 1

    def check_lib(self, doc) -> int:
        radical = fiber_dims("cyclotomic")[1]
        return _call_failures(
            [doc["radical_is_ideal"], doc["radical_dim_cyclotomic"]],
            [lambda v: v is True, lambda v: v == radical])

    def steps(self):
        return [
            Step("fiber", 1, self.check_cli,
                 cli=["fiber", "--table", str(self.table), "--point", ",".join(RATIONAL_POINT)]),
            Step("fiber_lib", 2, self.check_lib, job=["fiber", self.spec_path]),
        ]


WORKLOADS = {w.name: w for w in (Algebra, Table, Fiber)}


# ---------------------------------------------------------------------------
# passes


class Tally:
    """Operations attempted and failed, and every wrong answer seen.

    An operation that crashes only counts as failed; one that answers wrongly
    (or a failed run-level check) also makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: List[str] = []
        self.crashed: List[str] = []

    def step(self, step: Step, proc: Proc) -> None:
        self.attempted += step.ops
        if proc.code != 0:
            self.failed += step.ops
            self.crashed.append("%s exited %d: %s" % (step.label, proc.code, proc.err[-300:]))
            return
        try:
            bad = step.check(proc.doc())
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            bad = step.ops
            self.wrong.append("%s: unreadable output (%s)" % (step.label, exc))
        if bad:
            self.wrong.append("%s: %d of %d operations failed" % (step.label, bad, step.ops))
        self.failed += bad


def run_pass(workload: Workload, tally: Tally, spans_dir: Optional[Path] = None):
    """One pass through the workload's steps; returns (wall s, peak RSS MB, procs).

    Outputs are checked after the pass, so checking is not timed."""
    steps = workload.steps()
    procs = {}
    start = time.perf_counter()
    for step in steps:
        spans = spans_dir / ("%s.json" % step.label) if spans_dir else None
        procs[step.label] = workload.runner.run(step.argv(spans))
    wall = time.perf_counter() - start
    for step in steps:
        tally.step(step, procs[step.label])
    return wall, max(p.rss_mb for p in procs.values()), procs


def setup(cls, seed: int, runner: Runner) -> (Workload, float):
    """Compile the package and write the inputs; returns the workload and the time."""
    wdir = WORK / cls.name
    start = time.perf_counter()
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    proc = runner.run([PY, "-m", "compileall", "-q", "-f", str(SRC / "qfermat")])
    if proc.code != 0:
        raise BenchError("compiling src/qfermat failed: %s" % proc.out[-300:])
    workload = cls(seed, wdir, runner)
    workload.prepare()
    return workload, time.perf_counter() - start


def measure(name: str, seed: int, seconds: float, runner: Runner, tally: Tally) -> dict:
    setups = []
    while len(setups) < SETUP_MIN_REPEATS or (
            sum(setups) < SETUP_MIN_SECONDS and len(setups) < SETUP_MAX_REPEATS):
        workload, took = setup(WORKLOADS[name], seed, runner)
        setups.append(took)
    walls, peaks, steps = [], [], []
    # whole passes only: stop before a pass that would end past --seconds
    while not walls or sum(walls) + walls[-1] <= seconds:
        wall, peak, procs = run_pass(workload, tally)
        walls.append(wall)
        peaks.append(peak)
        steps.append({label: round(p.wall, 3) for label, p in procs.items()})
    tally.wrong += workload.run_checks()
    metrics = {
        "pass_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(peaks), "unit": "MB"},
    }
    return metrics, {"setups_s": [round(t, 4) for t in setups], "step_walls_s": steps}


# ---------------------------------------------------------------------------
# traced run


class Spans:
    """The spans of one traced process; a lookup that finds none is noted."""

    def __init__(self, label: str, path: Path, missing: List[str]):
        raw = json.loads(path.read_text()) if path.exists() else []
        self.label, self.missing = label, missing
        self.spans = [{"name": s[0], "dur": s[2] - s[1], "parent": s[3], "count": s[4]}
                      for s in raw]
        for s in self.spans:
            s["self"] = s["dur"]
        for s in self.spans:
            if s["parent"] >= 0:
                self.spans[s["parent"]]["self"] -= s["dur"]

    def named(self, *names):
        found = [s for s in self.spans if s["name"] in names]
        if not found:
            self.missing.append("%s:%s" % (self.label, "+".join(names)))
        return found

    def total(self, *names, field="dur") -> float:
        return sum(s[field] for s in self.named(*names))

    def first(self, name) -> float:
        found = self.named(name)
        return found[0]["dur"] if found else 0.0

    def rate(self, name) -> float:
        found = self.named(name)
        busy = sum(s["dur"] for s in found)
        return sum(s["count"] for s in found) / busy if busy else 0.0


def layers_step(seed: int) -> Step:
    """Calls timed only in the traced run, each against its reference."""
    spec = write_json(WORK / "layers.json", {
        "matrix": [list(r) for r in ref.MATRIX_N], "seed": seed,
        "rational_point": list(RATIONAL_POINT), "integer_point": list(INTEGER_POINT),
        "cyc_count": 5000, "rref_rank": RREF_RANK, "rref_extra": 60,
    })

    def check(doc) -> int:
        center = fiber_dims("rational")[0]
        return ((doc["center_graded"] != center) + (doc["center_solve"] != center)
                + (doc["radical_int"] != fiber_dims("integer")[1])
                + (doc["rref_rank"] != RREF_RANK))

    return Step("layers", 4, check, job=["layers", spec])


def trace(name: str, seed: int, runner: Runner, tally: Tally) -> dict:
    workload, _ = setup(WORKLOADS[name], seed, runner)
    untraced, _, _ = run_pass(workload, tally)
    tally.wrong += workload.run_checks()

    # replay every workload's pass with spans; each pass gets a fresh set-up
    procs, spans, missing = {}, {}, []
    for cls in (Table, Fiber, Algebra):
        wl, _ = setup(cls, seed, runner)
        spans_dir = wl.wdir / "spans"
        spans_dir.mkdir()
        wall, _, ps = run_pass(wl, tally, spans_dir)
        if cls.name == name:
            traced_pass = wall
        if cls is Table:
            table_mb = wl.table.stat().st_size / 1e6
        procs.update(ps)
        for label in ps:
            spans[label] = Spans(label, spans_dir / ("%s.json" % label), missing)
    step = layers_step(seed)
    layers_path = WORK / "layers-spans.json"
    proc = runner.run(step.argv(layers_path))
    tally.step(step, proc)
    spans["layers"] = Spans("layers", layers_path, missing)
    startup = statistics.median(
        runner.run([PY, "-m", "qfermat.cli", "hilbert", "--twists", "0:1", "--at", "1"]).wall
        for _ in range(3))

    # the first tables() call of a process is the cold one
    cold_tables = [calls[0]["dur"] for calls in (
        [s for s in sp.spans if s["name"] == "indices.tables"] for sp in spans.values()) if calls]
    radical = [s["dur"] for s in spans["fiber"].named("fiber.radical_dim")]
    decode = [spans[label].total("json.loads", "StructureTable.from_json")
              for label in ("verify_exact", "verify_sampled", "verify_full")]
    layer = spans["layers"]
    values = {
        "trace.pass_s": (traced_pass, "s"),
        "trace.untraced_pass_s": (untraced, "s"),
        "trace.overhead_pct": (100.0 * (traced_pass - untraced) / untraced, "%"),
        "trace.spans": (sum(len(sp.spans) for sp in spans.values()), "count"),
        "cli.startup_s": (startup, "s"),
        "cli.report_s": (procs["report"].wall, "s"),
        "cli.build_table_s": (procs["build_table"].wall, "s"),
        "cli.verify_exact_s": (procs["verify_exact"].wall, "s"),
        "cli.verify_sampled_s": (procs["verify_sampled"].wall, "s"),
        "cli.verify_full_s": (procs["verify_full"].wall, "s"),
        "cli.fiber_rational_s": (procs["fiber"].wall, "s"),
        "indices.tables_s": (statistics.median(cold_tables) if cold_tables else 0.0, "s"),
        "qmatrix.enumerate_s": (spans["report"].first("qmatrix.enumerate_generic"), "s"),
        "qmatrix.classify_s": (spans["report"].total("qmatrix.classify", field="self"), "s"),
        "structure.build_table_s": (spans["build_table"].total("structure.build_table"), "s"),
        "structure.encode_s": (
            spans["build_table"].total("StructureTable.to_json", "json.dumps"), "s"),
        "structure.table_mb": (table_mb, "MB"),
        "structure.decode_s": (statistics.median(decode), "s"),
        "structure.verify_exact_s": (
            spans["verify_exact"].total("structure.verify_associativity"), "s"),
        "structure.verify_sampled_s": (
            spans["verify_sampled"].total("structure.verify_associativity"), "s"),
        "structure.verify_full_s": (
            spans["verify_full"].total("structure.verify_associativity"), "s"),
        "structure.cy_certificate_s": (spans["report"].total("structure.cy_certificate"), "s"),
        "rewrite.normal_form_per_s": (spans["rewrite"].rate("rewrite.normal_form"), "1/s"),
        "rewrite.multiply_per_s": (spans["rewrite"].rate("rewrite.multiply"), "1/s"),
        "rewrite.confluence_per_s": (
            spans["rewrite"].rate("rewrite.normal_form_random_schedule"), "1/s"),
        "cyclotomic.add_per_s": (layer.rate("layers.cyc_add"), "1/s"),
        "cyclotomic.mul_per_s": (layer.rate("layers.cyc_mul"), "1/s"),
        "cyclotomic.inv_per_s": (layer.rate("layers.cyc_inv"), "1/s"),
        "linalg.rref_s": (layer.total("layers.rref"), "s"),
        "fiber.specialize_s": (spans["fiber"].total("fiber.specialize"), "s"),
        "fiber.center_graded_s": (layer.total("layers.center_graded"), "s"),
        "fiber.center_solve_s": (layer.total("layers.center_solve"), "s"),
        "fiber.radical_rational_s": (statistics.median(radical) if radical else 0.0, "s"),
        "fiber.radical_rational_calls": (len(radical), "count"),
        "fiber.radical_cyclotomic_s": (spans["fiber_lib"].total("fiber.radical_dim"), "s"),
        "fiber.radical_int_s": (layer.total("layers.radical_int"), "s"),
        "fiber.radical_is_ideal_s": (spans["fiber_lib"].total("fiber.radical_is_ideal"), "s"),
    }
    if missing:
        print("perfbench: spans not recorded, reported as 0: %s" % ", ".join(missing),
              file=sys.stderr)
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, {}


# ---------------------------------------------------------------------------


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": int(child_env()["OPENBLAS_NUM_THREADS"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qfermat" / "cli.py").is_file():
        print("perfbench: no qfermat sources at %s; run from a source tree" % SRC,
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    runner = Runner()
    tally = Tally()
    try:
        if args.trace:
            metrics, detail = trace(args.workload, args.seed, runner, tally)
        else:
            metrics, detail = measure(args.workload, args.seed, args.seconds, runner, tally)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 3
    finally:
        for name in WORKLOADS:
            shutil.rmtree(WORK / name, ignore_errors=True)
    for line in tally.crashed + tally.wrong:
        print("perfbench: %s" % line, file=sys.stderr)
    print(json.dumps(dict({"environment": environment(), "workload": args.workload,
                           "seed": args.seed, "trace": args.trace}, **detail)))
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
