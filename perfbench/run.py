"""Fresh-process benchmark of the qnarayana CLI.

    python3 perfbench/run.py --workload gate --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`.  Each op is one `qnarayana ...` invocation in a fresh interpreter,
sent in a closed loop by one client, one op at a time, and its stdout is
checked against the answer `workloads.py` computes.  A fresh process keeps
the program's module-level memo (`qcomb.q_binomial`) cold, as every user
run finds it.

--trace 0 times the ops and prints the end-to-end metrics.  The client and
its children are pinned to one CPU, and each spawn's time is scaled by
fixed reference work run on that CPU around it, which takes out most of
the host's slow and fast phases (see README.md).  --trace 1 runs
the first block of the op list once plain and once under `trace_op.py`,
repeats the traced block while time remains, and prints the per-layer
metrics.  Metric names and units come from BENCHMARK.json.  Before the final JSON
line the run prints the hash of the generated op list, the argv of every op
it ran, and each metric with its sample count; a record with per-op times
(and, traced, the spans) goes to perfbench/out/.

Exit code 0 when every op printed its known answer and every self-check
held, 1 otherwise, 2 when there is no program to run.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from trace_op import MARK

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# What the installed `qnarayana` console script runs.
ENTRY = "import sys; from qnarayana.cli import main; sys.exit(main())"
OP_LIMIT_S = 30          # an op running longer is killed and counts as failed
SETUP_SPAWNS = 30        # setup_s is the median of this many bare imports
# The host's CPU speed moves in phases up to 2x apart, lasting from under a
# second to 40 s.  Reference points (`reference()`) are taken on the client's
# pinned CPU between spawns, and each spawn's time is scaled to a CPU on
# which the reference takes REF_NOMINAL_S, about its time in the fast phase
# of a 2.0 GHz Xeon vCPU.
REF_NOMINAL_S = 0.023
REF_ROUNDS = 64
REF_EVERY_S = 0.5        # the longest stretch of spawns between two reference points

# A per-layer metric `<function>.<field>` reads that field of the tracer's
# aggregate for a wrapped function; any other name is a count of the tracer.
FIELDS = {"calls": 0, "wall_s": 1, "self_s": 2}
RATIOS = {  # name: (numerator, denominator)
    "exactalg.gcd.reduced_ratio": ("exactalg.gcd.reduced", "exactalg.gcd.calls"),
    "narayana.c_poly.distinct_ratio": ("narayana.c_poly.distinct", "narayana.c_poly.calls"),
    "qcomb.q_binomial.hit_ratio": ("qcomb.q_binomial.hits", "qcomb.q_binomial.lookups"),
}

# The binding-coverage self-check: on each workload the metrics these
# patterns match must be non-zero (the layer is reached, so its wrapper is
# bound everywhere the op calls it) or exactly zero (the workload must not
# reach the layer).
MUST_MOVE = {
    "gate": ("exactalg.gcd.calls", "exactalg.ratfun_new.calls", "exactalg.poly_mul.calls",
             "exactalg.poly_new.calls", "exactalg.exact_div.calls", "exactalg.series_mul.calls",
             "exactalg.series_invert.calls", "qcomb.q_narayana_row.calls", "qcomb.q_catalan.calls",
             "narayana.c_poly.calls", "narayana.narayana_poly.calls", "gfun.verify_identity.calls",
             "hankel.det_bareiss.calls", "dyckoracle.paths", "hankel.jfraction_extract.self_s",
             "hankel.jfraction_to_series.self_s", "hankel.ratfun_series.self_s",
             "narayana.c_poly_recursive.self_s", "cli.self_s", "cli.check.*.wall_s"),
    "cfrac-deep": ("exactalg.gcd.calls", "exactalg.ratfun_new.calls", "exactalg.poly_mul.calls",
                   "exactalg.series_invert.calls", "narayana.c_poly.calls",
                   "hankel.jfraction_extract.self_s", "hankel.ratfun_series.self_s"),
    "ring-deep": ("exactalg.poly_mul.calls", "exactalg.exact_div.calls", "exactalg.series_mul.calls",
                  "exactalg.series_invert.calls", "narayana.c_poly.calls", "narayana.narayana_poly.calls",
                  "gfun.verify_identity.calls", "gfun.build_series.self_s", "hankel.det_bareiss.calls"),
    "routes-oracle": ("exactalg.exact_div.calls", "qcomb.q_narayana_row.calls", "qcomb.q_catalan.calls",
                      "qcomb.q_binomial.hit_ratio", "narayana.c_poly.calls", "narayana.narayana_poly.calls",
                      "narayana.c_poly_recursive.self_s", "dyckoracle.paths", "dyckoracle.qt_distribution.self_s",
                      "dyckoracle.symmetric_valley_distribution.self_s", "cli.check.routes.wall_s",
                      "cli.check.oracle.wall_s"),
}
MUST_STAY_ZERO = {
    "ring-deep": ("exactalg.gcd.calls", "exactalg.ratfun_new.calls"),
    "routes-oracle": ("exactalg.gcd.calls", "exactalg.ratfun_new.calls"),
}


def is_exact(name: str) -> bool:
    """Deterministic counts: equal on every repeat of the same ops."""
    return (name.endswith((".calls", ".coeff_products", ".max_coeff_bits", "_ratio"))
            or name == "dyckoracle.paths") and name != "trace.overhead_ratio"


@dataclass
class Outcome:
    wall_s: float
    code: int | None      # None: killed at the per-op limit
    stdout: str
    stderr: str


def spawn(cmd, env) -> Outcome:
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=OP_LIMIT_S)
    except subprocess.TimeoutExpired:
        return Outcome(time.perf_counter() - t0, None, "", "")
    return Outcome(time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr)


def verdict(op, outcome: Outcome) -> str | None:
    """None when the op exited 0 with its known answer, else the failure."""
    if outcome.code is None:
        return f"killed after {OP_LIMIT_S} s"
    if outcome.code != 0:
        return f"exit code {outcome.code}: {outcome.stderr.strip()[-300:]}"
    return workloads.check(op, outcome.stdout)


class Run:
    """Ops attempted, ops failed and every problem seen in one benchmark run."""

    def __init__(self, env):
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.records: list[dict] = []

    def op(self, op, traced=False) -> Outcome:
        prefix = [sys.executable, str(HERE / "trace_op.py")] if traced else [sys.executable, "-c", ENTRY]
        outcome = spawn(prefix + list(op), self.env)
        self.attempted += 1
        problem = verdict(op, outcome)
        if problem:
            self.failed += 1
            self.fail(f"{' '.join(op)}{' (traced)' if traced else ''}: {problem}")
        self.records.append({"argv": list(op), "traced": traced, "wall_s": outcome.wall_s, "ok": not problem})
        return outcome

    def fail(self, message):
        self.problems.append(message)
        print(f"perfbench: FAIL {message}", flush=True)


def reference(env) -> float:
    """Seconds a fixed unit of reference work takes now.

    The unit holds the two kinds of work an op does: starting an interpreter
    (a bare `python3 -c pass`) and interpreted arithmetic on multi-word ints
    (a fixed convolution, run in the client).  The result is the geometric
    mean of their two times.  It is the benchmark's own code, so no change
    to the program moves it.
    """
    start_s = spawn([sys.executable, "-c", "pass"], env).wall_s
    t0 = time.perf_counter()
    a = [(i * 7919) % 1000003 for i in range(60)]
    for _ in range(REF_ROUNDS):
        c = [0] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(a):
                c[i + j] += x * y
        a = [v % 10**30 for v in c[:60]]
    return (start_s * (time.perf_counter() - t0)) ** 0.5


class Timeline:
    """Spawn times with the reference points taken around them."""

    def __init__(self, env):
        self.env = env
        self.refs = [reference(env)]
        self.last_ref = time.perf_counter()
        self.spawns: list[tuple[str, float, int]] = []  # (kind, wall_s, index of the reference point before)

    def spawned(self, kind: str, wall_s: float):
        self.spawns.append((kind, wall_s, len(self.refs) - 1))
        if time.perf_counter() - self.last_ref >= REF_EVERY_S:
            self.point()

    def point(self):
        self.refs.append(reference(self.env))
        self.last_ref = time.perf_counter()

    def scales(self) -> list[float]:
        """The scale of every spawn; call after a last reference point."""
        return [REF_NOMINAL_S / (self.refs[i] * self.refs[i + 1]) ** 0.5 for _, _, i in self.spawns]

    def times(self, kind: str) -> tuple[list[float], list[float]]:
        """Raw and scaled times of the spawns of one kind, in order."""
        pairs = [(wall_s, wall_s * scale) for (k, wall_s, _), scale in zip(self.spawns, self.scales()) if k == kind]
        return [raw for raw, _ in pairs], [scaled for _, scaled in pairs]


def setup_spawn(run: Run) -> float:
    outcome = spawn([sys.executable, "-c", "import qnarayana.cli"], run.env)
    if outcome.code != 0:
        run.fail(f"import qnarayana.cli: exit code {outcome.code}")
    return outcome.wall_s


def measure(run: Run, ops, block_len, seconds):
    """End-to-end metrics: ops in a closed loop for `seconds`.

    The set-up spawns are spread evenly among the ops, so that their median
    spans the same stretch of machine time as the ops.  Every spawn time is
    scaled by the reference points around it (`Timeline`); the raw times are
    printed too.  verdict_s.p50 and ops_per_s are taken over the ops of the
    whole blocks the run completed, so every run times the same mix of work;
    the ops of a last, partial block are checked like the others.
    ops_per_s is passed ops over the sum of their scaled times.
    """
    timeline = Timeline(run.env)
    first_record, setups, ran = len(run.records), 0, 0
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < seconds:
        if setups < min(SETUP_SPAWNS, 1 + SETUP_SPAWNS * elapsed / seconds):
            timeline.spawned("setup", setup_spawn(run))
            setups += 1
        else:
            timeline.spawned("op", run.op(ops[ran % len(ops)]).wall_s)
            ran += 1
    while setups < SETUP_SPAWNS:  # only when the last op overran the window
        timeline.spawned("setup", setup_spawn(run))
        setups += 1
    timeline.point()
    raw_setup, setup = timeline.times("setup")
    raw_walls, walls = timeline.times("op")
    op_records = run.records[first_record:]
    for record, scaled_s in zip(op_records, walls):
        record["scaled_s"] = scaled_s
    timed = ran // block_len * block_len or ran  # a window too short for one block times what ran
    passed = sum(r["ok"] for r in op_records[:timed])
    walls, raw_walls = walls[:timed], raw_walls[:timed]
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {
        "setup_s": statistics.median(setup),
        "verdict_s.p50": statistics.median(walls),
        "ops_per_s": passed / sum(walls),
        "peak_rss_mb": peak_kb / 1024,
    }
    scales = statistics.quantiles(timeline.scales(), n=4)
    print(f"perfbench: scale quartiles {scales[0]:.3f} {scales[1]:.3f} {scales[2]:.3f} "
          f"({len(timeline.refs)} reference points; REF_NOMINAL_S={REF_NOMINAL_S} s)")
    print(f"perfbench: setup_s={values['setup_s']:.4f} s scaled, {statistics.median(raw_setup):.4f} s raw "
          f"(median of {len(setup)} spawns)")
    print(f"perfbench: verdict_s.p50={values['verdict_s.p50']:.4f} s scaled, "
          f"{statistics.median(raw_walls):.4f} s raw (n={timed} ops in {timed // block_len} whole blocks; "
          f"{ran - timed} ops of a partial block left out)")
    print(f"perfbench: ops_per_s={values['ops_per_s']:.4f} 1/s scaled, {passed / sum(raw_walls):.4f} 1/s raw "
          f"({passed} passed ops of {timed}; loop ran {elapsed:.2f} s)")
    print(f"perfbench: peak_rss_mb={values['peak_rss_mb']:.2f} MB (largest child of the run)")
    return values


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(payloads, names) -> dict:
    """The per-layer metrics `names` of one pass over the traced block, summed over its ops.

    Raises KeyError for a name the trace has no source for.
    """
    stats, counts = {}, {}
    for p in payloads:
        for name, values in p["stats"].items():
            stats[name] = [a + b for a, b in zip(stats.get(name, [0, 0.0, 0.0]), values)]
        for name, value in p["counts"].items():
            merge = max if name.endswith("max_coeff_bits") else int.__add__
            counts[name] = merge(counts.get(name, 0), value)

    def value(name):
        if name in RATIOS:
            num, den = RATIOS[name]
            return _ratio(value(num), value(den))
        function, _, field = name.rpartition(".")
        if field in FIELDS and function in stats:
            return stats[function][FIELDS[field]]
        return counts[name]

    return {name: value(name) for name in names}


def trace(run: Run, workload, block, seconds, names):
    """Per-layer metrics of the first block of the op list.

    The first pass runs each op plain, then traced: the traced stdout must
    equal the plain one, and the two times give trace.overhead_ratio.  Later
    passes run the traced ops only, while one more, as long as the last,
    ends within `seconds`.  Counts come from the first pass and must repeat
    exactly in every later one; times are the median over passes of each
    pass's sum.
    """
    passes, plain_s, traced_s, spans = [], 0.0, 0.0, []
    names = [name for name in names if name != "trace.overhead_ratio"]
    start = time.perf_counter()
    pass_s = 0.0
    while not passes or time.perf_counter() - start + pass_s <= seconds:
        payloads, pass_s = [], 0.0
        for op in block:
            plain = None if passes else run.op(op)
            traced = run.op(op, traced=True)
            pass_s += traced.wall_s
            if plain is not None:
                plain_s += plain.wall_s
                traced_s += traced.wall_s
                if traced.stdout != plain.stdout:
                    run.fail(f"{' '.join(op)}: traced stdout differs from the plain run")
            payload = next((json.loads(line[len(MARK):]) for line in traced.stderr.splitlines()
                            if line.startswith(MARK)), None)
            if payload is None:
                run.fail(f"{' '.join(op)}: the traced run wrote no trace")
                continue
            for where in payload["unbound"]:
                run.fail(f"{' '.join(op)}: {where} still holds an unwrapped layer function")
            payloads.append(payload)
            if not passes:
                spans.append({"argv": list(op), "spans": payload["spans"]})
        try:
            passes.append(layer_metrics(payloads, names))
        except KeyError as missing:
            run.fail(f"the trace has no source for the per-layer metric {missing}")
            return dict.fromkeys(names + ["trace.overhead_ratio"], 0), spans
    metrics = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        if is_exact(name):
            if any(v != values[0] for v in values):
                run.fail(f"{name} is a deterministic count but changed between passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    for must_move, patterns in ((True, MUST_MOVE[workload]), (False, MUST_STAY_ZERO.get(workload, ()))):
        for pattern in patterns:
            matched = fnmatch.filter(metrics, pattern)
            if not matched:
                run.fail(f"{pattern} names no per-layer metric")
            for name in matched:
                if must_move and not metrics[name]:
                    run.fail(f"{name} is 0 on {workload}; the wrapped layer was not reached")
                elif not must_move and metrics[name]:
                    run.fail(f"{name} is {metrics[name]} on {workload}; this workload must not reach it")
    print(f"perfbench: traced {len(passes)} pass(es) over a block of {len(block)} ops; "
          f"trace.overhead_ratio={metrics['trace.overhead_ratio']:.3f}")
    return metrics, spans


def code_sha256() -> str:
    """Hash of the program's sources and the benchmark's own."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def repeat_check(run: Run, path: Path, record: dict):
    """Deterministic counts must equal those of the last traced run of the same ops and code."""
    if not path.is_file():
        return
    earlier = json.loads(path.read_text())
    if (earlier.get("list_sha256"), earlier.get("code_sha256")) != (record["list_sha256"], record["code_sha256"]):
        return
    compared = 0
    for name, value in record["metrics"].items():
        if is_exact(name) and name in earlier["metrics"]:
            compared += 1
            if earlier["metrics"][name] != value:
                run.fail(f"{name} is a deterministic count but was {earlier['metrics'][name]} "
                         f"in the last traced run of these ops and code, and is {value} now")
    print(f"perfbench: {compared} deterministic counts compared with the last traced run of these ops and code")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "qnarayana" / "cli.py").is_file():
        print(f"perfbench: no program to run: {src / 'qnarayana' / 'cli.py'} is missing", file=sys.stderr)
        return 2
    # Children import the checkout's src/ and may cache bytecode there, as an
    # installed package does; the warm-up op writes the cache.
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    located = spawn([sys.executable, "-c", "import qnarayana.cli as c; print(c.__file__)"], env)
    if located.code != 0 or Path(located.stdout.strip()) != src / "qnarayana" / "cli.py":
        print(f"perfbench: qnarayana does not import from {src}: {located.stdout}{located.stderr}",
              file=sys.stderr)
        return 2

    ops, block_len = workloads.generate(args.workload, args.seed)
    list_sha = hashlib.sha256(json.dumps(ops).encode()).hexdigest()
    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"list_sha256={list_sha} list_ops={len(ops)} block_ops={block_len}", flush=True)

    # One CPU for the client and its children, so that the reference work
    # measures the CPU each op runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(env)
    run.op(ops[0])  # warm-up: compiles the .pyc files an install would hold; not timed
    spans = None
    if args.trace:
        names = spec["per_layer"]
        values, spans = trace(run, args.workload, ops[:block_len], args.seconds, [m["name"] for m in names])
    else:
        values = measure(run, ops, block_len, args.seconds)
        names = spec["end_to_end"]
    print(f"perfbench: fail_ratio={run.failed / run.attempted:.4f} "
          f"({run.failed} failed of {run.attempted} attempted, warm-up included)")
    print("perfbench: executed_argv=" + json.dumps([r["argv"] for r in run.records]))

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "list_sha256": list_sha,
              "code_sha256": code_sha256(), "ops": run.records, "problems": run.problems, "metrics": values}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if spans is not None:
        record["spans"] = spans
        repeat_check(run, path, record)
    path.write_text(json.dumps(record))

    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
