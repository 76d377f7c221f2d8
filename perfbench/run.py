"""quantperm benchmark: four user workloads, measured end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is lazy-w64, table-build, explicit-cli or sweep; workloads.py says
what one op does.  BENCHMARK.json lists lazy-w64 and sweep, with why
each exists.  table-build and explicit-cli run by name for claims on
the value-table build and the explicit layer, but are not listed: their
ops take 3-4 s, so the 15 s runs that four listed workloads would allow
hold only four or five ops, and their median op time spread by
0.33-0.38 of the median from run to run on a shared 2-vCPU VM.  The
program is imported from src/ of the same checkout, never from
elsewhere.

--trace 0 (end to end): set-up runs SETUP_SAMPLES times, each time
from a fresh import of quantperm, and setup_s is their median; the
last set-up is kept and ops run for S seconds in a closed loop.  The
last stdout line is {"correct", "attempted", "failed", "metrics"} with
setup_s, op_ref_p50, op_ref_tail and peak_rss_mb.

op_ref_* is op time as a multiple of a fixed pure-Python reference loop
timed right before and right after the op, in the same process.  On a
shared host the speed of the whole machine drifts by 15-25% from one
minute to the next, and op time in seconds (op_s p50 and tail, kept in
the results file) follows it: on a shared 2-vCPU VM the median op times
of ten 45 s lazy-w64 runs of the same code had an interquartile range
of 0.25-0.30 of their median.  The reference loop slows down with the
op, so their ratio measures the program, not the host.  The loop lives
in this file, so a change to quantperm moves the ratio only through the
op.

--trace 1 (per layer): S/2 seconds of untraced ops, then a fresh import
with every layer boundary wrapped (tracer.py) and S/2 seconds of traced
ops, set-up included.  The last line carries the deterministic counts
of op 0 and trace_overhead_frac; self times per function and layer go
to the results file and the line before it.

Each run writes perfbench/out/<workload>-<size>-seed<N>-trace<T>.json
with the environment, every metric and the sample counts, and a traced
run also writes its spans.  Every count must repeat exactly across
identical ops, across the two phases of a traced run and across runs
of the same code; otherwise the run fails loudly.  The exit code is 0
only when every op passed its checks and the counts repeated.

--toy runs the same workloads at toy sizes, for the benchmark's tests.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import TRACED, Patches, Tracer, per_op_totals  # noqa: E402
from workloads import WORKLOADS, OpResult, TableCapture, load_pins, make_workload  # noqa: E402

SETUP_SAMPLES = 3
REF_ROUNDS = 120_000  # about 50 ms on a 2-vCPU VM: under 10% of a lazy-w64 op
MODULES = (
    "exactnum", "outcomes", "multinomial", "indexing",
    "permutations", "representation", "bench", "cli",
)
END_TO_END_UNITS = {"setup_s": "s", "op_ref_p50": "ref", "op_ref_tail": "ref", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "exactnum.arith_calls": "count",
    "exactnum.cmp_calls": "count",
    "setup.exactnum.arith_calls": "count",
    "setup.exactnum.cmp_calls": "count",
    **{f"{mod}.{fn}.calls": "count" for mod, fn in TRACED},
    "multinomial.compositions": "count",
    "multinomial.classes": "count",
    "multinomial.tau1_queries": "count",
    "multinomial.bigint_ops": "count",
    "indexing.tau1_per_fperm": "queries/call",
    "bench.checks": "count",
    "cli.stdout_bytes": "bytes",
    "trace_overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here: the program is missing or misplaced."""


def load_quantperm():
    """A fresh import of quantperm from SRC: every module executes again."""
    for name in [n for n in sys.modules if n == "quantperm" or n.startswith("quantperm.")]:
        del sys.modules[name]
    try:
        pkg = importlib.import_module("quantperm")
    except ImportError as e:
        raise BenchError(f"cannot import quantperm from {SRC}: {e}") from None
    if Path(pkg.__file__).resolve().parent != (SRC / "quantperm").resolve():
        raise BenchError(f"quantperm was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"quantperm.{m}") for m in MODULES})


# -- reference loop ---------------------------------------------------------------

_REF_TABLE = {i: (i * 0x9E3779B97F4A7C15) << 40 for i in range(256)}


def _ref_step(table, key, x):
    return table[key] * x


def reference_seconds(rounds: int = REF_ROUNDS) -> float:
    """Seconds taken by a fixed loop of the kinds of work quantperm's ops do:
    calls, dict lookups, branches and multi-word int arithmetic.

    The loop allocates no object the cyclic collector tracks, and the
    collector is off while it runs, so its time does not depend on how
    many objects the workload keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = 0
        for i in range(rounds):
            key = (i * 7) & 255
            acc = (acc + _ref_step(_REF_TABLE, key, i)) & ((1 << 127) - 1)
            if key < 128 and i & 15 < 8:
                acc ^= i
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


# -- one phase: import, set-up, closed loop ------------------------------------


class Session:
    """A fresh import of quantperm with the workload set up on it."""

    def __init__(self, workload, traced: bool):
        t0 = perf_counter()
        self.mods = load_quantperm()
        self.capture = TableCapture()
        self.capture.install(self.mods, Patches())
        self.tracer = None
        if traced:
            self.tracer = Tracer()
            self.tracer.install(self.mods)
            self.state, self.cold = self.tracer.run_op(
                -1, "setup", workload.setup, self.mods, self.capture
            )
        else:
            self.state, self.cold = workload.setup(self.mods, self.capture)
        self.setup_s = perf_counter() - t0
        self.workload = workload

    def measure(self, seconds: float):
        """Ops until `seconds` have passed (at least one), from op 0 on.

        The reference loop runs before the first op and after every op;
        an op's ref_s is the mean of the two runs around it.
        """
        results = []
        self.refs = [reference_seconds()]
        inputs = self.workload.inputs(self.state)
        deadline = perf_counter() + seconds
        while True:
            result = self._one(len(results), next(inputs))
            self.refs.append(reference_seconds())
            result.ref_s = (self.refs[-2] + self.refs[-1]) / 2
            results.append(result)
            if perf_counter() >= deadline:
                return results

    def _one(self, op_id: int, inp) -> OpResult:
        t0 = perf_counter()
        try:
            if self.tracer is None:
                return self.workload.op(self.mods, self.state, inp)
            return self.tracer.run_op(op_id, "op", self.workload.op, self.mods, self.state, inp)
        except Exception:
            # a raising op is a failed op; the loop keeps running
            return OpResult(perf_counter() - t0, False, traceback.format_exc(limit=3))


# -- statistics ----------------------------------------------------------------


def tail(samples):
    """(value, percentile, samples beyond it) of the op-time tail.

    The tail is the highest percentile with at least ten samples beyond
    it, but never below p90: with fewer than 100 samples it is p90, and
    fewer than ten lie beyond it.  Linear interpolation between ranks
    keeps it smooth as the sample count changes from run to run.
    """
    xs = sorted(samples)
    n = len(xs)
    q = max(0.9, 1 - 10 / n)
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    value = xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return value, 100 * q, sum(1 for x in xs if x > value)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timing(samples, scale=1.0):
    value, pct, beyond = tail(samples)
    return {
        "p50": statistics.median(samples) * scale,
        "tail": value * scale,
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "samples": len(samples),
    }


def traced_counts(op_id: int, totals) -> dict:
    """Call counts of one traced op, and tau1 queries per f_perm call."""
    per = totals.get(op_id, {})
    counts = {f"{m}.{f}.calls": per[f"{m}.{f}"][0] if f"{m}.{f}" in per else 0 for m, f in TRACED}
    counts["exactnum.arith_calls"] = sum(
        acc[0] for name, acc in per.items() if name.startswith("exactnum.arith.")
    )
    counts["exactnum.cmp_calls"] = sum(
        acc[0] for name, acc in per.items() if name.startswith("exactnum.cmp.")
    )
    fperm = per.get("permutations.f_perm", [0, 0, 0])
    counts["indexing.tau1_per_fperm"] = fperm[2] / fperm[0] if fperm[0] else 0
    return counts


def self_seconds(totals, op_ids) -> dict:
    """Median over ops of each function's and each layer's self time (s)."""
    names = sorted({name for i in op_ids for name in totals.get(i, {})})
    per_name = {}
    for name in names:
        per_name[name] = [totals.get(i, {}).get(name, [0, 0, 0])[1] for i in op_ids]
    for layer in MODULES:
        per_name[f"{layer}.self_s"] = [
            sum(acc[1] for name, acc in totals.get(i, {}).items() if name.startswith(layer + "."))
            for i in op_ids
        ]
    return {
        (name if name.endswith(".self_s") else f"{name}.self_s"): statistics.median(v) / 1e9
        for name, v in per_name.items()
        if op_ids
    }


# -- determinism gate ------------------------------------------------------------


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "quantperm").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def compare(label: str, a: dict, b: dict):
    return [
        f"{label}: {k} = {a[k]} vs {b[k]}" for k in sorted(a.keys() & b.keys()) if a[k] != b[k]
    ]


def repeated_ops_agree(workload, cold, results):
    """CLI ops repeat one input, so every op (and the cold one) counts alike."""
    if workload.name == "lazy-w64":
        return []
    ref = results[0].counts
    problems = compare("cold op vs op 0", cold.counts, ref)
    for i, r in enumerate(results[1:], start=1):
        problems += compare(f"op {i} vs op 0", r.counts, ref)
    return problems


def runs_agree(path: Path, counts: dict):
    """Op-0 counts of this run against earlier runs of the same code and size."""
    earlier = json.loads(path.read_text()) if path.exists() else {}
    problems = compare(f"this run vs {path.name}", counts, earlier)
    if not problems:
        path.write_text(json.dumps({**earlier, **counts}, indent=1, sort_keys=True))
    return problems


# -- the run -----------------------------------------------------------------


def environment(args, size):
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workload": args.workload,
        "size": size,
        "seed": args.seed,
        "seconds": args.seconds,
        "code": code_digest(),
    }


@dataclass
class Outcome:
    metrics: dict
    detail: dict
    results: list  # timed ops
    colds: list  # set-up ops that were checked but not timed
    gate: list  # determinism failures
    counts: dict  # op 0's counts, compared with earlier runs


def end_to_end(workload, args):
    setups = []
    for _ in range(SETUP_SAMPLES):
        session = None  # free the previous import before the next set-up
        gc.collect()
        session = Session(workload, traced=False)
        setups.append(session.setup_s)
    results = session.measure(args.seconds)
    times = [r.seconds for r in results]
    op = timing(times)
    ratios = [r.seconds / r.ref_s for r in results]
    rel = timing(ratios)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_ref_p50": rel["p50"],
        "op_ref_tail": rel["tail"],
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {
        "setup_samples": setups, "op_s": op, "op_s_samples": times,
        "op_ref": rel, "op_ref_samples": ratios, "ref_s_samples": session.refs,
    }
    if workload.name == "lazy-w64":
        detail["fperm_ms"] = timing([r.parts["fperm_s"] for r in results if r.ok], 1e3)
        detail["invf_ms"] = timing([r.parts["invf_s"] for r in results if r.ok], 1e3)
    if workload.name == "sweep":
        done = [r for r in results if r.ok]
        detail["checks_per_s"] = sum(r.counts["bench.checks"] for r in done) / sum(
            r.seconds for r in done
        ) if done else 0.0
    colds = [session.cold] if session.cold else []
    gate = repeated_ops_agree(workload, session.cold, results)
    return Outcome(metrics, detail, results, colds, gate, results[0].counts)


def per_layer(workload, args, spans_path: Path):
    half = args.seconds / 2
    plain = Session(workload, traced=False)
    plain_results = plain.measure(half)
    plain_cold = plain.cold
    plain = None
    gc.collect()
    traced = Session(workload, traced=True)
    results = traced.measure(half)
    tracer = traced.tracer
    tracer.uninstall()
    totals = per_op_totals(tracer)
    for i, r in enumerate(results):
        r.counts.update(traced_counts(i, totals))
    setup = traced_counts(-1, totals)
    if traced.cold is not None:
        traced.cold.counts.update(setup)
    tracer.write(spans_path)

    plain_p50 = statistics.median(r.seconds for r in plain_results)
    traced_p50 = statistics.median(r.seconds for r in results)
    counts = results[0].counts
    for name in ("exactnum.arith_calls", "exactnum.cmp_calls"):
        counts["setup." + name] = setup[name]
    metrics = {name: counts.get(name, 0) for name in PER_LAYER_UNITS if name != "trace_overhead_frac"}
    metrics["trace_overhead_frac"] = traced_p50 / plain_p50 - 1
    detail = {
        "untraced_op_s_p50": plain_p50,
        "traced_op_s_p50": traced_p50,
        "untraced_ops": len(plain_results),
        "traced_ops": len(results),
        "self_s": self_seconds(totals, list(range(len(results)))),
        "setup_self_s": self_seconds(totals, [-1]),
        "spans": len(tracer.name),
        "peak_rss_mb": peak_rss_mb(),
        "spans_file": spans_path.name,
    }
    gate = (
        repeated_ops_agree(workload, plain_cold, plain_results)
        + repeated_ops_agree(workload, traced.cold, results)
        + compare("untraced op 0 vs traced op 0", plain_results[0].counts, counts)
    )
    colds = [c for c in (plain_cold, traced.cold) if c is not None]
    return Outcome(metrics, detail, plain_results + results, colds, gate, counts)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--toy", action="store_true", help="toy sizes, for the benchmark's tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    size = "toy" if args.toy else "full"
    if not (SRC / "quantperm" / "__init__.py").is_file():
        print(f"error: no quantperm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-{size}-seed{args.seed}-trace{args.trace}"
    workload = make_workload(args.workload, size, args.seed, load_pins(size))
    try:
        if args.trace:
            outcome = per_layer(workload, args, OUT / f"{stem}-spans.csv.gz")
            units = PER_LAYER_UNITS
        else:
            outcome = end_to_end(workload, args)
            units = END_TO_END_UNITS
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    results, metrics, detail = outcome.results, outcome.metrics, outcome.detail
    counts_file = OUT / f"counts-{args.workload}-{size}-{code_digest()}.json"
    gate = outcome.gate + runs_agree(counts_file, outcome.counts)
    failed_ops = sum(1 for r in results if not r.ok)
    problems = [r.detail for r in outcome.colds + results if not r.ok]
    correct = not problems and not gate
    report = {
        "environment": environment(args, size),
        "correct": correct,
        "attempted": len(results),
        "failed": failed_ops,
        "fail_frac": failed_ops / len(results),
        "metrics": metrics,
        "detail": detail,
        "op0_counts": outcome.counts,
        "failures": problems[:5],
        "determinism_failures": gate[:10],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    for line in gate[:10]:
        print(f"DETERMINISM FAILURE: {line}", file=sys.stderr)
    for line in problems[:5]:
        print(f"FAILED OP: {line}", file=sys.stderr)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed_ops,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
