"""The four quantperm workloads: inputs, one op each, and its checks.

Every workload is a closed loop with one caller.  An op is timed
around its calls into quantperm only; its correctness checks run
outside the timed region.  Each op returns its deterministic counts
(tau1 queries, bigint ops, compositions and classes of the tables it
read, stdout bytes, selftest checks), which the determinism gate
compares across ops, phases and runs.

CLI ops call quantperm.cli.main in-process with stdout swapped for a
hashing sink; every stdout is pinned by SHA-256 and byte count in
pins.json, taken from the code before any performance work.  The CLI
workloads' inputs are fixed by those pins, so the seed only draws the
levels of lazy-w64.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
HAAR_M2 = HERE / "inputs" / "haar_m2.json"
PINS = HERE / "pins.json"

# CLI steps per workload and size; "{haar}" stands for the Haar model file.
CLI_STEPS = {
    "table-build": {
        "full": ("table --model {haar} --n 7", "table --model builtin:B --n 24"),
        "toy": ("table --model {haar} --n 2", "table --model builtin:B --n 3"),
    },
    "explicit-cli": {
        "full": ("repr --model builtin:A --n 16", "verify --model builtin:B --n 10"),
        "toy": ("repr --model builtin:A --n 4", "verify --model builtin:B --n 2"),
    },
    "sweep": {
        "full": ("selftest --model builtin:B --n-max 5", "selftest --model builtin:A --n-max 10"),
        "toy": ("selftest --model builtin:B --n-max 2", "selftest --model builtin:A --n-max 3"),
    },
}
LAZY_N = {"full": 32, "toy": 4}
WORKLOADS = ("lazy-w64", "table-build", "explicit-cli", "sweep")


@dataclass
class OpResult:
    seconds: float
    ok: bool
    detail: str = ""
    parts: dict = field(default_factory=dict)  # sub-call seconds, e.g. fperm_s
    counts: dict = field(default_factory=dict)
    ref_s: float = 0.0  # reference-loop seconds around the op (run.py)


def load_pins(size: str) -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))[size]


def table_counts(tables) -> dict:
    return {
        "multinomial.compositions": sum(len(ks) for t in tables for ks in t.members),
        "multinomial.classes": sum(t.T + 1 for t in tables),
        "multinomial.tau1_queries": sum(t.stats.tau1_queries for t in tables),
        "multinomial.bigint_ops": sum(t.stats.bigint_ops for t in tables),
    }


# -- lazy F_n at width 64 ------------------------------------------------------


class LazyW64:
    """B at n = 32: one f_perm, its inv_f and the gamma relation per op."""

    name = "lazy-w64"

    def __init__(self, size: str, seed: int, pins: dict):
        self.n = LAZY_N[size]
        self.seed = seed
        pin = pins["lazy-w64"]
        self.pin_ell, self.pin_f = int(pin["ell"]), int(pin["F"])

    def setup(self, mods, capture):
        """The value table every op reads; no op of its own."""
        model = mods.outcomes.builtin_model("B")
        return mods.multinomial.build_value_table(model, self.n), None

    def inputs(self, table):
        """The pinned level first, then levels drawn from the seed."""
        yield self.pin_ell
        rng = random.Random(self.seed)
        while True:
            yield rng.randrange(table.num_indices)

    def op(self, mods, table, ell: int) -> OpResult:
        perm = mods.permutations
        before = (table.stats.tau1_queries, table.stats.bigint_ops)
        t0 = perf_counter()
        image = perm.f_perm(table, ell)
        t1 = perf_counter()
        back = perm.inv_f(table, image)
        t2 = perf_counter()
        related = perm.gamma_relation(table, ell, image)
        t3 = perf_counter()
        counts = table_counts([table])
        counts["multinomial.tau1_queries"] = table.stats.tau1_queries - before[0]
        counts["multinomial.bigint_ops"] = table.stats.bigint_ops - before[1]
        problems = []
        if back != ell:
            problems.append(f"inv_f(F({ell})) = {back}")
        if not related:
            problems.append(f"gamma relation fails at ({ell}, {image})")
        if ell == self.pin_ell and image != self.pin_f:
            problems.append(f"F({ell}) = {image}, pinned {self.pin_f}")
        return OpResult(
            t3 - t0, not problems, "; ".join(problems),
            {"fperm_s": t1 - t0, "invf_s": t2 - t1}, counts,
        )


# -- workloads that drive quantperm.cli.main ------------------------------------


class HashSink(io.RawIOBase):
    """Binary sink that hashes and counts what it is given; keeps it if asked."""

    def __init__(self, keep: bool):
        super().__init__()
        self.sha = hashlib.sha256()
        self.nbytes = 0
        self.kept = [] if keep else None

    def writable(self):
        return True

    def write(self, b):
        self.sha.update(b)
        self.nbytes += len(b)
        if self.kept is not None:
            self.kept.append(bytes(b))
        return len(b)


@dataclass
class CliOutput:
    code: int
    sha256: str
    nbytes: int
    text: str  # stdout, when kept; else ""
    stderr: str


def cli_argv(step: str):
    return [str(HAAR_M2) if word == "{haar}" else word for word in step.split()]


def run_cli(mods, argv, keep: bool) -> CliOutput:
    """quantperm.cli.main(argv) with stdout hashed into a sink."""
    sink = HashSink(keep)
    out = io.TextIOWrapper(io.BufferedWriter(sink, 1 << 16), encoding="utf-8", newline="\n")
    err = io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = mods.cli.main(argv)
    finally:
        out.flush()
        sys.stdout, sys.stderr = saved
    text = b"".join(sink.kept).decode("utf-8") if keep else ""
    return CliOutput(code, sink.sha.hexdigest(), sink.nbytes, text, err.getvalue())


class CliWorkload:
    """Two cli.main calls per op; set-up is one untimed cold op."""

    def __init__(self, name: str, size: str, pins: dict):
        self.name = name
        self.steps = CLI_STEPS[name][size]
        self.pins = pins["cli"]
        self.total_checks = pins["selftest_checks"] if name == "sweep" else None

    def setup(self, mods, capture):
        """One cold op: it fills the process-level multinomial memo."""
        return capture, self.op(mods, capture, None)

    def inputs(self, state):
        while True:
            yield None

    def op(self, mods, capture, _input) -> OpResult:
        outputs = []
        t0 = perf_counter()
        for step in self.steps:
            outputs.append(run_cli(mods, cli_argv(step), keep=not step.startswith("repr")))
        seconds = perf_counter() - t0
        counts = table_counts(capture.tables)
        capture.tables.clear()
        counts["cli.stdout_bytes"] = sum(o.nbytes for o in outputs)
        problems = []
        checks = 0
        for step, o in zip(self.steps, outputs):
            problems += self.check_step(step, o)
            if step.startswith("selftest"):
                checks += sum(int(row.split(",")[2]) for row in o.text.splitlines())
        if self.total_checks is not None:
            counts["bench.checks"] = checks
            if checks != self.total_checks:
                problems.append(f"selftest checks total {checks}, pinned {self.total_checks}")
        return OpResult(seconds, not problems, "; ".join(problems), {}, counts)

    def check_step(self, step: str, o: CliOutput):
        problems = []
        if o.code != 0:
            problems.append(f"{step}: exit {o.code}: {o.stderr.strip()[:200]}")
        pin = self.pins.get(step)
        if pin is None:
            problems.append(f"{step}: no pinned output")
        elif (o.sha256, o.nbytes) != (pin["sha256"], pin["bytes"]):
            problems.append(
                f"{step}: stdout {o.sha256[:16]}/{o.nbytes} B, "
                f"pinned {pin['sha256'][:16]}/{pin['bytes']} B"
            )
        if step.startswith("verify") and o.text != "true\n":
            problems.append(f"{step}: printed {o.text[:40]!r}, not 'true'")
        if step.startswith("selftest"):
            rows = o.text.splitlines()
            if not rows or any(not row.endswith(",pass") for row in rows):
                problems.append(f"{step}: not every selftest row passes")
        return problems


class TableCapture:
    """Collects the tables build_value_table returns, wherever it is called."""

    def __init__(self):
        self.tables = []

    def install(self, mods, patches):
        orig = mods.multinomial.build_value_table

        def build_value_table(*args, **kwargs):
            table = orig(*args, **kwargs)
            self.tables.append(table)
            return table

        patches.everywhere(orig, build_value_table)


def make_workload(name: str, size: str, seed: int, pins: dict):
    if name == "lazy-w64":
        return LazyW64(size, seed, pins)
    return CliWorkload(name, size, pins)
