"""Scaling measurements and the exhaustive self-check suite.

bench_scaling measures how many tau1 queries one lazy F-evaluation
costs as n grows: for each n it evaluates f_perm at seeded random
levels, each from chunk 1 (no sample resumes from the checkpoint path
of an earlier one), reads the deterministic query counters, and fits a
straight line to (log n, log mean-queries).  Bounded slope is the
whole point: the walk is polynomial in n relative to tau1 while the
brute-force alternative (decoding all 2^(n(M+1)) levels) is recorded
for contrast and only executed at widths where that is still sane.

selftest replays the module invariants exhaustively up to a given
n_max: class counts, table monotonicity, the alpha/beta/gamma
identities, fast-vs-brute beta agreement on every (t, xi), the
partition identity, admissibility and invertibility of F, the
representation invariants, and the walk's mass split.  Failures are
reported per named check so a broken table localizes.

The exhaustive checks of a table take one pass over the levels xi in
order: the row of beta_fast(t, xi) over every class t, then
ell = inv_f(xi) and f_perm(ell), which must be xi, filed as
F_n(ell) = f_perm(ell).  inv_f ranks xi in the class the row just
ranked it in, and f_perm unranks that rank in the same class, so both
resume from the checkpoint the row's walk left and take one chunk step
each.  f_perm(inv_f(xi)) = xi at every xi is the whole inverse check:
it makes inv_f one-to-one on the m^n levels, so every ell is filed
once, the filed mapping is F_n, and inv_f is its inverse.
"""

from __future__ import annotations

import math
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import List, Tuple

from .errors import DomainError, shown
from .indexing import (
    EXPLICIT_WIDTH_LIMIT,
    _forget_path,
    alpha,
    beta_fast,
    beta_fast_trace,
    istep,
    weight_classes,
)
from .multinomial import ValueTable, build_value_table
from .outcomes import OutcomeModel, theta_squared
from .permutations import _rng, admissibility_failure, f_perm, inv_f

# Most f_perm samples bench_scaling takes at one n: each is a walk and a
# BenchRecord, so a larger count is work and memory without a useful end.
MAX_BENCH_SAMPLES = 10_000


@dataclass
class BenchRecord:
    model_id: str
    n: int
    operation: str
    tau1_queries: int
    bigint_ops: int
    wall_time: float


@dataclass
class BenchResult:
    records: List[BenchRecord]
    slope: float
    mean_queries: List[Tuple[int, float]]  # (n, mean tau1 queries per f_perm)


def fit_loglog_slope(points: Sequence[Tuple[float, float]]) -> float:
    """Least-squares slope of log y against log x."""
    try:
        points = list(points)
        distinct = len({x for x, _ in points})
    except (TypeError, ValueError):  # not an iterable of pairs with hashable x
        raise DomainError(f"slope fit needs (x, y) pairs, got {shown(points)}") from None
    if distinct < 2:
        raise DomainError("slope fit needs points at two or more distinct x")
    try:
        positive = all(x > 0 and y > 0 for x, y in points)
    except TypeError:  # x or y is not a number
        positive = False
    if not positive:
        raise DomainError(f"slope fit needs x > 0 and y > 0, got {shown(points)}")
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


def bench_scaling(
    model: OutcomeModel,
    model_id: str,
    n_list: Sequence[int],
    samples_per_n: int = 3,
    seed: int = 0,
) -> BenchResult:
    """Measure f_perm query growth over n_list; fit the log-log slope."""
    if not isinstance(n_list, Sequence) or not n_list or any(
        type(n) is not int or n < 1 for n in n_list
    ):
        raise DomainError(f"n_list must be non-empty positive integers, got {shown(n_list)}")
    if type(samples_per_n) is not int or not 1 <= samples_per_n <= MAX_BENCH_SAMPLES:
        raise DomainError(
            f"samples_per_n must be an integer in [1, {MAX_BENCH_SAMPLES}], "
            f"got {shown(samples_per_n)}"
        )
    rng = _rng(seed)
    records: List[BenchRecord] = []
    means: List[Tuple[int, float]] = []
    for n in n_list:
        table = build_value_table(model, n)
        total_queries = 0
        for _ in range(samples_per_n):
            ell = rng.randrange(table.num_indices)
            _forget_path(table, istep(table, ell))  # each sample walks from chunk 1
            before = table.stats.snapshot()
            t0 = time.perf_counter()
            f_perm(table, ell)
            dt = time.perf_counter() - t0
            d = table.stats.delta(before)
            total_queries += d.tau1_queries
            records.append(
                BenchRecord(model_id, n, "fperm", d.tau1_queries, d.bigint_ops, dt)
            )
        means.append((n, total_queries / samples_per_n))
        width = table.width
        if width <= EXPLICIT_WIDTH_LIMIT:
            t0 = time.perf_counter()
            weight_classes(table)
            dt = time.perf_counter() - t0
        else:
            dt = 0.0  # cost recorded, sweep not executed
        records.append(BenchRecord(model_id, n, "brute-sweep", 0, 2**width, dt))
    slope = fit_loglog_slope(means)
    return BenchResult(records, slope, means)


# -- selftest ----------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    n: int
    checked: int
    passed: bool
    detail: str = ""


@dataclass
class SelfTestReport:
    results: List[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)


def _result(name, n, checked, passed, detail=""):
    return CheckResult(name, n, checked, bool(passed), detail)


def table_checks(table: ValueTable, seed: int = 0) -> List[CheckResult]:
    """All invariant checks for one table; exhaustive in the level indices."""
    n = table.n
    rng = _rng(seed)
    out: List[CheckResult] = []

    # class counts add up to m^n
    total = sum(table.gammas)
    out.append(
        _result(
            "gamma-sum", n, table.T + 1,
            total == table.num_indices == table.smc[-1],
            f"sum={total}, m^n={table.num_indices}",
        )
    )

    # strictly increasing values and cumulative counts
    mono = all(
        table.values[t] < table.values[t + 1] for t in range(table.T)
    ) and all(table.smc[t] < table.smc[t + 1] for t in range(table.T + 1))
    out.append(_result("table-monotone", n, table.T + 1, mono))

    # one pass over xi in level order.  beta_fast at every (t, xi), each
    # xi's row of T + 1 values compared with the running class counts in
    # one list comparison (bad_beta counts the rows that differ), and the
    # partition identity on the fast values: sum_t beta_fast(t, xi) = xi + 1.
    # Then ell = inv_f(xi) and f_perm(ell), which must give xi back.  inv_f
    # ranks xi in class iweight(xi), which the row just ranked, and f_perm
    # unranks that rank in the same class, so both resume in the state the
    # row's walk left: one step each.  f_perm(inv_f(xi)) = xi at every xi
    # makes inv_f one-to-one on the m^n levels, so a bijection; then every
    # ell meets exactly one f_perm call, mapping is F_n and inv_f is
    # F_n^{-1}: this is the whole inverse check.  An ell out of range is a
    # failed row, never an index
    num = table.num_indices
    wc = weight_classes(table)
    counts = [0] * (table.T + 1)
    mapping = array("I", [0]) * num
    bad_beta = 0
    bad_partition = 0
    bad_inv = 0
    checked = 0
    for xi in range(num):
        counts[wc[xi]] += 1
        betas = [beta_fast(table, t, xi) for t in range(table.T + 1)]
        checked += len(betas)
        if betas != counts:
            bad_beta += 1
        if sum(betas) != xi + 1:
            bad_partition += 1
        ell = inv_f(table, xi)
        if type(ell) is not int or not 0 <= ell < num:
            bad_inv += 1
            continue
        image = mapping[ell] = f_perm(table, ell)
        if image != xi:
            bad_inv += 1
    if bad_inv:
        # inv_f may have missed some ell: fill F_n there from f_perm (a 0
        # is unfilled, or F_n(0) = 0), so that the rows below judge f_perm
        # alone and a faulty inv_f fails the inverse row only
        for ell in range(num):
            if not mapping[ell]:
                mapping[ell] = f_perm(table, ell)
    out.append(_result("beta-equivalence", n, checked, bad_beta == 0))
    out.append(
        _result("beta-partition", n, table.num_indices, bad_partition == 0)
    )

    # full-range alpha and beta both recover gamma; betas is the last
    # row of the loop, beta_fast(t, top)
    top = table.num_indices - 1
    bad = sum(
        1
        for t in range(table.T + 1)
        if alpha(table, t, top) != table.gammas[t]
        or betas[t] != table.gammas[t]
    )
    out.append(_result("alpha-beta-gamma", n, table.T + 1, bad == 0))

    # F is admissible and inv_f inverts it
    reason = admissibility_failure(table, mapping)
    out.append(
        _result(
            "f-admissible", n, table.num_indices,
            reason is None, reason or "",
        )
    )
    out.append(_result("f-inverse", n, table.num_indices, bad_inv == 0))

    # representation invariants of the canonical permutation: they hold
    # iff the mapping is admissible (representation_failure is
    # admissibility_failure), so the reason above decides them
    out.append(
        _result(
            "representation", n, table.num_indices,
            reason is None, reason or "",
        )
    )

    # the walk splits 2^(width - zeta) levels at each 1-bit zeta
    width = table.width
    sample = min(8, table.num_indices)
    xis = sorted(rng.randrange(table.num_indices) for _ in range(sample))
    bad_mass = 0
    checked = 0
    for xi in xis:
        per_zeta: dict = {}
        for t in range(table.T + 1):
            for zeta, contrib in beta_fast_trace(table, t, xi).steps:
                per_zeta[zeta] = per_zeta.get(zeta, 0) + contrib
        for zeta, mass in per_zeta.items():
            checked += 1
            if mass != 2 ** (width - zeta):
                bad_mass += 1
    out.append(_result("walk-mass", n, checked, bad_mass == 0))
    return out


def selftest(model: OutcomeModel, n_max: int, seed: int = 0) -> SelfTestReport:
    """Run every invariant suite exhaustively for n = 1..n_max."""
    if type(n_max) is not int or n_max < 1:
        raise DomainError(f"n_max must be an integer >= 1, got {shown(n_max)}")
    if n_max * (model.M + 1) > EXPLICIT_WIDTH_LIMIT:
        raise DomainError(
            f"selftest needs n_max(M+1) <= {EXPLICIT_WIDTH_LIMIT}, "
            f"got {shown(n_max * (model.M + 1))}"
        )
    report = SelfTestReport()
    if model.haar is not None:
        ok = model.variance == theta_squared(model.haar) and model.mean == 0
        report.results.append(
            _result("haar-moments", 0, 1, ok, "variance vs sum of c^2")
        )
    for n in range(1, n_max + 1):
        table = build_value_table(model, n)
        report.results.extend(table_checks(table, seed=seed))
    return report
