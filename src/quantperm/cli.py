"""Command-line front end.

Every subcommand reads a model file (--model PATH, or the built-ins
'builtin:A' / 'builtin:B'), emits CSV rows (default) or JSON
(--format json) on stdout, and is byte-deterministic for fixed inputs
and seed; bench is the one exception, whose wall-time column can be
zeroed with --no-timing.  Big integers are printed in decimal; in JSON
they are carried as decimal strings.  Exit codes: 0 success, 1 domain
error (diagnostics on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .bench import bench_scaling, selftest
from .errors import DomainError
from .indexing import (
    _require_explicit,
    alpha,
    beta_bruteforce,
    beta_fast,
    beta_fast_trace,
    istep,
    iweight,
    weight_classes,
)
from .multinomial import ValueTable, build_value_table
from .outcomes import (
    OutcomeModel,
    builtin_model,
    load_model,
    model_to_json,
    save_model,
    theta_squared,
)
from .permutations import (
    _canonical_inverse,
    _canonical_mapping,
    admissibility_failure,
    canonical_permutation,
    count_admissible,
    f_perm,
    inv_f,
    random_admissible,
)
from .representation import _decoded_rows, clt_table, representation_from_perm


def _load(spec: str) -> OutcomeModel:
    if spec.startswith("builtin:"):
        return builtin_model(spec.split(":", 1)[1])
    return load_model(spec)


def _emit(lines: Iterable[str]):
    for line in lines:
        print(line)


def _json_int(x: int):
    # decimal strings keep arbitrary precision safe for consumers
    return str(x)


def _load_perm_file(path: str, table: ValueTable) -> List[int]:
    _require_explicit(table.width, "permutation files")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as e:
        raise DomainError(f"cannot read permutation file {path}: {e.strerror or e}")
    except UnicodeDecodeError as e:
        raise DomainError(f"permutation file {path} is not UTF-8 text: {e}") from None
    mapping = [-1] * table.num_indices
    filled = 0
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DomainError(f"{path}:{lineno}: expected 'ell,pi(ell)', got {line!r}")
        try:
            ell, ellp = int(parts[0]), int(parts[1])
        except ValueError:
            raise DomainError(f"{path}:{lineno}: non-integer entry in {line!r}")
        if not 0 <= ell < table.num_indices:
            raise DomainError(f"{path}:{lineno}: level index {ell} out of range")
        if mapping[ell] != -1:
            raise DomainError(f"{path}:{lineno}: duplicate row for level {ell}")
        mapping[ell] = ellp
        filled += 1
    if filled != table.num_indices:
        raise DomainError(
            f"{path}: {filled} rows, expected {table.num_indices} (one per level)"
        )
    return mapping


# -- subcommand bodies -------------------------------------------------------


def _cmd_model(args) -> int:
    if args.builtin:
        model = builtin_model(args.builtin)
    elif args.model:
        model = _load(args.model)
    else:
        raise DomainError("model: need --model FILE or --builtin NAME")
    if args.out:
        try:
            save_model(model, args.out)
        except OSError as e:
            raise DomainError(
                f"cannot write model file {args.out}: {e.strerror or e}"
            ) from None
    doc = model_to_json(model)
    doc["m"] = model.m
    doc["mean"] = model.mean.text()
    doc["variance"] = model.variance.text()
    if model.haar is not None:
        doc["theta_squared"] = theta_squared(model.haar).text()
        doc["outcomes"] = [
            {"pattern": list(model.pattern_of(s)), "value": model.outcome(s).text()}
            for s in range(1, model.m + 1)
        ]
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        _emit(
            [
                f"M,{model.M}",
                f"m,{model.m}",
                f"d,{model.d}",
                f"strict,{str(model.strict).lower()}",
                f"mean,{model.mean.text()}",
                f"variance,{model.variance.text()}",
            ]
            + [
                f"outcome,{s},{''.join(map(str, model.pattern_of(s)))},{model.outcome(s).text()}"
                for s in range(1, model.m + 1)
            ]
        )
    return 0


def _cmd_table(args) -> int:
    model = _load(args.model)
    table = build_value_table(model, args.n)
    if args.format == "json":
        doc = {
            "n": table.n,
            "classes": [
                {
                    "t": t,
                    "value": table.values[t].text(),
                    "gamma": _json_int(table.gammas[t]),
                    "smc": _json_int(table.smc[t]),
                }
                for t in range(table.T + 1)
            ],
            "total": _json_int(table.smc[-1]),
        }
        print(json.dumps(doc, indent=2))
    else:
        _emit(
            [f"{t},{table.values[t].text()},{table.gammas[t]},{table.smc[t]}"
             for t in range(table.T + 1)]
            + [f"total,,,{table.smc[-1]}"]
        )
    return 0


def _rows(args, table: ValueTable, lazy, listing) -> Iterable[Tuple[int, int]]:
    """(ell, value) at the addressed levels: lazy(table, ell) at --ell, and
    at --all the pairs listing(table) streams in level order from the
    explicit tables."""
    if args.all:
        _require_explicit(table.width, "--all listings")
        return listing(table)
    if args.ell is None:
        raise DomainError("need --ell L or --all")
    return [(args.ell, lazy(table, args.ell))]


def _step_rows(table: ValueTable) -> Iterator[Tuple[int, int]]:
    """(ell, istep(ell)) over the step blocks [SMC(t), SMC(t+1))."""
    smc = table.smc
    for t in range(table.T + 1):
        for ell in range(smc[t], smc[t + 1]):
            yield ell, t


def _cmd_step(args) -> int:
    return _emit_classes(args, istep, _step_rows)


def _cmd_weight(args) -> int:
    return _emit_classes(args, iweight, lambda table: enumerate(weight_classes(table)))


def _emit_classes(args, lazy, listing) -> int:
    """'ell,t,value' for the class t of each addressed level; CSV streams."""
    model = _load(args.model)
    table = build_value_table(model, args.n)
    values = table.values
    rows = _rows(args, table, lazy, listing)
    if args.format == "json":
        doc = [{"ell": e, "t": t, "value": values[t].text()} for e, t in rows]
        print(json.dumps(doc, indent=2))
    else:
        _emit(f"{e},{t},{values[t].text()}" for e, t in rows)
    return 0


def _cmd_beta(args) -> int:
    model = _load(args.model)
    if args.brute:  # refuse before the table build, which alone takes seconds
        _require_explicit(args.n * (model.M + 1), "brute-force beta scans")
    table = build_value_table(model, args.n)
    use_fast = args.fast or not args.brute
    use_brute = args.brute
    values = []
    if use_fast:
        values.append(beta_fast(table, args.t, args.xi))
    if use_brute:
        values.append(beta_bruteforce(table, args.t, args.xi))
    if args.trace:
        walk = beta_fast_trace(table, args.t, args.xi)
        lines = [f"{zeta},{contrib}" for zeta, contrib in walk.steps]
        lines.append(f"self,{walk.self_term}")
        lines.append(f"total,{walk.total}")
        try:
            with open(args.trace, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        except OSError as e:
            raise DomainError(
                f"cannot write trace file {args.trace}: {e.strerror or e}"
            ) from None
    if args.format == "json":
        doc = {"t": args.t, "xi": args.xi}
        if use_fast:
            doc["fast"] = _json_int(values[0])
        if use_brute:
            doc["brute"] = _json_int(values[-1])
        doc["alpha"] = _json_int(alpha(table, args.t, args.xi))
        print(json.dumps(doc, indent=2))
    else:
        print(",".join(str(v) for v in values))
    return 0


def _cmd_fperm(args) -> int:
    return _emit_pairs(
        args, f_perm, lambda table: enumerate(_canonical_mapping(table))
    )


def _cmd_invf(args) -> int:
    return _emit_pairs(
        args, inv_f, lambda table: enumerate(_canonical_inverse(table))
    )


def _emit_pairs(args, lazy, listing) -> int:
    """One value at --ell, or streamed 'ell,value' rows at --all."""
    model = _load(args.model)
    table = build_value_table(model, args.n)
    rows = _rows(args, table, lazy, listing)
    if args.format == "json":
        print(json.dumps([[e, v] for e, v in rows]))
    elif args.all:
        _emit(f"{e},{v}" for e, v in rows)
    else:
        print(rows[0][1])
    return 0


def _cmd_verify(args) -> int:
    model = _load(args.model)
    table = build_value_table(model, args.n)
    if args.perm:
        mapping = _load_perm_file(args.perm, table)
    else:
        mapping = canonical_permutation(table).mapping
    reason = admissibility_failure(table, mapping)
    if args.format == "json":
        doc = {"admissible": reason is None}
        if reason is not None:
            doc["reason"] = reason
        print(json.dumps(doc))
    else:
        print("true" if reason is None else "false")
    if reason is not None:
        print(f"not admissible: {reason}", file=sys.stderr)
    return 0


def _cmd_count(args) -> int:
    model = _load(args.model)
    table = build_value_table(model, args.n)
    count = count_admissible(table)
    # MAX_COUNT_BITS admits about 1.3M digits, past Python's text limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = str(count)
    finally:
        sys.set_int_max_str_digits(limit)
    if args.format == "json":
        print(json.dumps({"count": text}))
    else:
        print(text)
    return 0


def _cmd_random(args) -> int:
    model = _load(args.model)
    table = build_value_table(model, args.n)
    perm = random_admissible(table, args.seed)
    if args.format == "json":
        print(json.dumps([[e, v] for e, v in perm.pairs()]))
    else:
        _emit(f"{e},{v}" for e, v in perm.pairs())
    return 0


def _cmd_repr(args) -> int:
    model = _load(args.model)
    table = build_value_table(model, args.n)
    if args.perm:
        perm = _load_perm_file(args.perm, table)
    else:
        perm = canonical_permutation(table)
    rep = representation_from_perm(table, perm)
    rows = _decoded_rows(table, rep.levels)
    if args.format == "json":
        doc = [{"ell": ell, "ranks": list(row)} for ell, row in enumerate(rows)]
        print(json.dumps(doc))
    else:
        text = {s: model.outcome(s).text() for s in range(1, model.m + 1)}
        _emit(
            f"{ell},{i},{s},{text[s]}"
            for ell, row in enumerate(rows)
            for i, s in enumerate(row, start=1)
        )
    return 0


def _cmd_clt(args) -> int:
    model = _load(args.model)
    table = build_value_table(model, args.n)
    result = clt_table(table, grid_size=args.grid)
    if args.format == "json":
        doc = {
            "n": result.n,
            "theta": result.theta,
            "sup_distance": result.sup_distance,
            "rows": [
                {"z": r.z, "empirical": r.empirical, "normal": r.reference}
                for r in result.rows
            ],
        }
        print(json.dumps(doc, indent=2))
    else:
        _emit(
            [f"{r.z:.9g},{r.empirical:.9g},{r.reference:.9g}" for r in result.rows]
            + [f"sup_distance,{result.sup_distance:.9g},"]
        )
    return 0


def _cmd_bench(args) -> int:
    model = _load(args.model)
    try:
        n_list = [int(x) for x in args.n_list.split(",") if x.strip()]
    except ValueError:
        raise DomainError(f"--n-list must be comma-separated integers, got {args.n_list!r}")
    result = bench_scaling(
        model, args.model, n_list, samples_per_n=args.samples, seed=args.seed
    )
    show_time = not args.no_timing
    if args.format == "json":
        doc = {
            "slope": result.slope,
            "records": [
                {
                    "model": r.model_id,
                    "n": r.n,
                    "operation": r.operation,
                    "tau1_queries": _json_int(r.tau1_queries),
                    "bigint_ops": _json_int(r.bigint_ops),
                    "wall_time": r.wall_time if show_time else 0.0,
                }
                for r in result.records
            ],
        }
        print(json.dumps(doc, indent=2))
    else:
        lines = []
        for r in result.records:
            wt = f"{r.wall_time:.6f}" if show_time else "0.000000"
            lines.append(
                f"{r.model_id},{r.n},{r.operation},{r.tau1_queries},"
                f"{r.bigint_ops},{wt}"
            )
        lines.append(f"slope,{result.slope:.4f}")
        _emit(lines)
    return 0


def _cmd_selftest(args) -> int:
    model = _load(args.model)
    report = selftest(model, args.n_max, model_id=args.model, seed=args.seed)
    if args.format == "json":
        doc = [
            {
                "check": r.name,
                "n": r.n,
                "checked": r.checked,
                "passed": r.passed,
                "detail": r.detail,
            }
            for r in report.results
        ]
        print(json.dumps(doc, indent=2))
    else:
        _emit(
            [
                f"{r.name},{r.n},{r.checked},{'pass' if r.passed else 'FAIL'}"
                for r in report.results
            ]
        )
    return 0 if report.ok else 1


# -- parser -------------------------------------------------------------------


def _add_common(p, model_required=True):
    p.add_argument(
        "--model",
        required=model_required,
        help="model JSON file, or builtin:A / builtin:B",
    )
    p.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )


def _add_n(p):
    p.add_argument("--n", type=int, required=True, help="sum length n >= 1")


def _add_levels(p):
    group = p.add_mutually_exclusive_group()
    group.add_argument("--ell", type=int, help="one level index")
    group.add_argument("--all", action="store_true", help="every level index")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantperm",
        description=(
            "Exact quantile tables, admissible permutations and triangular-array "
            "representations of multinomial partial sums."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model", help="inspect a model file or materialize a builtin")
    _add_common(p, model_required=False)
    p.add_argument("--builtin", choices=("A", "B"), help="use a built-in model")
    p.add_argument("--out", help="also write the model JSON to this path")
    p.set_defaults(fn=_cmd_model)

    p = sub.add_parser("table", help="dump the value classes: t,value,gamma,smc")
    _add_common(p)
    _add_n(p)
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("step", help="istep and sorted value at levels: ell,t,value")
    _add_common(p)
    _add_n(p)
    _add_levels(p)
    p.set_defaults(fn=_cmd_step)

    p = sub.add_parser("weight", help="iweight and decoded value: ell,t,value")
    _add_common(p)
    _add_n(p)
    _add_levels(p)
    p.set_defaults(fn=_cmd_weight)

    p = sub.add_parser("beta", help="class count below a cutoff")
    _add_common(p)
    _add_n(p)
    p.add_argument("--t", type=int, required=True, help="value class")
    p.add_argument("--xi", type=int, required=True, help="inclusive cutoff")
    p.add_argument("--fast", action="store_true", help="use the prefix walk")
    p.add_argument("--brute", action="store_true", help="use the exhaustive scan")
    p.add_argument("--trace", help="write per-position walk contributions (CSV) here")
    p.set_defaults(fn=_cmd_beta)

    p = sub.add_parser("fperm", help="canonical admissible permutation F_n")
    _add_common(p)
    _add_n(p)
    _add_levels(p)
    p.set_defaults(fn=_cmd_fperm)

    p = sub.add_parser("invf", help="inverse of F_n")
    _add_common(p)
    _add_n(p)
    _add_levels(p)
    p.set_defaults(fn=_cmd_invf)

    p = sub.add_parser("verify", help="check a permutation file for admissibility")
    _add_common(p)
    _add_n(p)
    p.add_argument("--perm", help="CSV file of 'ell,pi(ell)' rows (default: F_n)")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("count", help="number of admissible permutations")
    _add_common(p)
    _add_n(p)
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("random", help="seeded uniform admissible permutation")
    _add_common(p)
    _add_n(p)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(fn=_cmd_random)

    p = sub.add_parser("repr", help="representation rows: ell,i,rank,value")
    _add_common(p)
    _add_n(p)
    p.add_argument("--perm", help="CSV permutation file (default: F_n)")
    p.set_defaults(fn=_cmd_repr)

    p = sub.add_parser("clt", help="exact cdf against the normal cdf")
    _add_common(p)
    _add_n(p)
    p.add_argument("--grid", type=int, help="subsample the rows to this many")
    p.set_defaults(fn=_cmd_clt)

    p = sub.add_parser("bench", help="query scaling of the lazy F evaluation")
    _add_common(p)
    p.add_argument("--n-list", required=True, help="comma-separated n values")
    p.add_argument("--samples", type=int, default=3, help="evaluations per n")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--no-timing", action="store_true",
        help="zero the wall-time column for byte-reproducible output",
    )
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("selftest", help="exhaustive invariant suites up to n_max")
    _add_common(p)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.fn(args)
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
