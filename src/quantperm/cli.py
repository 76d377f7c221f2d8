"""Command-line front end.

Every subcommand reads a model file (--model PATH, or the built-ins
'builtin:A' / 'builtin:B'; model also takes --builtin NAME, which wins).
main is the one place that loads the model, builds its value table once
for every subcommand that takes --n, and prints: each subcommand body
returns an Output, and main makes and prints its CSV lines (default) or
its JSON document (--format json), never both.  Output is
byte-deterministic for fixed inputs and seed; bench is the one
exception, whose wall-time column can be zeroed with --no-timing.  Big
integers are printed in decimal; in JSON they are carried as decimal
strings.  Exit codes: 0 success, 1 domain error (diagnostics on
stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from array import array
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Tuple

from .bench import bench_scaling, selftest
from .errors import DomainError
from .indexing import (
    _decoded_rows,
    _require_explicit,
    _step_classes,
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
    outcome_rows,
    save_model,
    theta_squared,
)
from .permutations import (
    AdmissiblePermutation,
    _canonical_inverse,
    _canonical_mapping,
    admissibility_failure,
    canonical_permutation,
    count_admissible,
    f_perm,
    inv_f,
    random_admissible,
)
from .representation import clt_table, representation_from_perm


class Output(NamedTuple):
    """A subcommand's JSON document and CSV lines, each made only if main
    prints that format, its exit code and a note for stderr after stdout."""

    json: Callable[[], object]
    csv: Callable[[], Iterable[object]]
    code: int = 0
    note: str = ""


def _write(kind: str, path: str, write: Callable[[str], object]):
    """write(path), with a failure to write as a DomainError."""
    try:
        write(path)
    except OSError as e:
        raise DomainError(f"cannot write {kind} file {path}: {e.strerror or e}") from None


def _load_perm_file(path: str, table: ValueTable) -> AdmissiblePermutation:
    """The 'ell,pi(ell)' rows of a permutation file, in any order, as the
    level mapping they list; every level and image lies in [0, m^n).
    Admissibility is not checked here."""
    _require_explicit(table.width, "permutation files")
    num = table.num_indices
    mapping = array("I", [num]) * num  # num marks a level with no row yet
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                parts = line.split(",")  # int() ignores surrounding whitespace
                if len(parts) != 2:
                    if not line.strip():
                        continue
                    raise DomainError(
                        f"{path}:{lineno}: expected 'ell,pi(ell)', got {line.strip()!r}"
                    )
                try:
                    ell, ellp = int(parts[0]), int(parts[1])
                except ValueError:
                    raise DomainError(
                        f"{path}:{lineno}: non-integer entry in {line.strip()!r}"
                    ) from None
                if not 0 <= ell < num:
                    raise DomainError(f"{path}:{lineno}: level index {ell} out of range")
                if not 0 <= ellp < num:
                    raise DomainError(f"{path}:{lineno}: image {ellp} out of range [0, {num})")
                if mapping[ell] != num:
                    raise DomainError(f"{path}:{lineno}: duplicate row for level {ell}")
                mapping[ell] = ellp
    except OSError as e:
        raise DomainError(f"cannot read permutation file {path}: {e.strerror or e}")
    except UnicodeDecodeError as e:
        raise DomainError(f"permutation file {path} is not UTF-8 text: {e}") from None
    missing = mapping.count(num)
    if missing:
        raise DomainError(f"{path}: {num - missing} rows, expected {num} (one per level)")
    return AdmissiblePermutation(table, memoryview(mapping).toreadonly())


def _perm(args, table: ValueTable) -> AdmissiblePermutation:
    """The permutation in the --perm file, or F_n without one."""
    if args.perm:
        return _load_perm_file(args.perm, table)
    return canonical_permutation(table)


# -- subcommand bodies -------------------------------------------------------


def _cmd_model(args, model: OutcomeModel) -> Output:
    if args.out:
        _write("model", args.out, partial(save_model, model))

    def doc():
        doc = model_to_json(model)
        doc["m"] = model.m
        doc["mean"] = model.mean.text()
        doc["variance"] = model.variance.text()
        if model.haar is not None:
            doc["theta_squared"] = theta_squared(model.haar).text()
            doc["outcomes"] = outcome_rows(model)
        return doc

    return Output(doc, lambda: [
        f"M,{model.M}",
        f"m,{model.m}",
        f"d,{model.d}",
        f"strict,{str(model.strict).lower()}",
        f"mean,{model.mean.text()}",
        f"variance,{model.variance.text()}",
    ] + [
        f"outcome,{s},{''.join(map(str, model.pattern_of(s)))},{model.outcome(s).text()}"
        for s in range(1, model.m + 1)
    ])


def _cmd_table(args, table: ValueTable) -> Output:
    def rows():  # (t, value, gamma, SMC(t)) of every class
        columns = zip(table.values, table.gammas, table.smc)
        return ((t, v.text(), g, c) for t, (v, g, c) in enumerate(columns))

    total = table.smc[-1]
    return Output(
        lambda: {
            "n": table.n,
            "classes": [
                {"t": t, "value": v, "gamma": str(g), "smc": str(c)} for t, v, g, c in rows()
            ],
            "total": str(total),
        },
        lambda: chain((f"{t},{v},{g},{c}" for t, v, g, c in rows()), [f"total,,,{total}"]),
    )


def _rows(args, table: ValueTable, lazy, listing) -> Iterable[Tuple[int, int]]:
    """(ell, value) at the addressed levels: lazy(table, ell) at --ell, and
    at --all every level's value as listing(table) streams them in level
    order from the explicit tables."""
    if args.all:
        _require_explicit(table.width, "--all listings")
        return enumerate(listing(table))
    if args.ell is None:
        raise DomainError("need --ell L or --all")
    return [(args.ell, lazy(table, args.ell))]


def _classes(lazy, listing, args, table: ValueTable) -> Output:
    """'ell,t,value' for the class t of each addressed level; CSV streams."""
    rows = _rows(args, table, lazy, listing)
    # each class's text once; --ell formats only its own class
    classes = range(table.T + 1) if args.all else [rows[0][1]]
    texts = {t: table.values[t].text() for t in classes}
    return Output(
        lambda: [{"ell": e, "t": t, "value": texts[t]} for e, t in rows],
        lambda: (f"{e},{t},{texts[t]}" for e, t in rows),
    )


def _cmd_beta(args, table: ValueTable) -> Output:
    values = {}  # "fast" before "brute", as JSON lists them
    if args.fast or not args.brute:
        values["fast"] = beta_fast(table, args.t, args.xi)
    if args.brute:
        values["brute"] = beta_bruteforce(table, args.t, args.xi)
    if args.trace:
        walk = beta_fast_trace(table, args.t, args.xi)
        text = "".join(f"{zeta},{contrib}\n" for zeta, contrib in walk.steps)
        text += f"self,{walk.self_term}\ntotal,{walk.total}\n"
        _write("trace", args.trace, lambda path: Path(path).write_text(text, encoding="utf-8"))
    return Output(
        lambda: {
            "t": args.t,
            "xi": args.xi,
            **{key: str(v) for key, v in values.items()},
            "alpha": str(alpha(table, args.t, args.xi)),
        },
        lambda: [",".join(map(str, values.values()))],
    )


def _levels(lazy, listing, args, table: ValueTable) -> Output:
    """'ell,value' at the addressed levels: fperm and invf."""
    return _pairs(args, _rows(args, table, lazy, listing))


def _cmd_random(args, table: ValueTable) -> Output:
    return _pairs(args, enumerate(random_admissible(table, args.seed).mapping))


def _pairs(args, rows: Iterable[Tuple[int, int]]) -> Output:
    """'ell,value' rows, streamed in CSV; the value alone at a single --ell."""
    single = getattr(args, "ell", None) is not None
    return Output(
        lambda: [[e, v] for e, v in rows],
        lambda: [rows[0][1]] if single else (f"{e},{v}" for e, v in rows),
    )


def _cmd_verify(args, table: ValueTable) -> Output:
    reason = admissibility_failure(table, _perm(args, table))
    if reason is None:
        return Output(lambda: {"admissible": True}, lambda: ["true"])
    return Output(
        lambda: {"admissible": False, "reason": reason},
        lambda: ["false"],
        note=f"not admissible: {reason}",
    )


def _cmd_count(args, table: ValueTable) -> Output:
    count = count_admissible(table)
    # MAX_COUNT_BITS admits about 1.3M digits, past Python's text limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = str(count)
    finally:
        sys.set_int_max_str_digits(limit)
    return Output(lambda: {"count": text}, lambda: [text])


def _cmd_repr(args, table: ValueTable) -> Output:
    rep = representation_from_perm(table, _perm(args, table))
    rows = _decoded_rows(table, rep.mapping)
    model = table.model
    text = {s: model.outcome(s).text() for s in range(1, model.m + 1)}
    return Output(
        lambda: [{"ell": ell, "ranks": list(row)} for ell, row in enumerate(rows)],
        lambda: (
            f"{ell},{i},{s},{text[s]}"
            for ell, row in enumerate(rows)
            for i, s in enumerate(row, start=1)
        ),
    )


def _cmd_clt(args, table: ValueTable) -> Output:
    result = clt_table(table, grid_size=args.grid)
    return Output(
        lambda: {
            "n": result.n,
            "theta": result.theta,
            "sup_distance": result.sup_distance,
            "rows": [
                {"z": r.z, "empirical": r.empirical, "normal": r.reference}
                for r in result.rows
            ],
        },
        lambda: [
            *(f"{r.z:.9g},{r.empirical:.9g},{r.reference:.9g}" for r in result.rows),
            f"sup_distance,{result.sup_distance:.9g},",
        ],
    )


def _cmd_bench(args, model: OutcomeModel) -> Output:
    try:
        n_list = [int(x) for x in args.n_list.split(",") if x.strip()]
    except ValueError:
        raise DomainError(f"--n-list must be comma-separated integers, got {args.n_list!r}")
    result = bench_scaling(
        model, args.model, n_list, samples_per_n=args.samples, seed=args.seed
    )
    show_time = not args.no_timing
    records = [(r, r.wall_time if show_time else 0.0) for r in result.records]
    return Output(
        lambda: {
            "slope": result.slope,
            "records": [
                {"model": r.model_id, "n": r.n, "operation": r.operation,
                 "tau1_queries": str(r.tau1_queries), "bigint_ops": str(r.bigint_ops),
                 "wall_time": wall}
                for r, wall in records
            ],
        },
        lambda: [
            *(f"{r.model_id},{r.n},{r.operation},{r.tau1_queries},{r.bigint_ops},{wall:.6f}"
              for r, wall in records),
            f"slope,{result.slope:.4f}",
        ],
    )


def _cmd_selftest(args, model: OutcomeModel) -> Output:
    report = selftest(model, args.n_max, seed=args.seed)
    results = report.results
    return Output(
        lambda: [
            {"check": r.name, "n": r.n, "checked": r.checked, "passed": r.passed,
             "detail": r.detail}
            for r in results
        ],
        lambda: (
            f"{r.name},{r.n},{r.checked},{'pass' if r.passed else 'FAIL'}" for r in results
        ),
        code=0 if report.ok else 1,
    )


# -- parser -------------------------------------------------------------------


def _opt(*flags, **kwargs):
    return flags, kwargs


# name, help, body, JSON indent, whether it takes --n and the --ell/--all
# group, then its own options; model, bench and selftest get the model,
# every other body the table main builds at --n
_COMMANDS = (
    ("model", "inspect a model file or materialize a builtin", _cmd_model, 2, False, False, (
        _opt("--builtin", choices=("A", "B"), help="use a built-in model"),
        _opt("--out", help="also write the model JSON to this path"),
    )),
    ("table", "dump the value classes: t,value,gamma,smc", _cmd_table, 2, True, False, ()),
    ("step", "istep and sorted value at levels: ell,t,value",
     partial(_classes, istep, _step_classes), 2, True, True, ()),
    ("weight", "iweight and decoded value: ell,t,value",
     partial(_classes, iweight, weight_classes), 2, True, True, ()),
    ("beta", "class count below a cutoff", _cmd_beta, 2, True, False, (
        _opt("--t", type=int, required=True, help="value class"),
        _opt("--xi", type=int, required=True, help="inclusive cutoff"),
        _opt("--fast", action="store_true", help="use the prefix walk"),
        _opt("--brute", action="store_true", help="use the exhaustive scan"),
        _opt("--trace", help="write per-position walk contributions (CSV) here"),
    )),
    ("fperm", "canonical admissible permutation F_n",
     partial(_levels, f_perm, _canonical_mapping), None, True, True, ()),
    ("invf", "inverse of F_n", partial(_levels, inv_f, _canonical_inverse), None, True, True, ()),
    ("verify", "check a permutation file for admissibility", _cmd_verify, None, True, False, (
        _opt("--perm", help="CSV file of 'ell,pi(ell)' rows (default: F_n)"),
    )),
    ("count", "number of admissible permutations", _cmd_count, None, True, False, ()),
    ("random", "seeded uniform admissible permutation", _cmd_random, None, True, False, (
        _opt("--seed", type=int, required=True),
    )),
    ("repr", "representation rows: ell,i,rank,value", _cmd_repr, None, True, False, (
        _opt("--perm", help="CSV permutation file (default: F_n)"),
    )),
    ("clt", "exact cdf against the normal cdf", _cmd_clt, 2, True, False, (
        _opt("--grid", type=int, help="subsample the rows to this many"),
    )),
    ("bench", "query scaling of the lazy F evaluation", _cmd_bench, 2, False, False, (
        _opt("--n-list", required=True, help="comma-separated n values"),
        _opt("--samples", type=int, default=3, help="evaluations per n"),
        _opt("--seed", type=int, default=0),
        _opt("--no-timing", action="store_true",
             help="zero the wall-time column for byte-reproducible output"),
    )),
    ("selftest", "exhaustive invariant suites up to n_max", _cmd_selftest, 2, False, False, (
        _opt("--n-max", type=int, required=True),
        _opt("--seed", type=int, default=0),
    )),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantperm",
        description=(
            "Exact quantile tables, admissible permutations and triangular-array "
            "representations of multinomial partial sums."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, fn, indent, takes_n, takes_levels, options in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        p.add_argument(
            "--model",
            required=name != "model",  # model may take --builtin instead
            help="model JSON file, or builtin:A / builtin:B",
        )
        p.add_argument(
            "--format", choices=("csv", "json"), default="csv", help="output format"
        )
        if takes_n:
            p.add_argument("--n", type=int, required=True, help="sum length n >= 1")
        if takes_levels:
            group = p.add_mutually_exclusive_group()
            group.add_argument("--ell", type=int, help="one level index")
            group.add_argument("--all", action="store_true", help="every level index")
        for flags, kwargs in options:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(fn=fn, indent=indent)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        spec = f"builtin:{args.builtin}" if getattr(args, "builtin", None) else args.model
        if spec is None:
            raise DomainError("model: need --model FILE or --builtin NAME")
        if spec.startswith("builtin:"):
            model = builtin_model(spec.split(":", 1)[1])
        else:
            model = load_model(spec)
        if "n" not in args:  # model, bench and selftest take the model
            out = args.fn(args, model)
        else:
            if getattr(args, "brute", False):  # refused before the build, which takes seconds
                _require_explicit(args.n * (model.M + 1), "brute-force beta scans")
            out = args.fn(args, build_value_table(model, args.n))
        if args.format == "json":
            print(json.dumps(out.json(), indent=args.indent))
        else:
            for line in out.csv():
                print(line)
        if out.note:
            print(out.note, file=sys.stderr)
        return out.code
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
