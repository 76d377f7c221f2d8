"""End-to-end command-line checks via cli.main(argv).

Golden outputs are asserted byte-for-byte where determinism is part of
the contract (everything except bench wall times).
"""

import ast
import hashlib
import io
import json
import math
import sys
import tempfile
from contextlib import suppress
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import wall_limit
from quantperm import (
    DomainError,
    build_value_table,
    builtin_model,
    cli,
    f_perm,
    inv_f,
    istep,
    iweight,
    load_model,
)
from quantperm.bench import CheckResult
from quantperm.permutations import admissibility_failure


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fperm_all_golden(capsys):
    code, out, err = run(
        capsys, "fperm", "--model", "builtin:A", "--n", "2", "--all"
    )
    assert code == 0 and err == ""
    assert out == "0,3\n1,1\n2,2\n3,0\n"


@pytest.mark.parametrize("name, n", [("A", 6), ("B", 3)])
def test_all_listings_match_the_lazy_rule(capsys, name, n):
    # --all reads the explicit tables, --ell the lazy rule
    table = build_value_table(builtin_model(name), n)
    for command, lazy in (
        ("step", istep), ("weight", iweight), ("fperm", f_perm), ("invf", inv_f)
    ):
        code, out, err = run(
            capsys, command, "--model", f"builtin:{name}", "--n", str(n), "--all"
        )
        assert code == 0 and err == ""
        want = []
        for ell in range(table.num_indices):
            v = lazy(table, ell)
            value = f",{table.values[v].text()}" if lazy in (istep, iweight) else ""
            want.append(f"{ell},{v}{value}")
        assert out.splitlines() == want, command


def test_fperm_single_and_invf(capsys):
    code, out, _ = run(
        capsys, "fperm", "--model", "builtin:A", "--n", "2", "--ell", "0"
    )
    assert code == 0 and out == "3\n"
    code, out, _ = run(
        capsys, "invf", "--model", "builtin:A", "--n", "2", "--ell", "3"
    )
    assert code == 0 and out == "0\n"


def test_fperm_needs_levels(capsys):
    code, _, err = run(capsys, "fperm", "--model", "builtin:A", "--n", "2")
    assert code == 1
    assert "need --ell L or --all" in err


def test_count_golden(capsys):
    code, out, _ = run(capsys, "count", "--model", "builtin:B", "--n", "2")
    assert code == 0 and out == "3456\n"
    code, out, _ = run(capsys, "count", "--model", "builtin:A", "--n", "3")
    assert code == 0 and out == "36\n"


def test_table_golden(capsys):
    code, out, _ = run(capsys, "table", "--model", "builtin:A", "--n", "2")
    assert code == 0
    assert out == "0,-2,1,0\n1,0,2,1\n2,2,1,3\ntotal,,,4\n"


def test_step_weight_single(capsys):
    code, out, _ = run(
        capsys, "step", "--model", "builtin:A", "--n", "2", "--ell", "1"
    )
    assert code == 0 and out == "1,1,0\n"
    code, out, _ = run(
        capsys, "weight", "--model", "builtin:A", "--n", "2", "--ell", "1"
    )
    assert code == 0 and out == "1,1,0\n"


def test_model_csv_golden(capsys):
    code, out, _ = run(capsys, "model", "--builtin", "A")
    assert code == 0
    assert out == (
        "M,0\nm,2\nd,1\nstrict,true\nmean,0\nvariance,1\n"
        "outcome,1,1,-1\noutcome,2,0,1\n"
    )


def test_model_save_and_reload(capsys, tmp_path):
    path = tmp_path / "b.json"
    code, builtin_out, _ = run(capsys, "model", "--builtin", "B", "--out", str(path))
    assert code == 0 and path.exists()
    code, out1, _ = run(capsys, "table", "--model", "builtin:B", "--n", "2")
    code2, out2, _ = run(capsys, "table", "--model", str(path), "--n", "2")
    assert code == 0 and code2 == 0
    assert out1 == out2
    code, reloaded_out, _ = run(capsys, "model", "--model", str(path))
    assert code == 0 and reloaded_out == builtin_out


def test_unwritable_model_out_is_a_domain_error(capsys, tmp_path):
    path = tmp_path / "missing" / "m.json"
    code, out, err = run(capsys, "model", "--builtin", "A", "--out", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "cannot write model file" in err


def test_malformed_model_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\n  nope\n}\n")
    code, out, err = run(capsys, "table", "--model", str(path), "--n", "2")
    assert code == 1 and out == ""
    assert "bad.json:2:" in err


def test_model_file_with_zero_denominator(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(
        json.dumps(
            {
                "M": 0,
                "strict": False,
                "outcomes": [
                    {"pattern": [1], "value": "1/0"},
                    {"pattern": [0], "value": "1"},
                ],
            }
        )
    )
    code, out, err = run(capsys, "table", "--model", str(path), "--n", "2")
    assert code == 1 and out == ""
    assert "error:" in err


MANUAL_A = {
    "M": 0,
    "strict": True,
    "outcomes": [{"pattern": [1], "value": "-1"}, {"pattern": [0], "value": "1"}],
}
HAAR_B = {
    "M": 1,
    "strict": False,
    "haar": {"coeffs": [[0, 0, "2"], [1, 0, "1/2 * sqrt(2)"], [1, 1, "1/2 * sqrt(2)"]]},
}
BAD_INPUTS = {
    "model-not-utf8": ("model", b'{"M": 0, "strict": true, "outcomes": "\xff"}'),
    "perm-not-utf8": ("perm", b"0,3\n1,1\n2,2\n3,\xff\n"),
    "d-not-int": ("model", json.dumps(dict(MANUAL_A, d="x")).encode()),
    "pattern-not-list": (
        "model",
        json.dumps(dict(MANUAL_A, outcomes=[{"pattern": 5, "value": "1"}] * 2)).encode(),
    ),
    "manual-M-huge": ("model", json.dumps(dict(MANUAL_A, M=1_000_000)).encode()),
    # JSON booleans are not integers, though Python's bool is an int
    "M-bool": ("model", json.dumps(dict(HAAR_B, M=True)).encode()),
    "d-bool": ("model", json.dumps(dict(MANUAL_A, d=False)).encode()),
    "pattern-bool": (
        "model",
        json.dumps(
            dict(
                MANUAL_A,
                outcomes=[{"pattern": [True], "value": "-1"}, {"pattern": [False], "value": "1"}],
            )
        ).encode(),
    ),
    "haar-key-bool": (
        "model",
        json.dumps(
            dict(
                HAAR_B,
                haar={"coeffs": [[0, 0, "2"], [True, 0, "1/2 * sqrt(2)"], [1, 1, "1/2 * sqrt(2)"]]},
            )
        ).encode(),
    ),
    # json reads no int literal of more digits than str() prints
    "int-literal-too-long": ("model", b'{"M": ' + b"1" * 5000 + b', "strict": true, "outcomes": []}'),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_model_and_perm_files_are_domain_errors(capsys, tmp_path, time_limit, case):
    kind, data = BAD_INPUTS[case]
    path = tmp_path / "input"
    path.write_bytes(data)
    if kind == "model":
        argv = ["table", "--model", str(path), "--n", "2"]
    else:
        argv = ["verify", "--model", "builtin:A", "--n", "2", "--perm", str(path)]
    with time_limit(1):
        code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:")
    assert kind != "model" or str(path) in err


def test_deeply_nested_model_file_is_a_domain_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "model", "--model", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and str(path) in err
    assert err.count("\n") == 1 and "Traceback" not in err


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=12,
)


def _or_any(valid):
    return st.one_of(valid, json_values)


scalar_texts = _or_any(st.sampled_from(["1", "-1", "1/2", "0", "sqrt(2)", "1/0", "x"]))
model_M = _or_any(st.sampled_from([0, 1, 2, -1, 1_000_000]))
outcome_rows = _or_any(
    st.fixed_dictionaries(
        {
            "pattern": _or_any(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=3)),
            "value": scalar_texts,
        }
    )
)
haar_rows = _or_any(
    st.tuples(st.integers(-1, 2), st.integers(-1, 3), scalar_texts).map(list)
)
model_docs = st.one_of(
    json_values,
    st.fixed_dictionaries(
        {
            "M": model_M,
            "strict": _or_any(st.booleans()),
            "outcomes": _or_any(st.lists(outcome_rows, max_size=5)),
        },
        optional={"d": _or_any(st.sampled_from([1, 2, 3]))},
    ),
    st.fixed_dictionaries(
        {
            "M": model_M,
            "strict": _or_any(st.booleans()),
            "haar": _or_any(
                st.fixed_dictionaries({"coeffs": _or_any(st.lists(haar_rows, max_size=8))})
            ),
        },
        optional={"d": _or_any(st.sampled_from([1, 2, 3]))},
    ),
)
perm_rows = st.lists(
    st.tuples(st.integers(-1, 4), st.integers(-1, 4)).map(lambda r: f"{r[0]},{r[1]}"),
    max_size=5,
).map("\n".join)


@given(
    model=st.one_of(
        model_docs.map(lambda d: json.dumps(d).encode()), st.binary(max_size=40)
    ),
    perm=st.one_of(
        perm_rows.map(str.encode),
        st.text(max_size=20).map(str.encode),
        st.binary(max_size=20),
    ),
)
@settings(max_examples=200, deadline=None)
def test_model_and_perm_files_return_or_raise_domain_error(model, perm):
    table = build_value_table(builtin_model("A"), 2)
    with tempfile.TemporaryDirectory() as tmp:
        model_path, perm_path = Path(tmp) / "model.json", Path(tmp) / "perm.csv"
        model_path.write_bytes(model)
        perm_path.write_bytes(perm)
        with wall_limit(1):
            with suppress(DomainError):
                load_model(str(model_path))
            with suppress(DomainError):
                admissibility_failure(table, cli._load_perm_file(str(perm_path), table))


def test_model_needs_a_model_file_or_a_builtin(capsys):
    code, out, err = run(capsys, "model")
    assert code == 1 and out == ""
    assert err == "error: model: need --model FILE or --builtin NAME\n"


def test_bench_n_list_must_be_integers(capsys):
    code, out, err = run(capsys, "bench", "--model", "builtin:A", "--n-list", "4,x")
    assert code == 1 and out == ""
    assert err == "error: --n-list must be comma-separated integers, got '4,x'\n"


def test_selftest_exits_1_with_a_fail_row(capsys, monkeypatch):
    def failing(table, seed=0):
        return [CheckResult("forced", table.n, 1, False, "broken on purpose")]

    monkeypatch.setattr("quantperm.bench.table_checks", failing)
    code, out, err = run(capsys, "selftest", "--model", "builtin:A", "--n-max", "2")
    assert code == 1 and err == ""
    assert out == "forced,1,1,FAIL\nforced,2,1,FAIL\n"


def test_broken_pipe_exits_0(monkeypatch):
    class ClosedPipe(io.TextIOBase):
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert cli.main(["count", "--model", "builtin:A", "--n", "2"]) == 0


def test_only_main_loads_models_and_reads_the_format():
    # main loads every model, builds every table and prints in the chosen
    # format; no subcommand body or helper does any of these
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    in_main = set(map(id, ast.walk(main)))
    loaders = {"builtin_model", "load_model", "build_value_table"}
    stray = [
        f"cli.py:{node.lineno}"
        for node in ast.walk(tree)
        if id(node) not in in_main
        and (
            (isinstance(node, ast.Attribute) and node.attr == "format")
            or (isinstance(node, ast.Name) and node.id in loaders)
        )
    ]
    assert stray == []


def test_usage_errors_exit_2(capsys):
    code, _, _ = run(capsys, "bogus")
    assert code == 2
    code, _, _ = run(capsys, "fperm", "--model", "builtin:A")  # missing --n
    assert code == 2
    code, _, _ = run(
        capsys, "fperm", "--model", "builtin:A", "--n", "2", "--ell", "1", "--all"
    )
    assert code == 2


def test_beta_fast_brute_and_trace(capsys, tmp_path):
    code, out, _ = run(
        capsys, "beta", "--model", "builtin:B", "--n", "2",
        "--t", "1", "--xi", "11", "--fast", "--brute",
    )
    assert code == 0 and out == "1,1\n"
    trace = tmp_path / "walk.csv"
    code, out, _ = run(
        capsys, "beta", "--model", "builtin:B", "--n", "2",
        "--t", "1", "--xi", "11", "--trace", str(trace),
    )
    assert code == 0 and out == "1\n"
    assert trace.read_text() == "1,0\n3,0\n4,0\nself,1\ntotal,1\n"


def test_unwritable_beta_trace_is_a_domain_error(capsys, tmp_path):
    path = tmp_path / "missing" / "walk.csv"
    code, out, err = run(
        capsys, "beta", "--model", "builtin:B", "--n", "2",
        "--t", "1", "--xi", "11", "--trace", str(path),
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and "cannot write trace file" in err


def test_beta_brute_refused_beyond_explicit_width(capsys, time_limit):
    with time_limit(1):
        code, out, err = run(
            capsys, "beta", "--model", "builtin:B", "--n", "32",
            "--t", "40", "--xi", "12345678901234567890", "--brute",
        )
    assert code == 1 and out == ""
    assert "n(M+1) <= 24" in err


def test_level_listings_refused_beyond_explicit_width(capsys, tmp_path, time_limit):
    perm = tmp_path / "perm.csv"
    perm.write_text("0,0\n", encoding="utf-8")
    common = ("--model", "builtin:A", "--n", "64")
    for argv in (
        ("fperm", *common, "--all"),
        ("invf", *common, "--all"),
        ("step", *common, "--all"),
        ("weight", *common, "--all"),
        ("verify", *common, "--perm", str(perm)),
        ("repr", *common, "--perm", str(perm)),
    ):
        with time_limit(1):
            code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert "n(M+1) <= 24" in err, argv


def test_table_beyond_composition_budget_refused(capsys, time_limit):
    # B at n = 400 has C(403, 3) = 10,866,401 compositions
    with time_limit(1):
        code, out, err = run(capsys, "table", "--model", "builtin:B", "--n", "400")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "MAX_COMPOSITIONS" in err


def test_wide_table_refused_by_width_budget(capsys, time_limit):
    # every coefficient of A at these n is a factorial quotient of
    # thousands of digits; the width budget refuses them before enumeration
    for argv in (
        ("fperm", "--model", "builtin:A", "--n", "100000", "--ell", "5"),
        ("count", "--model", "builtin:A", "--n", "20000"),
    ):
        with time_limit(1):
            code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "MAX_WIDTH" in err


def test_count_past_int_text_limit(capsys):
    # A at n = 12: 9,535 digits, more than Python's default 4,300
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "count", "--model", "builtin:A", "--n", "12")
    assert code == 0 and err == ""
    want = math.prod(math.factorial(math.comb(12, k)) for k in range(13))
    assert len(out) == 9536
    assert out[:50] == str(want // 10**9485)
    assert out[9485:] == str(want % 10**50).zfill(50) + "\n"
    assert sys.get_int_max_str_digits() == limit
    code, out, _ = run(
        capsys, "count", "--model", "builtin:A", "--n", "12", "--format", "json"
    )
    assert code == 0 and len(json.loads(out)["count"]) == 9535


def test_count_beyond_bit_budget_refused(capsys, time_limit):
    # A at n = 64: the product reaches C(64, 32)!, far past any memory
    with time_limit(1):
        code, out, err = run(capsys, "count", "--model", "builtin:A", "--n", "64")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "MAX_COUNT_BITS" in err


def test_beta_json_includes_alpha(capsys):
    code, out, _ = run(
        capsys, "beta", "--model", "builtin:B", "--n", "2",
        "--t", "3", "--xi", "15", "--fast", "--brute", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc == {"t": 3, "xi": 15, "fast": "4", "brute": "4", "alpha": "4"}


def test_verify_default_and_random_round_trip(capsys, tmp_path):
    code, out, err = run(capsys, "verify", "--model", "builtin:B", "--n", "2")
    assert code == 0 and out == "true\n" and err == ""

    code, rand1, _ = run(
        capsys, "random", "--model", "builtin:B", "--n", "2", "--seed", "5"
    )
    code2, rand2, _ = run(
        capsys, "random", "--model", "builtin:B", "--n", "2", "--seed", "5"
    )
    assert code == 0 and code2 == 0 and rand1 == rand2
    path = tmp_path / "perm.csv"
    path.write_text(rand1)
    code, out, err = run(
        capsys, "verify", "--model", "builtin:B", "--n", "2", "--perm", str(path)
    )
    assert code == 0 and out == "true\n" and err == ""


def test_verify_rejects_bad_perm(capsys, tmp_path):
    path = tmp_path / "identity.csv"
    path.write_text("".join(f"{i},{i}\n" for i in range(4)))
    code, out, err = run(
        capsys, "verify", "--model", "builtin:A", "--n", "2", "--perm", str(path)
    )
    assert code == 0 and out == "false\n"
    assert "not admissible" in err


def test_perm_file_diagnostics(capsys, tmp_path):
    path = tmp_path / "perm.csv"
    path.write_text("0,1,2\n")
    code, _, err = run(
        capsys, "verify", "--model", "builtin:A", "--n", "2", "--perm", str(path)
    )
    assert code == 1 and "perm.csv:1:" in err

    path.write_text("0,3\n1,1\n")
    code, _, err = run(
        capsys, "verify", "--model", "builtin:A", "--n", "2", "--perm", str(path)
    )
    assert code == 1 and "expected 4" in err


@pytest.mark.parametrize("image", [4, -1])
def test_perm_file_image_out_of_range(capsys, tmp_path, image):
    # an image outside [0, m^n) is refused at its line, like a bad level
    path = tmp_path / "perm.csv"
    path.write_text(f"0,3\n1,{image}\n2,2\n3,0\n")
    for cmd in ("verify", "repr"):
        code, out, err = run(
            capsys, cmd, "--model", "builtin:A", "--n", "2", "--perm", str(path)
        )
        assert code == 1 and out == "" and "perm.csv:2:" in err


def test_repr_golden(capsys):
    code, out, _ = run(capsys, "repr", "--model", "builtin:A", "--n", "2")
    assert code == 0
    assert out == (
        "0,1,1,-1\n0,2,1,-1\n"
        "1,1,2,1\n1,2,1,-1\n"
        "2,1,1,-1\n2,2,2,1\n"
        "3,1,2,1\n3,2,2,1\n"
    )


def test_clt_output(capsys):
    code, out, _ = run(capsys, "clt", "--model", "builtin:A", "--n", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("-2,")
    assert lines[-1].startswith("sup_distance,0.187")
    code, out, _ = run(
        capsys, "clt", "--model", "builtin:A", "--n", "16", "--grid", "5"
    )
    assert code == 0 and len(out.splitlines()) == 6


@pytest.mark.parametrize(
    "argv",
    [
        ("bench", "--model", "builtin:A", "--n-list", "4,4", "--no-timing"),
        ("clt", "--model", "builtin:A", "--n", "4", "--grid", "-2"),
        ("clt", "--model", "builtin:A", "--n", "4", "--grid", "0"),
    ],
    ids=["bench-equal-n", "clt-grid-negative", "clt-grid-zero"],
)
def test_degenerate_sizes_exit_with_an_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_bench_no_timing_is_reproducible(capsys):
    argv = (
        "bench", "--model", "builtin:A", "--n-list", "2,4",
        "--samples", "2", "--no-timing",
    )
    code, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code == 0 and code2 == 0
    assert out1 == out2
    lines = out1.splitlines()
    assert lines[-1].startswith("slope,")
    assert all(line.endswith(",0.000000") for line in lines[:-1])


def test_selftest_cli(capsys):
    code, out, _ = run(
        capsys, "selftest", "--model", "builtin:A", "--n-max", "3"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines and all(line.endswith(",pass") for line in lines)


def test_json_formats_parse(capsys):
    for argv in (
        ("model", "--builtin", "B", "--format", "json"),
        ("table", "--model", "builtin:B", "--n", "2", "--format", "json"),
        ("fperm", "--model", "builtin:A", "--n", "2", "--all", "--format", "json"),
        ("count", "--model", "builtin:B", "--n", "2", "--format", "json"),
        ("verify", "--model", "builtin:A", "--n", "2", "--format", "json"),
        ("clt", "--model", "builtin:A", "--n", "4", "--format", "json"),
        ("repr", "--model", "builtin:A", "--n", "2", "--format", "json"),
        ("selftest", "--model", "builtin:A", "--n-max", "2", "--format", "json"),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        json.loads(out)
    code, out, _ = run(
        capsys, "count", "--model", "builtin:B", "--n", "2", "--format", "json"
    )
    assert json.loads(out) == {"count": "3456"}
    code, out, _ = run(
        capsys, "fperm", "--model", "builtin:A", "--n", "2", "--all",
        "--format", "json",
    )
    assert json.loads(out) == [[0, 3], [1, 1], [2, 2], [3, 0]]


def test_unknown_builtin(capsys):
    code, _, err = run(capsys, "count", "--model", "builtin:Z", "--n", "2")
    assert code == 1 and "unknown builtin model" in err


def _cli_battery(fn_file, bad_file, broken_file):
    """argv lists over every subcommand: levels by --ell and --all, files
    admissible, inadmissible and malformed, and the width-64 refusals."""
    a3, b2 = ("--model", "builtin:A", "--n", "3"), ("--model", "builtin:B", "--n", "2")
    wide = ("--model", "builtin:A", "--n", "64")
    battery = [
        ("model", "--builtin", "A"),
        ("model", "--model", "builtin:B"),
        ("table", *a3),
        ("table", *b2),
        ("beta", *b2, "--t", "3", "--xi", "15"),
        ("beta", *b2, "--t", "1", "--xi", "11", "--fast", "--brute"),
        ("beta", "--model", "builtin:B", "--n", "32", "--t", "40", "--xi", "7", "--brute"),
        ("verify", *b2),
        ("count", *b2),
        ("count", "--model", "builtin:Z", "--n", "2"),
        ("table", "--model", "builtin:A", "--n", "0"),
        ("random", *a3, "--seed", "3"),
        ("random", *b2, "--seed", "0"),
        ("repr", *a3),
        ("clt", *a3),
        ("clt", "--model", "builtin:A", "--n", "16", "--grid", "4"),
        ("bench", "--model", "builtin:A", "--n-list", "2,4", "--samples", "2", "--no-timing"),
        ("selftest", "--model", "builtin:B", "--n-max", "2"),
    ]
    for command in ("step", "weight", "fperm", "invf"):
        battery += [
            (command, *a3, "--ell", "5"),
            (command, *b2, "--all"),
            (command, *a3, "--ell", "8"),
            (command, *a3),
            (command, *wide, "--all"),
        ]
    for command in ("verify", "repr"):
        battery += [
            (command, *b2, "--perm", fn_file),
            (command, *b2, "--perm", bad_file),
            (command, *b2, "--perm", broken_file),
            (command, *wide, "--perm", fn_file),
        ]
    return [list(argv) + fmt for argv in battery for fmt in ([], ["--format", "json"])]


# SHA-256 of the battery's (argv, exit code, stdout, stderr), recorded before
# the subcommands shared one model load and table build and re-recorded when
# unranks began scanning each chunk from the nearer end of its block, which
# moved only the bigint_ops column of bench's fperm rows
CLI_DIGEST = "e248625168c308f3b3fac96b39bd91753bbcc4edfdce64852c7d5c700d3aa8fd"


def test_cli_outputs_pinned(capsys, tmp_path):
    table = build_value_table(builtin_model("B"), 2)
    files = {"fn.csv": [f_perm(table, ell) for ell in range(table.num_indices)]}
    files["bad.csv"] = list(range(table.num_indices))
    for name, images in files.items():
        (tmp_path / name).write_text("".join(f"{e},{v}\n" for e, v in enumerate(images)))
    (tmp_path / "broken.csv").write_text("0,3\n1,x\n")
    paths = [str(tmp_path / name) for name in ("fn.csv", "bad.csv", "broken.csv")]
    record = []
    for argv in _cli_battery(*paths):
        code, out, err = run(capsys, *argv)
        record.append(
            [[a.replace(str(tmp_path), "{tmp}") for a in argv], code, out,
             err.replace(str(tmp_path), "{tmp}")]
        )
    digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()
    assert digest == CLI_DIGEST
