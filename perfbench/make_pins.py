"""Write pins.json: the expected output of every benchmark op.

Run from the repository root, on the commit whose outputs are the
reference (the pins in the repository come from the code before any
performance work):

    python3 perfbench/make_pins.py

A change that means to alter an output re-pins it here and says so;
a change that claims only speed must leave pins.json as it is.
"""

from __future__ import annotations

import json
import sys

from run import SRC, load_quantperm
from workloads import CLI_STEPS, HAAR_M2, LAZY_N, PINS, cli_argv, run_cli

PINNED_ELL = {"full": 12345678901234567890, "toy": 201}


def pins_for(mods, size: str) -> dict:
    table = mods.multinomial.build_value_table(mods.outcomes.builtin_model("B"), LAZY_N[size])
    ell = PINNED_ELL[size]
    pins = {
        "lazy-w64": {"ell": str(ell), "F": str(mods.permutations.f_perm(table, ell))},
        "cli": {},
    }
    checks = 0
    for sizes in CLI_STEPS.values():
        for step in sizes[size]:
            out = run_cli(mods, cli_argv(step), keep=True)
            if out.code != 0:
                sys.exit(f"{step} exited {out.code}: {out.stderr}")
            pins["cli"][step] = {"sha256": out.sha256, "bytes": out.nbytes}
            if step.startswith("selftest"):
                checks += sum(int(row.split(",")[2]) for row in out.text.splitlines())
    pins["selftest_checks"] = checks
    return pins


def main():
    sys.path.insert(0, str(SRC))
    mods = load_quantperm()
    doc = {"model_file": HAAR_M2.name, **{size: pins_for(mods, size) for size in ("full", "toy")}}
    PINS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
