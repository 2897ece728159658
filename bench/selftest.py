#!/usr/bin/env python3
"""Fast self-test of the benchmark at tiny sizes (a few seconds).

    python3 bench/selftest.py

Checks that:

* every workload, untraced and traced, reports exactly the metrics that
  ``BENCHMARK.json`` names, with their units, every end-to-end value above 0,
  and no failed operation on the program as it is;
* a program that gets one batch matrix cell wrong, or whose verifier accepts
  any certificate, drives ``failed`` and ``fail_ratio`` above 0;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  benchmark exits non-zero without printing a result.

Exit code 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3
problems: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def tiny(workload: str, trace: bool) -> dict:
    result = run.execute(workload, SEED, seconds=0.3, trace=trace, preset="tiny")
    json.dumps(result, allow_nan=False)  # the printed line must be plain JSON
    return result


def check_names_and_units() -> None:
    for workload in run.WORKLOADS:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            result = tiny(workload, trace)
            label = f"{workload} --trace {int(trace)}"
            want = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{label}: metric names and units match BENCHMARK.json {group}")
            values = {k: v["value"] for k, v in result["metrics"].items()}
            check(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values()),
                  f"{label}: every value is a finite number")
            if not trace:
                check(all(v > 0 for v in values.values()), f"{label}: every end-to-end value is above 0")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{label}: {result['attempted']} operations, none failed")


@contextmanager
def replaced(owner, attr: str, fake):
    original = getattr(owner, attr)
    setattr(owner, attr, fake(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def one_wrong_cell(compare):
    """Flip the outcome of the cell that compares the tiny table's first row with its second."""
    size = run.WORKLOADS["batch-matrix"].tiny
    rows = run.WORKLOADS["batch-matrix"].build(random.Random(SEED), size).rows
    first, second = (tuple(float(v) for v in row.values) for row in rows[:2])
    core = sys.modules["majorize.core"]

    def wrong(x, y, tol=None):
        outcome = compare(x, y, tol)
        if tuple(x.values) == first and tuple(y.values) == second:
            incomparable = core.DominanceOutcome.INCOMPARABLE
            return core.DominanceOutcome.EQUAL if outcome is incomparable else incomparable
        return outcome

    return wrong


def accept_everything(verify):
    decompose = sys.modules["majorize.decompose"]
    return lambda cert, tol=None: decompose.VerificationReport(True, len(cert.steps))


def check_injected_faults() -> None:
    mj = run.load_program()
    faults = (("one wrong batch cell", mj.cli, "generalized_compare", one_wrong_cell, "batch-matrix"),
              ("a verifier that accepts anything", mj.cli, "verify_certificate", accept_everything,
               "certify-small"))
    for label, owner, attr, fake, workload in faults:
        with replaced(owner, attr, fake):
            plain = tiny(workload, False)
        check(plain["failed"] > 0 and not plain["correct"], f"{label}: counted as failed ({plain['failed']})")
        with replaced(owner, attr, fake):
            traced = tiny(workload, True)
        ratio = traced["metrics"]["fail_ratio"]["value"]
        check(ratio > 0, f"{label}: fail_ratio {ratio:.4f} > 0")


def check_bare_directory() -> None:
    run.OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selftest-bare-", dir=run.OUT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([*SPEC["command"], "--workload", "certify-small", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"without the program: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_names_and_units()
    check_injected_faults()
    check_bare_directory()
    print(f"{len(problems)} problem(s)" if problems else "all checks passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
