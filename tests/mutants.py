#!/usr/bin/env python3
"""The mutant catalogue: each entry breaks one rule of ``src/``, and named tests must catch it.

    python tests/mutants.py              # the unmutated run, then every mutant
    python tests/mutants.py NAME ...     # the unmutated run, then only these

Each entry names a file under ``src/``, a source fragment that must occur
there exactly once, its replacement, and the test node ids that must kill
it.  The runner copies ``src/``, ``tests/`` and ``pyproject.toml`` into a
temporary directory and runs pytest there, with ``PYTHONPATH`` on the copy
of ``src/``, a fixed ``--hypothesis-seed`` and no cache, so that nothing is
written into the repository.  The unmutated copy must pass every named id;
then each mutant is applied to a fresh copy of its own, ``WORKERS`` at a
time, and every id it names must fail.  A refactor that removes a fragment
updates or retires its entry.

Standard library only; pytest does not collect this file.  Exit code 0 when
the unmutated run passes and every mutant is killed, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
WORKERS = 2  # pytest runs at a time, one per mutant, each on its own copy


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    fragment: str
    replacement: str
    kills: tuple[str, ...]  # pytest node ids, each of which must fail


_CORE = "src/majorize/core.py"
_DECOMPOSE = "src/majorize/decompose.py"
_LORENZ = "src/majorize/lorenz.py"
_FLOAT_ARRAY = "tests/test_core.py::test_float_array_is_array_for_float_tuples"
_DECODER = "tests/test_decompose.py::test_from_json_decodes_what_the_per_row_decoder_decodes"
_PACKED = ("tests/test_core.py::test_packed_compare_matches_the_python_loop_on_wide_range_floats",
           "tests/test_core.py::test_general_matrix_matches_the_python_loop_on_wide_range_floats")

CATALOGUE = [
    # a derived state's total is its one check; an impact step never makes a component negative
    Mutant("float-array-no-total", _CORE,
           "    if vals and sum(vals) < _SAFE_TOTAL:\n", "    if vals:\n",
           (_FLOAT_ARRAY,)),
    Mutant("apply-step-no-clamp", _CORE,
           "vals[step.j - 1] = rest if rest > 0.0 else 0.0", "vals[step.j - 1] = rest",
           (_FLOAT_ARRAY, "tests/test_core.py::test_transfer_within_tolerance_clamps_to_zero")),
    # the decoder's plain path: only a list of floats, in a text with no minus sign or boolean
    Mutant("plain-path-any-row", _DECOMPOSE,
           "    if plain and type(value) is list:\n", "    if plain:\n",
           (_DECODER,)),
    Mutant("plain-always-false", _DECOMPOSE,
           "plain = not (memo.signed() or _may_hold_booleans(text))", "plain = False",
           ("tests/test_decompose.py::test_honest_rows_are_decoded_without_make_array",)),
    Mutant("plain-always-true", _DECOMPOSE,
           "plain = not (memo.signed() or _may_hold_booleans(text))", "plain = True",
           (_DECODER,)),
    # generalized_compare by big-int subtraction of packed sums
    Mutant("ceilings-without-guard-bits", _CORE,
           '(eps, ceilings | h)', '(eps, ceilings)',
           _PACKED),
    Mutant("sums-keep-sign-bits", _CORE,
           "return (int.from_bytes(self._sums.tobytes(), sys.byteorder) | h) ^ h",
           "return int.from_bytes(self._sums.tobytes(), sys.byteorder)",
           _PACKED),
    Mutant("sign-bits-one-field-short", _CORE,
           "    h = _sign_bits(len(x.values))\n", "    h = _sign_bits(len(x.values) - 1)\n",
           _PACKED),
    Mutant("left-right-swapped", _CORE,
           "    return OUTCOME[left, right]\n", "    return OUTCOME[right, left]\n",
           _PACKED),
    Mutant("guard-memo-ignores-eps", _CORE,
           "        if memo is None or memo[0] != eps:\n", "        if memo is None:\n",
           ("tests/test_core.py::test_compare_tolerance_treats_small_gaps_as_equal",)),
    # the verifier: bounds, strictness and the windows of PR 24
    Mutant("target-bound-lt", _DECOMPOSE,  # ``lt`` for ``le``, written as ``gt`` with the operands swapped
           "        if not all(map(le, after, islice(ceiling, lo, None))):\n",
           "        if not all(map(gt, islice(ceiling, lo, None), after)):\n",
           ("tests/test_decompose.py::test_general_golden_mixed_cases",)),
    Mutant("strictness-ge", _DECOMPOSE,  # ``ge`` for ``gt``, written as ``le`` with the operands swapped
           "any(map(gt, after, map(add, islice(sums, lo, None), repeat(eps))))",
           "any(map(le, map(add, islice(sums, lo, None), repeat(eps)), after))",
           ("tests/test_decompose.py::test_verify_flags_non_strict_chain",)),
    Mutant("step-zero-by-window", _DECOMPOSE,
           "        if t == 0 or isinstance(step, SortDesc):\n", "        if isinstance(step, SortDesc):\n",
           ("tests/test_cli.py::test_verify_checks_step_zero_against_the_target_from_prefix_one",)),
    Mutant("no-sum-fell-one-late", _DECOMPOSE,
           "        below = all(map(le, islice(sums, low, stop),\n"
           "                        map(add, islice(after, low - lo, None), repeat(eps))))\n",
           "        below = all(map(le, islice(sums, low + 1, stop),\n"
           "                        map(add, islice(after, low - lo + 1, None), repeat(eps))))\n",
           ("tests/test_decompose.py::test_verifier_names_a_fall_past_a_meeting_of_the_sums",)),
    Mutant("window-stops-at-j", _DECOMPOSE,
           "            if low < n and after[-1] != sums[low]:\n", "            if False:\n",
           ("tests/test_decompose.py::test_verifier_checks_past_a_transfer_whose_sums_have_not_met",)),
    Mutant("meeting-one-early", _DECOMPOSE,
           "count(low), map(eq, rest", "count(low - 1), map(eq, rest",
           ("tests/test_decompose.py::test_verifier_reports_what_the_pairwise_verifier_reports",)),
    # the producer
    Mutant("deficit-only-transfer", _DECOMPOSE,
           "            step = Transfer(i + 1, j + 1, d if d < c else c)\n",
           "            step = Transfer(i + 1, j + 1, d)\n",
           ("tests/test_acceptance.py::test_acceptance_01_decreasing_golden_chain",)),
    # the classical batch kernel of PR 25
    Mutant("classical-scan-ge", _CORE,
           "not any(map(gt, pa, ceilings[b]))", "not any(map(ge, pa, ceilings[b]))",
           ("tests/test_golden_batch.py::test_batch_output_digest[chained-classical]",)),
    Mutant("classical-mirror-not-flipped", _CORE,
           "    verdict_pair = {key: pair[outcome] for key, outcome in OUTCOME.items()}\n",
           "    verdict_pair = {key: (cells[outcome],) * 2 for key, outcome in OUTCOME.items()}\n",
           ("tests/test_cli.py::test_batch_classical_mode",)),
    Mutant("classical-row-against-own-ceilings", _CORE,
           "not any(map(gt, sums[b], ca))", "not any(map(gt, sums[b], ceilings[b]))",
           ("tests/test_cli.py::test_batch_classical_mode",)),
    Mutant("classical-ceilings-ignore-eps", _CORE,
           "    ceilings = sums if eps == 0.0 else [None] * m\n", "    ceilings = sums\n",
           ("tests/test_golden_batch.py::test_batch_output_digest[gaps-classical]",)),
    Mutant("classical-b-ceilings-from-a", _CORE,
           "                ceilings[b] = list(map(eps.__add__, sums[b]))\n",
           "                ceilings[b] = list(map(eps.__add__, pa))\n",
           ("tests/test_cli.py::test_batch_matches_per_cell_comparisons[totals-at-eps]",)),
    Mutant("classical-difference-test", _LORENZ,  # classical_majorizes, which the kernel must match
           "        if sx > sy + eps:\n", "        if sx - sy > eps:\n",
           ("tests/test_core.py::test_dominance_matrix_matches_per_cell_comparisons",)),
]


def _outcomes(output: str, ids: tuple[str, ...]) -> dict[str, set[str]]:
    """The statuses (``PASSED``, ``FAILED`` ...) that ``pytest -rA`` reports for each id's cases."""
    found: dict[str, set[str]] = {node: set() for node in ids}
    for line in output.splitlines():
        status, _, rest = line.partition(" ")
        for node in ids:
            if rest == node or rest.startswith((node + "[", node + " - ")):
                found[node].add(status)
    return found


def _pytest(copy: Path, ids: tuple[str, ...]) -> tuple[int, dict[str, set[str]], str]:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
         f"--hypothesis-seed={SEED}", *ids],
        cwd=copy, env=env, capture_output=True, text=True)
    return proc.returncode, _outcomes(proc.stdout, ids), proc.stdout + proc.stderr


def _tail(output: str, lines: int = 15) -> str:
    return "\n".join("    " + line for line in output.splitlines()[-lines:])


def _copy(dest: Path) -> Path:
    """``dest`` with copies of ``src/``, ``tests/`` and ``pyproject.toml``."""
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")
    return dest


def _kill(m: Mutant, tmp: str) -> tuple[bool, str]:
    """Whether every id of ``m`` fails on a fresh copy with ``m`` applied, and the report."""
    original = (ROOT / m.path).read_text(encoding="utf-8")
    if original.count(m.fragment) != 1:
        return False, (f"FAIL {m.name}: the fragment occurs {original.count(m.fragment)} times "
                       f"in {m.path}, not once")
    copy = _copy(Path(tempfile.mkdtemp(dir=tmp)))
    (copy / m.path).write_text(original.replace(m.fragment, m.replacement), encoding="utf-8")
    start = time.perf_counter()
    code, found, output = _pytest(copy, m.kills)
    survivors = [node for node, statuses in found.items() if "FAILED" not in statuses]
    killed = code == 1 and not survivors
    report = (f"{'ok  ' if killed else 'FAIL'} {m.name}: "
              + (f"killed by {len(m.kills)} ids" if killed
                 else f"pytest exit {code}, not failed: {', '.join(survivors) or '-'}")
              + f" ({time.perf_counter() - start:.1f} s)")
    return killed, report if killed else report + "\n" + _tail(output)


def main(argv: list[str]) -> int:
    by_name = {m.name: m for m in CATALOGUE}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}; known: {', '.join(by_name)}")
        return 1
    chosen = [by_name[name] for name in argv] if argv else CATALOGUE
    ok = True
    with tempfile.TemporaryDirectory(prefix="majorize-mutants-") as tmp:
        ids = tuple(dict.fromkeys(node for m in chosen for node in m.kills))
        start = time.perf_counter()
        code, found, output = _pytest(_copy(Path(tmp) / "unmutated"), ids)
        passed = code == 0 and all(statuses == {"PASSED"} for statuses in found.values())
        print(f"{'ok  ' if passed else 'FAIL'} unmutated: {len(ids)} ids pass "
              f"({time.perf_counter() - start:.1f} s)", flush=True)
        if not passed:
            print(_tail(output))
            return 1
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            for killed, report in pool.map(lambda m: _kill(m, tmp), chosen):
                print(report, flush=True)
                ok = ok and killed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
