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
then each mutant in turn is applied to the copy of its file, which is
restored after its run, and every id it names must fail.  A refactor that
removes a fragment updates or retires its entry.

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
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SEED = 0


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    fragment: str
    replacement: str
    kills: tuple[str, ...]  # pytest node ids, each of which must fail


_CORE = "src/majorize/core.py"
_DECOMPOSE = "src/majorize/decompose.py"
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
           "        if plain and type(row) is list:\n", "        if plain:\n",
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


def main(argv: list[str]) -> int:
    by_name = {m.name: m for m in CATALOGUE}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}; known: {', '.join(by_name)}")
        return 1
    chosen = [by_name[name] for name in argv] if argv else CATALOGUE
    ok = True
    with tempfile.TemporaryDirectory(prefix="majorize-mutants-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")

        ids = tuple(dict.fromkeys(node for m in chosen for node in m.kills))
        start = time.perf_counter()
        code, found, output = _pytest(copy, ids)
        passed = code == 0 and all(statuses == {"PASSED"} for statuses in found.values())
        print(f"{'ok  ' if passed else 'FAIL'} unmutated: {len(ids)} ids pass "
              f"({time.perf_counter() - start:.1f} s)")
        if not passed:
            print(_tail(output))
            return 1

        for m in chosen:
            target = copy / m.path
            original = (ROOT / m.path).read_text(encoding="utf-8")
            if original.count(m.fragment) != 1:
                print(f"FAIL {m.name}: the fragment occurs {original.count(m.fragment)} times "
                      f"in {m.path}, not once")
                ok = False
                continue
            target.write_text(original.replace(m.fragment, m.replacement), encoding="utf-8")
            start = time.perf_counter()
            try:
                code, found, output = _pytest(copy, m.kills)
            finally:
                target.write_text(original, encoding="utf-8")
            survivors = [node for node, statuses in found.items() if "FAILED" not in statuses]
            killed = code == 1 and not survivors
            print(f"{'ok  ' if killed else 'FAIL'} {m.name}: "
                  + (f"killed by {len(m.kills)} ids" if killed
                     else f"pytest exit {code}, not failed: {', '.join(survivors) or '-'}")
                  + f" ({time.perf_counter() - start:.1f} s)")
            if not killed:
                print(_tail(output))
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
