"""Command-line front end: dominance checks, certificates, Lorenz data, batch reports.

Timeline CSV schema: first column is an entity id, the remaining N columns
are period values with the most recent period first.  A header row is
auto-detected when any cell after the first in the first row is non-numeric.

Inline array literals are comma-separated decimals with no brackets, e.g.
``4,4,4,4``.  Where a command takes an array, an entity id from ``--input``
may be given instead.

The environment variable ``MAJORIZE_EPS`` overrides the default comparison
tolerance; ``--eps`` overrides both.

Exit codes: 0 success (dominated/equal, valid certificate), 1 negative result
(not dominated, invalid certificate, undefined curve), 2 bad input, failed output
or out of memory.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import os
import sys
from typing import Optional, Sequence

from .core import (
    Array,
    DominanceOutcome,
    MajorizeError,
    _dominance_rows,
    as_eps,
    dominates_or_equal,
    generalized_compare,
    make_array,
    plain_number,
)
from .decompose import (
    Certificate,
    MalformedCertificate,
    NotDominated,
    SumsNotEqual,
    TargetNotDecreasing,
    decompose_decreasing,
    decompose_general,
    decompose_transfers,
    random_dominated_pair,
    state_texts,
    verify_certificate,
)
from .lorenz import ZeroTotal, classical_majorizes, gini, lorenz_points

_OUTCOME_SYMBOL = {
    DominanceOutcome.EQUAL: "=",
    DominanceOutcome.LEFT_STRICTLY_BELOW: "≺",   # ≺
    DominanceOutcome.RIGHT_STRICTLY_BELOW: "≻",  # ≻
    DominanceOutcome.INCOMPARABLE: "∥",          # ∥
}


# negative results exit 1; every other MajorizeError is an input error (exit 2)
_NEGATIVE_RESULTS = (NotDominated, TargetNotDecreasing, SumsNotEqual, ZeroTotal)


# ---------------------------------------------------------------------------
# Timeline tables
# ---------------------------------------------------------------------------

def parse_timeline_csv(text: str) -> dict[str, Array]:
    """Entity id -> value row, in file order; column 1 is the most recent period."""
    rows = []
    num = 0
    try:
        for num, row in enumerate(csv.reader(io.StringIO(text)), start=1):
            if "".join(row).strip():  # some cell holds more than whitespace
                rows.append((num, row))
    except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
        raise MajorizeError(f"row {num + 1}: {exc}") from exc
    if not rows:
        raise MajorizeError("empty timeline CSV")

    n_labels: Optional[int] = None
    first_row = rows[0][1]
    # a header is marked by the conventional "id" corner cell or by any
    # non-numeric cell after it (period labels may themselves look numeric)
    is_header = len(first_row) >= 2 and (
        first_row[0].strip().lower() == "id" or any(not _is_number(c) for c in first_row[1:])
    )
    if is_header:
        n_labels = len(first_row) - 1
        rows = rows[1:]
        if not rows:
            raise MajorizeError("timeline CSV has a header but no data rows")

    # Rows are checked once, in file order, so the first bad row is the one named.
    table: dict[str, Array] = {}
    width = len(rows[0][1]) - 1
    for num, row in rows:
        if len(row) < 2:
            raise MajorizeError(f"row {num}: expected an id and at least one value")
        eid = row[0].strip()
        if eid in table:
            raise MajorizeError(f"row {num}: duplicate id {eid!r}")
        if n_labels not in (None, width):  # fails on the first data row or not at all
            raise MajorizeError(f"row {num}: {width} values but {n_labels} period labels")
        if len(row) - 1 != width:
            raise MajorizeError(f"row {num}: {len(row) - 1} values, expected {width}")
        try:
            table[eid] = make_array(row[1:])
        except ValueError as exc:  # float()'s error, or Array's: MajorizeError is a ValueError
            raise MajorizeError(f"row {num}: {exc}") from exc
    return table


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# Operand handling
# ---------------------------------------------------------------------------

def parse_array_literal(token: str) -> Array:
    try:
        return make_array(token.split(","))  # a list: see Array
    except MajorizeError:
        raise
    except ValueError as exc:
        raise MajorizeError(f"cannot parse array literal {token!r}: {exc}") from exc


def _resolve_operand(token: str, table: Optional[dict[str, Array]]) -> Array:
    if table is not None:
        arr = table.get(token)
        if arr is not None:
            return arr
    try:
        return parse_array_literal(token)
    except MajorizeError as exc:
        if table is not None:
            raise MajorizeError(f"{token!r} is neither an entity id nor an array literal: {exc}")
        raise


def _read_file(path: str) -> str:
    try:
        # utf-8-sig drops a byte-order mark that would otherwise start the first cell or the JSON
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MajorizeError(f"cannot read {path}: {exc}") from exc


def _load_table(args) -> Optional[dict[str, Array]]:
    if getattr(args, "input", None) is None:
        return None
    text = _read_file(args.input)
    try:
        return parse_timeline_csv(text)
    except MajorizeError as exc:
        raise MajorizeError(f"{args.input}: {exc}") from exc


def _tolerance(args) -> float:
    eps = args.eps
    if eps is None:
        raw = os.environ.get("MAJORIZE_EPS")
        if raw is not None:
            try:
                eps = float(raw)
            except ValueError:
                raise MajorizeError(f"MAJORIZE_EPS is not a number: {raw!r}") from None
    return as_eps(eps)


def _open_out(path: str):
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise MajorizeError(f"cannot write {path}: {exc}") from exc


def _write_pieces(fh, pieces: list[str]) -> None:
    """Write ``pieces`` to the file ``_open_out`` opened, and close it."""
    try:
        with fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise MajorizeError(f"cannot write {fh.name}: {exc}") from exc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_check(args) -> int:
    tol = _tolerance(args)
    table = _load_table(args)
    left, right = _resolve_operand(args.left, table), _resolve_operand(args.right, table)
    if args.mode == "classical":
        below = classical_majorizes(left, right, tol)
        text = "true" if below else "false"
    else:
        outcome = generalized_compare(left, right, tol)
        below = dominates_or_equal(outcome)
        text = outcome.value
    if args.json:
        print(json.dumps({"mode": args.mode, "verdict": text}))
    else:
        print(text)
    return 0 if below else 1


def _cmd_decompose(args) -> int:
    tol = _tolerance(args)
    table = _load_table(args)
    left, right = _resolve_operand(args.left, table), _resolve_operand(args.right, table)
    produce = {
        "general": decompose_general,
        "decreasing": decompose_decreasing,
        "transfers": decompose_transfers,
    }[args.mode]
    cert = produce(left, right, tol)
    # opened before anything is printed, so that a bad path leaves stdout empty
    with _open_out(args.out) if args.out else contextlib.nullcontext() as out:
        show = _chain_printer() if cert.steps else None
        if out is not None:
            pieces = cert._json_pieces(show)  # each state is formatted once for both outputs
        elif show is not None:
            for texts in state_texts((cert.source, *cert.intermediates), cert.steps):
                show(texts)
        print("already equal" if show is None else "")  # "" ends the printed chain's line
        if out is not None:
            _write_pieces(out, [*pieces, "\n"])
    return 0


def _chain_printer():
    """Print each chain state's texts as it comes, ``(4,4) ≺ (5,3)``, with no joined chain."""
    write = sys.stdout.write
    sep = "("

    def show(texts: list[str]) -> None:
        nonlocal sep
        write(sep + ",".join(texts) + ")")
        sep = " ≺ ("

    return show


def _cmd_verify(args) -> int:
    tol = _tolerance(args)
    text = _read_file(args.cert)
    try:
        cert = Certificate.from_json(text)
    except MalformedCertificate as exc:
        raise MajorizeError(f"{args.cert}: {exc}") from exc
    report = verify_certificate(cert, tol)
    if report.ok:
        print(f"certificate OK ({report.checked_steps} steps checked)")
        return 0
    where = "certificate" if report.step_index is None else f"step {report.step_index}"
    if report.prefix_index is not None:
        where += f", prefix {report.prefix_index}"
    print(f"certificate INVALID: {report.reason.value} at {where}: {report.detail}")
    return 1


def _cmd_lorenz(args) -> int:
    arr = parse_array_literal(args.array)
    points = lorenz_points(arr)
    g = gini(arr)
    if args.format == "json":
        payload = json.dumps({"points": [list(p) for p in points], "gini": g}) + "\n"
    else:
        payload = "abscissa,ordinate\n" + "".join(f"{a!r},{o!r}\n" for a, o in points)
    if args.out:
        _write_pieces(_open_out(args.out), [payload])
    else:
        sys.stdout.write(payload)
    print(f"gini = {plain_number(g)}")
    return 0


def _cmd_batch(args) -> int:
    tol = _tolerance(args)
    table = _load_table(args)
    ids = list(table)
    # generalized_compare is passed from this module, where bench/run.py traces it
    cells = _dominance_rows(list(table.values()), tol, args.mode == "classical",
                            generalized_compare, _OUTCOME_SYMBOL)
    # each row of symbols is joined once per output and let go, so no matrix
    # of strings and no whole-matrix text is ever held; stdout follows --out,
    # so only its lines are kept until the file is closed
    lines = ["\t".join(["id", *ids]) + "\n"]
    out = _open_out(args.out) if args.out else None
    try:
        with out or contextlib.nullcontext():
            if out is not None:
                # json.dumps(report, ensure_ascii=False), with the matrix joined here:
                # json escapes the ids, and the four symbols need no escape
                head = json.dumps({"mode": args.mode, "eps": tol, "ids": ids}, ensure_ascii=False)
                out.write(head[:-1] + ', "matrix": [')
            for a, eid in enumerate(ids):
                row, cells[a] = cells[a], None
                lines.append(eid + "\t" + "\t".join(row) + "\n")
                if out is not None:
                    out.write((', ["' if a else '["') + '", "'.join(row) + '"]')
            if out is not None:
                out.write("]}\n")
    except OSError as exc:
        raise MajorizeError(f"cannot write {args.out}: {exc}") from exc
    sys.stdout.writelines(lines)
    return 0


def _cmd_gen(args) -> int:
    if args.count < 1:
        raise MajorizeError(f"--count must be >= 1, got {args.count}")
    lines = []
    for idx in range(args.count):
        x, y = random_dominated_pair(
            args.seed + idx, args.n, args.k,
            integer_mode=not args.float,
            transfers_only=args.transfers_only,
        )
        left, right = state_texts((x, y))
        lines.append(f"{','.join(left)} {','.join(right)}")
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_pieces(_open_out(args.out), [text])
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose help, unlike argparse's, lets a failed write raise.

    Subparsers are built with the class of their parent, so ``verify --help``
    behaves the same.
    """

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``majorize`` parser, built on the first call and shared after it.

    ``main`` parses every argv with this one parser, so in-process callers
    pay for building it once.  Parsing leaves no state in it; help and
    usage widths follow ``COLUMNS`` when printed.  ``build_parser.__wrapped__()``
    builds a separate parser.
    """
    parser = _Parser(
        prog="majorize",
        description="Dominance checks, step certificates, and Lorenz/Gini data "
                    "for non-negative arrays and timelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_eps(p):
        p.add_argument("--eps", type=float, default=None,
                       help="absolute comparison tolerance (default: MAJORIZE_EPS or 1e-9)")

    p = sub.add_parser("check", help="compare two arrays")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--mode", choices=["general", "classical"], default="general")
    p.add_argument("--input", help="timeline CSV for entity-id operands")
    p.add_argument("--json", action="store_true", help="emit the verdict as JSON")
    add_eps(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("decompose", help="produce a step certificate for a dominated pair")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--mode", choices=["general", "decreasing", "transfers"], default="general")
    p.add_argument("--input", help="timeline CSV for entity-id operands")
    p.add_argument("--out", help="write the certificate JSON to this file")
    add_eps(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("verify", help="verify a certificate file")
    p.add_argument("--cert", required=True, help="certificate JSON file")
    add_eps(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("lorenz", help="emit Lorenz curve points and the Gini index")
    p.add_argument("array")
    p.add_argument("--out", help="write curve points to this file")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_lorenz)

    p = sub.add_parser("batch", help="pairwise dominance matrix for a timeline CSV")
    p.add_argument("--input", required=True, help="timeline CSV")
    p.add_argument("--mode", choices=["general", "classical"], default="general")
    p.add_argument("--out", help="write a JSON report to this file")
    add_eps(p)
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("gen", help="emit random dominated pairs")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="array length")
    p.add_argument("--k", type=int, default=0, help="number of inverse moves")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--float", action="store_true", help="draw float entries instead of integers")
    p.add_argument("--transfers-only", action="store_true",
                   help="restrict inverse moves to transfers (equal totals)")
    p.add_argument("--out", help="write pairs to this file")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # after --help, or a usage error on stderr
            code = int(exc.code or 0)
        else:
            code = args.func(args)
        sys.stdout.flush()  # a full or closed stdout fails here rather than at exit
        return code
    except MajorizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, _NEGATIVE_RESULTS) else 2
    except MemoryError:  # valid input too large to hold: an input error, not a traceback
        print("error: out of memory", file=sys.stderr)
        return 2
    except OSError as exc:  # every file error is a MajorizeError by now, so stdout failed
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        with open(os.devnull, "w") as null:  # so that the flush at exit drops what is left
            os.dup2(null.fileno(), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
