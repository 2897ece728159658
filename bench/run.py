#!/usr/bin/env python3
"""Benchmark of the majorize command line, end to end and per module.

Usage, from the root of a majorize checkout:

    python3 bench/run.py --workload certify-large --seed 1 --seconds 36 --trace 0

``python3 bench/selftest.py`` checks the benchmark itself at tiny sizes in seconds.

One process runs one workload on one thread.  It builds the workload's inputs
from ``--seed``, drives the program through in-process ``majorize.cli.main``
calls (stdout to ``os.devnull``, files in a scratch directory under
``.bench_out/``) and checks every output against the references in
``oracle.py`` outside the timed region.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end metrics.
Each command's time is scaled to a reference speed: ``reference.py`` times a
fixed task interleaved through the run, which gauges how fast the shared
machine ran around that command; stderr shows the unscaled values too.
``--trace 1`` runs a fixed list of commands twice, untraced and then traced
(spans around the calls into ``core``, ``decompose``, ``lorenz`` and ``cli``),
adds a scaling sweep over n, writes the spans to ``.bench_out/`` and reports
the per-layer metrics.  End-to-end numbers never come from a traced run.

Every workload runs every command, so that each metric exists on each
workload; what differs is the input shape and the share of time:

* certify-large: long pairs through decompose -> verify -> tampered verify,
  where the O(n * steps) layers dominate.
* certify-small: the same commands on many short pairs, where fixed
  per-command cost dominates.
* batch-matrix: a wide grouped timeline table through batch and lorenz; its
  certificates are short pairs named by entity id, so their cost is mostly
  loading the table.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import inputs
import oracle
import reference
from inputs import Pair, Row
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

FLOAT_EPS = 1e-9  # the CLI default, passed explicitly so MAJORIZE_EPS cannot change it
SETUP_REPS = 5
REFERENCE_SHARE = 0.08  # of the measured time, spent on the reference task
REFERENCE_PER_SETUP = 10  # reference task runs before and after each set-up
REFERENCE_BURST = 8  # reference task runs before and after each batch command

# From the untraced run: latency percentiles (Harrell-Davis) over every command of a kind
# ("reject" is verify on a tampered certificate), certified pairs per second
# of certify-command time, median batch command time, median certificate
# bytes, peak RSS, and the median of SETUP_REPS set-ups (fresh-interpreter
# import, inputs, files, warm-up).  Every workload reports all of them.
# Each command's time, and each set-up's, is scaled to the reference speed
# at the moment it ran (see reference.py).
END_TO_END = {
    "setup_s": "s",
    "decompose_p50_ms": "ms",
    "decompose_p99_ms": "ms",
    "verify_p50_ms": "ms",
    "verify_p99_ms": "ms",
    "reject_p50_ms": "ms",
    "certify_pairs_per_s": "1/s",
    "batch_general_s": "s",
    "batch_classical_s": "s",
    "lorenz_p50_ms": "ms",
    "cert_bytes_p50": "bytes",
    "peak_rss_mb": "MB",
}

# From the traced pass of a --trace 1 run, over its fixed command list: ``_s``
# metrics are self seconds (span time minus child spans) summed over the pass,
# so ``cli.self_s`` is the CLI outside the library (argparse, chain printing,
# file I/O) and ``decompose.replay_s`` the verifier's step replay; counts come
# from spans and certificates; ``_n_exp`` are log-log slopes of the sweep.
PER_LAYER = {
    "cli.parse_literal_s": "s",
    "cli.parse_csv_s": "s",
    "cli.self_s": "s",
    "core.make_array_s": "s",
    "core.arrays_built": "count",
    "core.compare_s": "s",
    "core.compare_calls": "count",
    "core.comparable_ratio": "ratio",
    "decompose.general_s": "s",
    "decompose.decreasing_s": "s",
    "decompose.transfers_s": "s",
    "decompose.replay_s": "s",
    "decompose.steps": "count",
    "decompose.transfer_steps": "count",
    "decompose.increase_steps": "count",
    "decompose.sort_steps": "count",
    "decompose.steps_per_n": "steps/n",
    "decompose.encode_s": "s",
    "decompose.cert_bytes": "bytes",
    "decompose.decode_s": "s",
    "decompose.verify_s": "s",
    "decompose.verify_reject_s": "s",
    "decompose.mutants_rejected_ratio": "ratio",
    "lorenz.classical_s": "s",
    "lorenz.classical_calls": "count",
    "lorenz.points_s": "s",
    "lorenz.gini_s": "s",
    "decompose.general_n_exp": "slope",
    "decompose.decreasing_n_exp": "slope",
    "decompose.verify_n_exp": "slope",
    "decompose.encode_n_exp": "slope",
    "trace.overhead_ratio": "ratio",
    "fail_ratio": "ratio",
}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    pairs: list[Pair]
    round_size: int  # consecutive pairs that hold the workload's mode mix once
    rows: list[Row]  # the timeline table for batch, lorenz and entity-id operands
    batch_eps: float
    lorenz: list[tuple[Row, str]] = field(init=False)  # rows with a positive total, with literals

    def __post_init__(self):
        self.lorenz = [(row, inputs.literal(row.values)) for row in self.rows if sum(row.values) > 0]


@dataclass(frozen=True)
class Workload:
    build: Callable[[random.Random, dict], Inputs]
    shares: tuple[float, float, float]  # of --seconds for certify, batch, lorenz
    full: dict
    tiny: dict


# general-int twice: general and transfers pairs of equal n cost about the
# same, and as 3 of 5 pairs they put the latency median in the middle of
# their cluster rather than at the edge between two clusters
LITERAL_ROUND = ("general-int", "general-float", "transfers-int", "decreasing-int", "general-int")
TABLE_ROUND = ("general", "transfers", "decreasing", "general")


def build_certify_large(rng: random.Random, size: dict) -> Inputs:
    n = size["n"]
    pairs = [inputs.literal_pair(rng, kind, n // 2 if kind.startswith("decreasing") else n, FLOAT_EPS)
             for _ in range(size["rounds"]) for kind in LITERAL_ROUND]
    long = [p for p in pairs if len(p.x) == n][: size["table_pairs"]]
    return Inputs(pairs, len(LITERAL_ROUND), inputs.table_from_pairs(long), FLOAT_EPS)


def build_certify_small(rng: random.Random, size: dict) -> Inputs:
    lo, hi = size["n"]
    count = size["rounds"] * len(LITERAL_ROUND)
    # each block of hi - lo + 1 pairs holds every length once, in seeded
    # order, so seeds change the arrays but not the mix of lengths
    lengths: list[int] = []
    while len(lengths) < count:
        block = list(range(lo, hi + 1))
        rng.shuffle(block)
        lengths += block
    pairs = [inputs.literal_pair(rng, LITERAL_ROUND[i % len(LITERAL_ROUND)], n, FLOAT_EPS)
             for i, n in enumerate(lengths[:count])]
    rows = inputs.table_from_pairs(pairs[: size["table_pairs"]], width=hi)
    return Inputs(pairs, len(LITERAL_ROUND), rows, FLOAT_EPS)


def build_batch_matrix(rng: random.Random, size: dict) -> Inputs:
    rows, membership = inputs.grouped_table(rng, size["groups"], size["group_size"], size["n"],
                                            size["moves"])
    pairs = inputs.table_pairs(rng, rows, membership, size["rounds"] * len(TABLE_ROUND), TABLE_ROUND)
    return Inputs(pairs, len(TABLE_ROUND), rows, 0.0)


# ``trace`` is the fixed command list of a traced run: certify rounds, batch
# rounds (general + classical) and lorenz commands.
WORKLOADS = {
    "certify-large": Workload(
        build_certify_large, (0.8, 0.12, 0.08),
        full=dict(n=160, rounds=40, table_pairs=12, trace=(2, 1, 24), sweep=(100, 300, 1000)),
        tiny=dict(n=24, rounds=2, table_pairs=3, trace=(1, 1, 3), sweep=(8, 16, 32)),
    ),
    "certify-small": Workload(
        build_certify_small, (0.7, 0.22, 0.08),
        full=dict(n=(4, 64), rounds=400, table_pairs=32, trace=(40, 1, 64), sweep=(100, 300, 1000)),
        tiny=dict(n=(4, 12), rounds=3, table_pairs=4, trace=(2, 1, 4), sweep=(8, 16, 32)),
    ),
    "batch-matrix": Workload(
        build_batch_matrix, (0.5, 0.38, 0.12),
        full=dict(groups=20, group_size=20, n=36, moves=3, rounds=100, trace=(10, 1, 100),
                  sweep=(100, 300, 1000)),
        tiny=dict(groups=3, group_size=4, n=8, moves=2, rounds=2, trace=(1, 1, 4), sweep=(8, 16, 32)),
    ),
}


# ---------------------------------------------------------------------------
# Driving the CLI
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    """What one pass did: latencies by command kind and certificate statistics."""

    spans: dict[str, list[tuple[float, float]]] = field(default_factory=dict)  # (start, end) by kind
    pairs: int = 0
    cert_bytes: list[int] = field(default_factory=list)
    cert_n: int = 0
    steps: dict[str, int] = field(default_factory=lambda: {"transfer": 0, "increase": 0, "sort_desc": 0})
    tampered: int = 0
    rejected: int = 0

    def add(self, kind: str, start: float, end: float) -> None:
        self.spans.setdefault(kind, []).append((start, end))

    def latencies(self, gauge: Optional[reference.Gauge] = None) -> dict[str, list[float]]:
        """Seconds by kind; with a ``gauge``, each scaled to the reference speed when it ran."""
        return {kind: [(end - start) * (gauge.speed(start, end) if gauge else 1.0) for start, end in spans]
                for kind, spans in self.spans.items()}

    def command_seconds(self) -> float:
        return sum(end - start for spans in self.spans.values() for start, end in spans)


class Session:
    """One workload run: its inputs on disk, the CLI, and the pass/fail tally."""

    def __init__(self, mj, workdir: Path, inp: Inputs, seed: int):
        self.mj = mj
        self.dir = workdir
        self.inp = inp
        self.table = workdir / "table.csv"
        self.tamper_rng = random.Random(f"{seed}:tamper")
        self.sweep_rng = random.Random(f"{seed}:sweep")
        self.devnull = open(os.devnull, "w", encoding="utf-8")
        self.tracer: Optional[Tracer] = None
        self.tally = Tally()
        self.expected: dict[str, list[list[str]]] = {}
        self.gauge = reference.Gauge()
        self.setups: list[tuple[float, float]] = []  # (start, end) of each set-up
        self.attempted = 0
        self.failed = 0

    def close(self) -> None:
        self.devnull.close()

    def expect(self, what: str, problem: Optional[str]) -> bool:
        """Count one checked operation; ``problem`` is None when it was right."""
        self.attempted += 1
        if problem:
            self.failed += 1
            if self.failed <= 20:
                print(f"bench: FAIL {what}: {problem}", file=sys.stderr)
        return not problem

    def run(self, kind: str, argv: list[str]) -> tuple[object, str]:
        """One timed ``majorize`` command: (exit code or exception text, stderr)."""
        err = io.StringIO()
        main = self.mj.cli.main
        with contextlib.redirect_stdout(self.devnull), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                if self.tracer is None:
                    rc = main(argv)
                else:
                    with self.tracer.request(kind):
                        rc = main(argv)
            except Exception as exc:  # a crash fails this operation, not the run
                rc = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
        self.tally.add(kind, t0, t1)
        return rc, err.getvalue().strip()

    # -- operations ----------------------------------------------------------

    def certify(self, pair: Pair) -> None:
        tally = self.tally
        cert, bad = self.dir / "cert.json", self.dir / "tampered.json"
        eps = ["--eps", repr(pair.eps)]
        argv = ["decompose", pair.left, pair.right, "--mode", pair.mode, "--out", str(cert), *eps]
        if pair.by_id:
            argv += ["--input", str(self.table)]
        rc, err = self.run("decompose", argv)
        what = f"decompose --mode {pair.mode} n={len(pair.x)}"
        if not self.expect(what, None if rc == 0 else f"exit {rc!r}: {err}"):
            return
        raw = cert.read_bytes()
        data = json.loads(raw)
        if not self.expect(what, oracle.certificate_problem(data, pair.mode, pair.x, pair.y, pair.eps)):
            return
        tally.cert_bytes.append(len(raw))
        tally.cert_n += len(pair.x)
        for kind, count in oracle.step_counts(data).items():
            tally.steps[kind] += count

        rc, err = self.run("verify", ["verify", "--cert", str(cert), *eps])
        self.expect("verify", None if rc == 0 else f"honest certificate: exit {rc!r}: {err}")

        mutated, how = oracle.tamper(data, self.tamper_rng)
        bad.write_text(json.dumps(mutated), encoding="utf-8")
        rc, err = self.run("reject", ["verify", "--cert", str(bad), *eps])
        tally.tampered += 1
        tally.rejected += rc == 1
        self.expect("verify tampered", None if rc == 1 else f"{how}: exit {rc!r}: {err}")
        tally.pairs += 1

    def batch(self, mode: str) -> None:
        report = self.dir / f"batch-{mode}.json"
        rc, err = self.run(f"batch_{mode}", [
            "batch", "--input", str(self.table), "--mode", mode,
            "--eps", repr(self.inp.batch_eps), "--out", str(report)])
        problem = f"exit {rc!r}: {err}" if rc != 0 else oracle.batch_problem(
            json.loads(report.read_text(encoding="utf-8")), self.inp.rows, self.expected[mode])
        self.expect(f"batch --mode {mode}", problem)

    def lorenz(self, row: Row, literal: str) -> None:
        out = self.dir / "lorenz.json"
        rc, err = self.run("lorenz", ["lorenz", literal, "--format", "json", "--out", str(out)])
        problem = f"exit {rc!r}: {err}" if rc != 0 else oracle.lorenz_problem(
            json.loads(out.read_text(encoding="utf-8")), row.values)
        self.expect(f"lorenz {row.entity}", problem)

    # -- steps of the three activities ---------------------------------------

    def certify_step(self, i: int) -> None:
        self.certify(self.inp.pairs[i % len(self.inp.pairs)])

    def batch_step(self, i: int) -> None:
        # a batch command runs for a second or more, longer than the machine
        # keeps one speed: gauge it right before and right after each one
        for mode in ("general", "classical"):
            self.gauge_burst()
            self.batch(mode)
        self.gauge_burst()

    def gauge_burst(self) -> None:
        for _ in range(REFERENCE_BURST):
            self.gauge.sample()

    def lorenz_step(self, i: int) -> None:
        self.lorenz(*self.inp.lorenz[i % len(self.inp.lorenz)])

    def reference_step(self, i: int) -> None:
        self.gauge.sample()


def interleave(activities: list[tuple[Callable[[int], None], float, int]], seconds: float) -> None:
    """Run ``(step, share, minimum)`` activities for ``seconds``, each for its share of the time.

    Each next step goes to the activity furthest below its share, so the
    samples of every activity spread over the whole run: a slow spell of a
    shared machine then hits all metrics alike instead of one phase.  After
    the deadline, activities below their minimum step count are topped up.
    """
    spent = [0.0] * len(activities)
    done = [0] * len(activities)
    end = time.perf_counter() + seconds
    while True:
        if time.perf_counter() < end:
            i = min(range(len(activities)), key=lambda k: spent[k] / activities[k][1])
        else:
            short = [k for k, (_, _, minimum) in enumerate(activities) if done[k] < minimum]
            if not short:
                return
            i = short[0]
        t0 = time.perf_counter()
        activities[i][0](done[i])
        spent[i] += time.perf_counter() - t0
        done[i] += 1


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

WARM_TABLE = "id,t1,t2,t3,t4\na,1,2,3,0\nb,4,1,1,0\nc,3,2,1,0\n"
WARM_COMMANDS = [
    ["decompose", "a", "b", "--mode", "general"],
    ["decompose", "a", "b", "--mode", "transfers"],
    ["decompose", "c", "b", "--mode", "decreasing"],
    ["batch", "--mode", "general"],
    ["batch", "--mode", "classical"],
    ["lorenz", "1,2,3,0", "--format", "json"],
]


def load_program():
    """Import majorize from this checkout's ``src``; exit non-zero when it is not there."""
    init = SRC / "majorize" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: {init} not found; run from the root of a majorize checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import majorize
    import majorize.cli
    if Path(majorize.__file__).resolve().parent != init.parent.resolve():
        sys.exit(f"bench: imported majorize from {majorize.__file__}, not from {init.parent}")
    return majorize


def import_seconds() -> float:
    """Time to import ``majorize.cli`` in a fresh interpreter, which every CLI run pays."""
    code = "import time; t = time.perf_counter(); import majorize.cli; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def set_up(mj, workload: Workload, size: dict, seed: int, workdir: Path) -> Session:
    """Import, build inputs, write files and warm every command up, ``SETUP_REPS`` times.

    Returns the last session, holding every set-up's times and the reference
    task runs around them.
    """
    gauge = reference.Gauge()
    setups = []
    session = None
    for _ in range(SETUP_REPS):
        for _ in range(REFERENCE_PER_SETUP):
            gauge.sample()
        start = time.perf_counter()
        imported = import_seconds()
        t0 = time.perf_counter()
        inp = workload.build(random.Random(seed), size)
        if session is not None:
            session.close()
        session = Session(mj, workdir, inp, seed)
        inputs.write_table(session.table, inp.rows)
        warm = workdir / "warm.csv"
        warm.write_text(WARM_TABLE, encoding="utf-8")
        for argv in WARM_COMMANDS:
            out = ["--out", str(workdir / "warm.out")]
            table = ["--input", str(warm)] if argv[0] != "lorenz" else []
            rc, err = session.run("warm-up", [*argv, *table, *out])
            session.expect(" ".join(argv), None if rc == 0 else f"exit {rc!r}: {err}")
        # the import is timed inside its own interpreter, without process start-up
        setups.append((start, start + imported + time.perf_counter() - t0))
        for _ in range(REFERENCE_PER_SETUP):
            gauge.sample()
    session.tally = Tally()
    session.gauge = gauge
    session.setups = setups
    return session


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-12:
            break
    return h


def _beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def percentile(values: list[float], q: int) -> float:
    """Harrell-Davis estimate of the q-th percentile.

    A weighted mean of the order statistics around the percentile, with
    beta weights; in a tail it varies far less from run to run than the one
    or two samples a plain percentile rests on.  Order statistics whose
    weights are negligible are skipped.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 2:
        return xs[0] if xs else 0.0
    p = q / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    reach = 12 * math.sqrt(p * (1 - p) / n) + 2 / n
    lo, hi = max(0, int((p - reach) * n)), min(n, int((p + reach) * n) + 1)
    cdf = [_beta_cdf(a, b, i / n) for i in range(lo, hi + 1)]
    return sum(x * (c1 - c0) for x, c0, c1 in zip(xs[lo:hi], cdf, cdf[1:])) / (cdf[-1] - cdf[0])


def end_to_end(session: Session, scale: bool = True) -> dict[str, float]:
    """The end-to-end metrics, with times scaled to the reference speed unless ``scale`` is off."""
    tally, gauge = session.tally, session.gauge
    lat = tally.latencies(gauge if scale else None)
    setups = [(end - start) * (gauge.speed(start, end) if scale else 1.0) for start, end in session.setups]
    ms = lambda kind, q: percentile(lat.get(kind, []), q) * 1e3
    certify_seconds = sum(sum(lat.get(kind, [])) for kind in ("decompose", "verify", "reject"))
    return {
        "setup_s": statistics.median(setups),
        "decompose_p50_ms": ms("decompose", 50),
        "decompose_p99_ms": ms("decompose", 99),
        "verify_p50_ms": ms("verify", 50),
        "verify_p99_ms": ms("verify", 99),
        "reject_p50_ms": ms("reject", 50),
        "certify_pairs_per_s": tally.pairs / certify_seconds if certify_seconds else 0.0,
        "batch_general_s": percentile(lat.get("batch_general", []), 50),
        "batch_classical_s": percentile(lat.get("batch_classical", []), 50),
        "lorenz_p50_ms": ms("lorenz", 50),
        "cert_bytes_p50": float(statistics.median(tally.cert_bytes)) if tally.cert_bytes else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def instrument(tracer: Tracer, mj) -> None:
    """Trace the public functions of the four modules where their callers look them up."""
    core, dec, lor, cli = mj.core, mj.decompose, mj.lorenz, mj.cli
    incomparable = core.DominanceOutcome.INCOMPARABLE

    def seen_compare(outcome) -> None:
        if tracer.kind == "batch_general":
            tracer.count("batch_compares")
            tracer.count("batch_comparable", outcome is not incomparable)

    tracer.patch(core.Array, "__post_init__", "core.make_array")  # every validated Array
    for owner in (cli, dec):
        tracer.patch(owner, "generalized_compare", "core.compare", seen_compare)
    tracer.patch(cli, "decompose_general", "decompose.general")
    tracer.patch(cli, "decompose_decreasing", "decompose.decreasing")
    tracer.patch(cli, "decompose_transfers", "decompose.transfers")
    tracer.patch(cli, "verify_certificate", "decompose.verify")
    for name in ("apply_eii", "sort_desc", "replay"):  # the verifier's step replay
        tracer.patch(dec, name, "decompose.replay")
    tracer.patch(dec.Certificate, "to_json", "decompose.encode")
    tracer.patch(dec.Certificate, "from_json", "decompose.decode")
    tracer.patch(cli, "classical_majorizes", "lorenz.classical")
    tracer.patch(cli, "lorenz_points", "lorenz.points")
    tracer.patch(lor, "lorenz_points", "lorenz.points")
    tracer.patch(cli, "gini", "lorenz.gini")
    tracer.patch(cli, "parse_array_literal", "cli.parse_literal")
    tracer.patch(cli, "parse_timeline_csv", "cli.parse_csv")


def slope(ns, seconds) -> float:
    return statistics.linear_regression([math.log(n) for n in ns], [math.log(t) for t in seconds]).slope


def sweep(session: Session, sizes) -> dict[str, float]:
    """Library-call times over n for general and decreasing pairs; log-log slopes."""
    core, dec = session.mj.core, session.mj.decompose
    times: dict[str, list[float]] = {"general": [], "decreasing": [], "verify": [], "encode": []}

    def timed(key, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        times[key].append(time.perf_counter() - t0)
        return result

    for n in sizes:
        x, y = inputs.dominated_pair(session.sweep_rng, n, 2 * n)
        cert = timed("general", dec.decompose_general, core.make_array(x), core.make_array(y), core.EXACT)
        report = timed("verify", dec.verify_certificate, cert, core.EXACT)
        session.expect(f"sweep verify n={n}", None if report.ok else "honest certificate rejected")
        timed("encode", cert.to_json, indent=2)
        x, y = inputs.ranked_pair(session.sweep_rng, n, 2 * n)
        cert = timed("decreasing", dec.decompose_decreasing, core.make_array(x), core.make_array(y),
                     core.EXACT)
        session.expect(f"sweep decreasing n={n}",
                       None if list(cert.final) == y else "chain does not end at the target")
    print("bench: sweep n=" + ",".join(map(str, sizes)) + " " + "; ".join(
        f"{k} " + ",".join(f"{t * 1e3:.1f}ms" for t in v) for k, v in times.items()), file=sys.stderr)
    return {f"decompose.{k}_n_exp": slope(sizes, v) for k, v in times.items()}


def per_layer(tracer: Tracer, tally: Tally, overhead: float, slopes: dict, fail_ratio: float):
    spans = tracer.self_times()

    def secs(name: str, kind: Optional[str] = None) -> float:
        return sum(v[0] for (n, k), v in spans.items() if n == name and kind in (None, k))

    def calls(name: str) -> int:
        return sum(v[1] for (n, _), v in spans.items() if n == name)

    compares = tracer.counts.get("batch_compares", 0)
    steps = sum(tally.steps.values())
    return {
        "cli.parse_literal_s": secs("cli.parse_literal"),
        "cli.parse_csv_s": secs("cli.parse_csv"),
        "cli.self_s": secs("cli.main"),
        "core.make_array_s": secs("core.make_array"),
        "core.arrays_built": calls("core.make_array"),
        "core.compare_s": secs("core.compare"),
        "core.compare_calls": calls("core.compare"),
        "core.comparable_ratio": tracer.counts.get("batch_comparable", 0) / compares if compares else 0.0,
        "decompose.general_s": secs("decompose.general"),
        "decompose.decreasing_s": secs("decompose.decreasing"),
        "decompose.transfers_s": secs("decompose.transfers"),
        "decompose.replay_s": secs("decompose.replay"),
        "decompose.steps": steps,
        "decompose.transfer_steps": tally.steps["transfer"],
        "decompose.increase_steps": tally.steps["increase"],
        "decompose.sort_steps": tally.steps["sort_desc"],
        "decompose.steps_per_n": steps / tally.cert_n if tally.cert_n else 0.0,
        "decompose.encode_s": secs("decompose.encode"),
        "decompose.cert_bytes": sum(tally.cert_bytes),
        "decompose.decode_s": secs("decompose.decode"),
        "decompose.verify_s": secs("decompose.verify", "verify"),
        "decompose.verify_reject_s": secs("decompose.verify", "reject"),
        "decompose.mutants_rejected_ratio": tally.rejected / tally.tampered if tally.tampered else 0.0,
        "lorenz.classical_s": secs("lorenz.classical"),
        "lorenz.classical_calls": calls("lorenz.classical"),
        "lorenz.points_s": secs("lorenz.points"),
        "lorenz.gini_s": secs("lorenz.gini"),
        **slopes,
        "trace.overhead_ratio": overhead,
        "fail_ratio": fail_ratio,
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def prepare_references(session: Session) -> None:
    t0 = time.perf_counter()
    for mode in ("general", "classical"):
        session.expected[mode] = oracle.batch_matrix(session.inp.rows, mode, session.inp.batch_eps)
    m = len(session.inp.rows)
    shares = {mode: sum(c != oracle.APART for r in mat for c in r) / (m * m)
              for mode, mat in session.expected.items()}
    print(f"bench: {len(session.inp.pairs)} pairs, table {m}x{len(session.inp.rows[0].values)}, "
          f"comparable cells general {shares['general']:.4f} classical {shares['classical']:.4f}, "
          f"references in {time.perf_counter() - t0:.2f}s", file=sys.stderr)


def measure(session: Session, workload: Workload, seconds: float) -> None:
    certify, batch, lorenz = workload.shares
    interleave([(session.certify_step, certify, session.inp.round_size),
                (session.batch_step, batch, 3),
                (session.lorenz_step, lorenz, 20),
                (session.reference_step, REFERENCE_SHARE, 20)], seconds)


def fixed_pass(session: Session, plan: tuple[int, int, int]) -> Tally:
    """The traced run's command list: whole certify rounds, batch pairs, lorenz commands."""
    session.tally = Tally()
    certify_rounds, batches, lorenz = plan
    for step, count in ((session.certify_step, certify_rounds * session.inp.round_size),
                        (session.batch_step, batches), (session.lorenz_step, lorenz)):
        for i in range(count):
            step(i)
    return session.tally


def execute(name: str, seed: int, seconds: float, trace: bool, preset: str = "full") -> dict:
    """One workload run; returns the result object that ``main`` prints."""
    os.environ.pop("MAJORIZE_EPS", None)
    mj = load_program()
    workload = WORKLOADS[name]
    size = getattr(workload, preset)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"run-{name}-", dir=OUT))
    session = None
    try:
        session = set_up(mj, workload, size, seed, workdir)
        prepare_references(session)
        # keep the bench's own inputs and references out of the program's
        # garbage collections, as they would be in a fresh CLI process
        gc.collect()
        gc.freeze()
        if not trace:
            measure(session, workload, seconds)
            metrics = end_to_end(session)
            units = END_TO_END
            counts = {k: len(v) for k, v in session.tally.spans.items()}
            raw = end_to_end(session, scale=False)
            print(f"bench: samples {counts}, reference task median {session.gauge.median_ms():.3f} ms "
                  f"over {len(session.gauge.seconds)} runs; unscaled "
                  + ", ".join(f"{k} {raw[k]:.5g}" for k in units), file=sys.stderr)
        else:
            untraced = fixed_pass(session, size["trace"]).command_seconds()
            tracer = Tracer()
            instrument(tracer, mj)
            session.tracer = tracer
            try:
                tally = fixed_pass(session, size["trace"])
            finally:
                session.tracer = None
                tracer.restore()
            slopes = sweep(session, size["sweep"])
            path = OUT / f"trace-{name}-{seed}.csv.gz"
            written = tracer.write(path)
            print(f"bench: {written} spans in {path}", file=sys.stderr)
            overhead = tally.command_seconds() / untraced
            metrics = per_layer(tracer, tally, overhead, slopes, session.failed / session.attempted)
            units = PER_LAYER
        return {
            "correct": session.failed == 0,
            "attempted": session.attempted,
            "failed": session.failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }
    finally:
        gc.unfreeze()
        if session is not None:
            session.close()
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
