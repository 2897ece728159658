import argparse
import contextlib
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from majorize import (
    Array,
    Certificate,
    DominanceOutcome,
    MajorizeError,
    classical_majorizes,
    decompose_decreasing,
    decompose_general,
    decompose_transfers,
    dominance_matrix,
    generalized_compare,
    make_array,
    random_dominated_pair,
)
import majorize.cli
import majorize.decompose
import majorize.lorenz
from majorize.cli import build_parser, main, parse_timeline_csv
from majorize.core import EXACT, OUTCOME, plain_number
from genpairs import NumberText, dumps

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_dominated_pair(capsys):
    code, out, _ = run(capsys, "check", "4,4,4,4", "14,1,1,1", "--mode", "general")
    assert code == 0
    assert out.strip() == "LeftStrictlyBelow"


def test_check_equal_pair(capsys):
    code, out, _ = run(capsys, "check", "1,2", "1,2", "--mode", "general")
    assert code == 0
    assert out.strip() == "Equal"


def test_check_reverse_dominance_exits_one(capsys):
    code, out, _ = run(capsys, "check", "3,1", "2,2", "--mode", "general")
    assert code == 1
    assert out.strip() == "RightStrictlyBelow"


def test_check_incomparable_exits_one(capsys):
    code, out, _ = run(capsys, "check", "5,0", "4,2")
    assert code == 1
    assert out.strip() == "Incomparable"


def test_check_classical_mode(capsys):
    code, out, _ = run(capsys, "check", "2,2", "3,1", "--mode", "classical")
    assert code == 0
    assert out.strip() == "true"
    code, out, _ = run(capsys, "check", "3,1", "2,2", "--mode", "classical")
    assert code == 1
    assert out.strip() == "false"


def test_check_json_output(capsys):
    code, out, _ = run(capsys, "check", "1,3", "2,2", "--json")
    assert code == 0
    assert json.loads(out) == {"mode": "general", "verdict": "LeftStrictlyBelow"}


def test_check_json_classical_verdict_is_the_printed_string(capsys):
    code, out, _ = run(capsys, "check", "2,2", "3,1", "--mode", "classical", "--json")
    assert code == 0
    assert json.loads(out) == {"mode": "classical", "verdict": "true"}
    code, out, _ = run(capsys, "check", "3,1", "2,2", "--mode", "classical", "--json")
    assert code == 1
    assert json.loads(out) == {"mode": "classical", "verdict": "false"}


def test_check_length_mismatch_exits_two(capsys):
    code, _, err = run(capsys, "check", "1,2", "1,2,3")
    assert code == 2
    assert "length" in err


def test_check_bad_literal_exits_two(capsys):
    code, _, err = run(capsys, "check", "1,zebra", "1,2")
    assert code == 2
    assert "zebra" in err


def test_check_negative_component_exits_two(capsys):
    code, _, err = run(capsys, "check", "1,-2", "1,2")
    assert code == 2
    assert "component" in err


def test_check_overflowing_totals_exits_two(capsys):
    # both second prefix sums would be inf, so the two arrays used to compare Equal
    code, out, err = run(capsys, "check", "1e308,1e308", "1e308,1.7e308")
    assert code == 2
    assert out == ""
    assert "largest float" in err


def test_check_entity_refs(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_text("id,y1,y2,y3,y4\na,4,4,4,4\nb,14,1,1,1\n")
    code, out, _ = run(capsys, "check", "a", "b", "--input", str(table))
    assert code == 0
    assert out.strip() == "LeftStrictlyBelow"


@pytest.mark.parametrize("argv", [["check", "a", "nope"], ["decompose", "nope", "b"]])
def test_unknown_operand_with_a_table_exits_two(tmp_path, capsys, argv):
    table = tmp_path / "t.csv"
    table.write_text("a,2,2\nb,3,1\n")
    code, out, err = run(capsys, *argv, "--input", str(table))
    assert code == 2
    assert out == ""
    assert err.startswith("error: 'nope' is neither an entity id nor an array literal: ")


def test_check_eps_flag(capsys):
    code, out, _ = run(capsys, "check", "5,5", "1,1", "--eps", "10")
    assert code == 0
    assert out.strip() == "Equal"


def test_check_env_eps(capsys, monkeypatch):
    monkeypatch.setenv("MAJORIZE_EPS", "10")
    code, out, _ = run(capsys, "check", "5,5", "1,1")
    assert code == 0
    assert out.strip() == "Equal"
    monkeypatch.setenv("MAJORIZE_EPS", "not-a-number")
    code, _, err = run(capsys, "check", "5,5", "1,1")
    assert code == 2
    assert "MAJORIZE_EPS" in err


@pytest.mark.parametrize("eps_flag,env_eps", [
    (["--eps", "-1"], None),
    (["--eps", "nan"], None),
    (["--eps", "inf"], None),
    ([], "-1"),
], ids=["negative", "nan", "inf", "env-negative"])
def test_check_rejects_bad_eps(capsys, monkeypatch, eps_flag, env_eps):
    if env_eps is not None:
        monkeypatch.setenv("MAJORIZE_EPS", env_eps)
    code, out, err = run(capsys, "check", "1,1", "1,1", *eps_flag)
    assert code == 2
    assert out == ""
    assert "eps must be finite" in err


def test_unknown_command_exits_two(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def test_decompose_prints_golden_chain(capsys):
    code, out, _ = run(capsys, "decompose", "4,4,4,4", "14,1,1,1", "--mode", "decreasing")
    assert code == 0
    assert out.strip() == (
        "(4,4,4,4) ≺ (7,1,4,4) ≺ (7,4,4,1) ≺ (10,1,4,1) "
        "≺ (10,4,1,1) ≺ (13,1,1,1) ≺ (14,1,1,1)"
    )


def test_decompose_prints_chain_states_losslessly(capsys):
    # each step is strict, so no two printed states may look alike
    code, out, _ = run(capsys, "decompose", "1,1", "1.0000000000001,1", "--eps", "0")
    assert code == 0
    assert out.strip() == "(1,1) ≺ (1.0000000000001,1)"
    code, out, _ = run(capsys, "decompose", "5,5", "5.0000000000001,6", "--eps", "0")
    assert code == 0
    states = out.strip().split(" ≺ ")
    assert len(states) == len(set(states)) == 3


def test_decompose_formats_each_changed_number_once(monkeypatch, capsys, tmp_path):
    # a step changes one or two positions, so each state needs at most two numbers formatted
    calls = 0

    def counting(v):
        nonlocal calls
        calls += 1
        return plain_number(v)

    for module in (majorize.cli, majorize.decompose):
        monkeypatch.setattr(module, "plain_number", counting)
    x, y = random_dominated_pair(5, 200, 400)
    cert = decompose_general(x, y, EXACT)
    n, steps = len(x), len(cert.steps)
    assert steps >= 100  # formatting every value of every state would take n * (steps + 2)
    text = cert.to_json()
    assert calls <= 2 * n + 2 * steps
    assert text == json.dumps(json.loads(text))
    calls = 0
    literal = [",".join(str(int(v)) for v in z) for z in (x, y)]
    code, out, _ = run(capsys, "decompose", *literal, "--eps", "0")
    assert code == 0
    assert calls <= 2 * n + 2 * steps
    assert out.count(" ≺ ") == steps
    # with --out the printed chain and the certificate share one formatting pass
    calls = 0
    out_file = tmp_path / "cert.json"
    code, out, _ = run(capsys, "decompose", *literal, "--eps", "0", "--out", str(out_file))
    assert code == 0
    assert calls <= 2 * n + 2 * steps
    assert out.count(" ≺ ") == steps
    assert out_file.read_text(encoding="utf-8") == text + "\n"


def test_decompose_equal_arrays(capsys, tmp_path):
    code, out, _ = run(capsys, "decompose", "5,5", "5,5")
    assert code == 0
    assert "already equal" in out
    out_file = tmp_path / "cert.json"
    code, out, _ = run(capsys, "decompose", "5,5", "5,5", "--out", str(out_file))
    assert code == 0
    assert out == "already equal\n"
    cert = decompose_general(make_array([5, 5]), make_array([5, 5]))
    assert out_file.read_bytes() == (cert.to_json() + "\n").encode("utf-8")


def test_decompose_transfers_mode(capsys):
    code, out, _ = run(capsys, "decompose", "3,2,1", "4,1,1", "--mode", "transfers")
    assert code == 0
    assert out.strip() == "(3,2,1) ≺ (4,1,1)"


def test_decompose_writes_certificate(tmp_path, capsys):
    out_file = tmp_path / "cert.json"
    code, _, _ = run(capsys, "decompose", "1,5,2", "3,4,3", "--out", str(out_file))
    assert code == 0
    cert = Certificate.from_json(out_file.read_text())
    assert cert.source == make_array([1, 5, 2])
    assert cert.target == make_array([3, 4, 3])


@pytest.mark.parametrize("mode,produce,left,right", [
    ("general", decompose_general, "1,5,2", "3,4,3"),
    ("decreasing", decompose_decreasing, "4,4,4,4", "14,1,1,1"),
    ("transfers", decompose_transfers, "0.5,2.25,1", "1.75,1.5,0.5"),
])
def test_decompose_out_is_the_compact_certificate_json(tmp_path, capsys, mode, produce, left, right):
    out_file = tmp_path / "cert.json"
    code, _, _ = run(capsys, "decompose", left, right, "--mode", mode, "--out", str(out_file))
    assert code == 0
    expected = produce(make_array(left.split(",")), make_array(right.split(","))).to_json() + "\n"
    assert out_file.read_bytes() == expected.encode("utf-8")


def test_decompose_unwritable_out_exits_two_before_printing(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    for left, right in (("1,1", "2,2"), ("1,5,2", "3,4,3")):
        code, out, err = run(capsys, "decompose", left, right, "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write")
        assert not target.parent.exists()


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@needs_dev_full
def test_decompose_write_failure_exits_two_after_printing_the_chain(capsys):
    # --out opens before the chain prints; a failed write shows only when the file is written
    code, out, err = run(capsys, "decompose", "1,5,2", "3,4,3", "--out", "/dev/full")
    assert code == 2
    assert out == "(1,5,2) ≺ (2,4,2) ≺ (3,4,2) ≺ (3,4,3)\n"
    assert err.startswith("error: cannot write /dev/full")


@needs_dev_full
@pytest.mark.parametrize("command", ["lorenz", "batch", "gen"])
def test_write_failure_exits_two(tmp_path, capsys, command):
    table = tmp_path / "t.csv"
    table.write_text("a,2,2\nb,3,1\n")
    operands = {"lorenz": ["3,1"], "batch": ["--input", str(table)],
                "gen": ["--seed", "1", "--n", "3"]}[command]
    code, out, err = run(capsys, command, *operands, "--out", "/dev/full")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write /dev/full")


def _cli_in_a_child(stdout, *argv, **env):
    """Exit code and stderr of ``python -m majorize.cli argv`` writing to ``stdout``."""
    proc = subprocess.run([sys.executable, "-m", "majorize.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(SRC), **env))
    return proc.returncode, proc.stderr


@needs_dev_full
def test_full_stdout_exits_two_with_one_line_and_no_traceback():
    with open("/dev/full", "w") as full:
        code, err = _cli_in_a_child(full, "check", "3,1", "2,2")
    # one line: no traceback, and no "Exception ignored" from the flush at exit
    assert (code, err.count("\n")) == (2, 1), err
    assert err.startswith("error: cannot write stdout: [Errno 28]")


@needs_dev_full
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]], ids=" ".join)
def test_help_to_a_full_stdout_exits_two_with_one_line(argv, unbuffered):
    # argparse's own help swallows a failed write and exits 0 (unbuffered), or leaves
    # it to the flush at exit: "Exception ignored" and exit 120 (buffered)
    with open("/dev/full", "w") as full:
        code, err = _cli_in_a_child(full, *argv, PYTHONUNBUFFERED=unbuffered)
    assert (code, err.count("\n")) == (2, 1), err
    assert err.startswith("error: cannot write stdout: [Errno 28]")


def test_closed_pipe_on_stdout_exits_two_with_one_line_and_no_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # before the child starts, so its first write to stdout fails
    try:
        code, err = _cli_in_a_child(write_end, "decompose", ",".join(["1"] * 400),
                                    ",".join(["3"] * 400))
    finally:
        os.close(write_end)
    assert (code, err.count("\n")) == (2, 1), err
    assert err.startswith("error: cannot write stdout: [Errno 32]")


@needs_dev_full
def test_full_stdout_in_process_drops_the_unwritten_text(monkeypatch, capsys):
    # an in-process caller's failing stream is pointed at os.devnull, so closing it
    # later writes nothing and raises nothing
    with open("/dev/full", "w") as full:
        monkeypatch.setattr(sys, "stdout", full)
        assert main(["check", "3,1", "2,2"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write stdout: [Errno 28]")


def test_out_of_memory_exits_two_with_one_line_and_no_traceback(tmp_path, monkeypatch, capsys):
    table = tmp_path / "t.csv"
    table.write_text("a,2,2\nb,3,1\n")

    def too_large(*args):
        raise MemoryError

    monkeypatch.setattr(majorize.cli, "_dominance_rows", too_large)
    code, out, err = run(capsys, "batch", "--input", str(table))
    assert (code, out, err) == (2, "", "error: out of memory\n")


def test_step_cap_stops_a_sweep_that_makes_no_progress(monkeypatch, capsys):
    monkeypatch.setattr(majorize.decompose, "_apply_step", lambda vals, step, eps: None)
    with pytest.raises(MajorizeError, match="^decomposition did not converge"):
        decompose_general(make_array([0, 0]), make_array([1, 1]))
    code, out, err = run(capsys, "decompose", "0,0", "1,1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: decomposition did not converge")


@pytest.mark.parametrize("n", [1000, 2000])
def test_decompose_out_peak_memory_stays_near_the_certificate(tmp_path, n):
    # the printed chain and the --out text are written piece by piece, never joined;
    # stdout goes to os.devnull because the chain itself is O(n * steps) text
    x, y = random_dominated_pair(7, n, 2 * n)
    tracemalloc.start()
    try:
        decompose_general(x, y, EXACT)
        certificate_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        literal = [",".join(str(int(v)) for v in z) for z in (x, y)]
        argv = ["decompose", *literal, "--eps", "0", "--out", str(tmp_path / "c.json")]
        with open(os.devnull, "w", encoding="utf-8") as devnull, contextlib.redirect_stdout(devnull):
            code = main(argv)
        command_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert command_peak <= 2.2 * certificate_peak, (command_peak, certificate_peak)


def test_decompose_not_dominated_exits_one(capsys):
    code, _, err = run(capsys, "decompose", "3,1", "2,2")
    assert code == 1
    assert "prefix sum 1" in err


def test_decompose_unranked_target_exits_one(capsys):
    code, _, err = run(capsys, "decompose", "1,1", "1,2", "--mode", "decreasing")
    assert code == 1
    assert "non-increasing" in err


def test_decompose_unequal_sums_exits_one(capsys):
    code, _, err = run(capsys, "decompose", "2,2", "3,2", "--mode", "transfers")
    assert code == 1
    assert "totals differ" in err


def test_decompose_totals_agree_on_every_python(capsys):
    # sum() of ten 0.1s is 1.0 from Python 3.12 on; the running sum, 0.9999999999999999, is not
    tenths = ",".join(["0.1"] * 10)
    code, _, err = run(capsys, "decompose", tenths, "1" + ",0" * 9, "--mode", "transfers", "--eps", "0")
    assert code == 1
    assert "totals differ: 0.9999999999999999 vs 1.0" in err


def test_decompose_transfers_surplus_below_threshold_exits_two(tmp_path, capsys):
    # the totals agree within eps, but the 1.5e-9 surplus at position 2 is
    # below the n*eps transfer threshold, so only an increase could close the gap
    out_file = tmp_path / "cert.json"
    code, _, err = run(capsys, "decompose", "0.9999999985,1.0000000015", "1,1",
                       "--mode", "transfers", "--out", str(out_file))
    assert code == 2
    assert "increase" in err
    assert not out_file.exists()


def test_decompose_rounding_overshoot_exits_two(capsys):
    # filling position 1 rounds past its target; the pair itself is dominated
    code, out, _ = run(capsys, "check", "3,0", "10000000000000002,3")
    assert (code, out.strip()) == (0, "LeftStrictlyBelow")
    code, _, err = run(capsys, "decompose", "3,0", "10000000000000002,3")
    assert code == 2
    assert "position 1" in err and "beyond exact float arithmetic" in err


def test_decreasing_float_certificate_verifies(tmp_path, capsys):
    cert_file = tmp_path / "d.json"
    code, _, _ = run(capsys, "decompose", "91.89,75.19,44.51", "206.51,4.87,0.21",
                     "--mode", "decreasing", "--out", str(cert_file))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--cert", str(cert_file))
    assert code == 0
    assert "certificate OK" in out


def test_decreasing_target_order_is_exact_for_producer_and_verifier(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"
    code, _, err = run(capsys, "decompose", "1,1", "2,2.000000000001",
                       "--mode", "decreasing", "--out", str(cert_file))
    assert code == 1
    assert "non-increasing" in err
    assert not cert_file.exists()
    code, _, _ = run(capsys, "decompose", "1,1", "2,2.000000000001", "--out", str(cert_file))
    assert code == 0
    data = json.loads(cert_file.read_text())
    data["mode"] = "decreasing"
    cert_file.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--cert", str(cert_file))
    assert code == 1
    assert "not non-increasing" in out


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="float running sums can round a transfer into lowering a later prefix "
                          "sum, so decompose writes a chain that is not strict (ROADMAP item 2)")
@pytest.mark.parametrize("left,right,eps", [
    ("3,10000000000000004,3", "10000000000000008,10000000000000008,0", []),
    # verify --eps 0 rejects its certificate with ChainNotStrict at step 2
    ("0.007842370298633914,2.768796171700787,92.15163393100698",
     "45.860670938706136,87.786790373901,3.1846480408982525", ["--eps", "0"]),
], ids=["1e16", "eps0-floats"])
def test_certificate_near_1e16_verifies(tmp_path, capsys, left, right, eps):
    # decompose refuses the pair, or writes a certificate that verify accepts at the same eps
    cert_file = tmp_path / "r.json"
    code, _, _ = run(capsys, "decompose", left, right, "--out", str(cert_file), *eps)
    assert code in (0, 1, 2)
    if code == 0:
        code, out, _ = run(capsys, "verify", "--cert", str(cert_file), *eps)
        assert code == 0, out


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the default eps is below one ulp of running sums past 2**23, so one "
                          "rounding makes a step look not strict (ROADMAP item 2)")
def test_certificate_at_the_default_eps_near_1e7_verifies(tmp_path, capsys):
    # values below 1e6, total 1.69e7: verify rejects the certificate with
    # ChainNotStrict at step 2, prefix 21
    x, y = random_dominated_pair(27, 30, 10, integer_mode=False)
    left, right = (",".join([repr(v * 1e4) for v in arr.values]) for arr in (x, y))
    cert_file = tmp_path / "c.json"
    code, _, _ = run(capsys, "decompose", left, right, "--out", str(cert_file))
    assert code in (0, 1, 2)
    if code == 0:
        code, out, _ = run(capsys, "verify", "--cert", str(cert_file))
        assert code == 0, out


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_round_trip(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"
    code, _, _ = run(capsys, "decompose", "4,4,4,4", "14,1,1,1",
                     "--mode", "decreasing", "--out", str(cert_file))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--cert", str(cert_file))
    assert code == 0
    assert "OK" in out and "6 steps" in out


def test_verify_tampered_certificate_exits_one(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"
    run(capsys, "decompose", "4,4,4,4", "14,1,1,1", "--mode", "decreasing",
        "--out", str(cert_file))
    data = json.loads(cert_file.read_text())
    data["steps"][0]["a"] -= 1
    cert_file.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--cert", str(cert_file))
    assert code == 1
    assert "ReplayMismatch" in out


def test_verify_names_the_failing_prefix(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps({
        "mode": "general", "source": [1, 1, 1], "target": [3, 3, 3],
        "steps": [{"type": "increase", "i": 2, "a": 5}], "intermediates": [[1, 6, 1]],
    }))
    code, out, _ = run(capsys, "verify", "--cert", str(cert_file))
    assert (code, out) == (1, "certificate INVALID: NotSandwichedByTarget at step 0, prefix 2: "
                              "intermediate 0 is not dominated by the target\n")


_NOT_APPLICABLE = "certificate INVALID: ReplayMismatch at step 0: step 0 is not applicable: "
_NOT_REPRODUCED = ("certificate INVALID: ReplayMismatch at step 0: "
                   "replaying step 0 does not reproduce the recorded intermediate")


@pytest.mark.parametrize("source,step,line", [
    ([1, 1], {"type": "transfer", "i": 1, "j": 3, "a": 1},
     _NOT_APPLICABLE + "transfer touches position 3 of a length-2 array"),
    ([1, 1], {"type": "increase", "i": 3, "a": 1},
     _NOT_APPLICABLE + "increase touches position 3 of a length-2 array"),
    ([1, 1], {"type": "transfer", "i": 1, "j": 2, "a": 5},
     _NOT_APPLICABLE + "cannot move 5.0 out of position 2, which holds 1.0"),
    # the replay overflows; a recorded state is finite, so it never matches
    ([1.7e308, 1], {"type": "increase", "i": 1, "a": 1.7e308}, _NOT_REPRODUCED),
    ([1e308, 0], {"type": "increase", "i": 2, "a": 1e308}, _NOT_REPRODUCED),
], ids=["transfer-past-n", "increase-past-n", "transfer-exceeds-source", "increase-to-inf",
        "sum-past-largest-float"])
def test_verify_reports_a_step_the_replay_rejects(tmp_path, capsys, source, step, line):
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps({"mode": "general", "source": source, "target": source,
                                     "steps": [step], "intermediates": [source]}))
    code, out, _ = run(capsys, "verify", "--cert", str(cert_file))
    assert (code, out) == (1, line + "\n")


def test_verify_rejects_a_recorded_state_that_is_not_its_steps_replay(tmp_path, capsys):
    # Increase(1, 1e-10) raises nothing beyond eps; its recorded state is nudged within
    # n * eps of the replay, so that the recorded chain would pass as strict
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(
        '{"mode": "general", "source": [1, 0], "target": [2, 0], "steps": '
        '[{"type": "increase", "i": 1, "a": 1e-10}, {"type": "increase", "i": 1, "a": 0.9999999999}],'
        ' "intermediates": [[1.0000000016, 0], [2, 0]]}')
    code, out, _ = run(capsys, "verify", "--cert", str(cert_file), "--eps", "1e-9")
    assert (code, out) == (1, _NOT_REPRODUCED + "\n")


def test_verify_checks_step_zero_against_the_target_from_prefix_one(tmp_path, capsys):
    # the step raises only prefix 3, but the source's prefix 1 is already above the
    # target's, and the source is checked against the target only at step 0
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(
        '{"mode": "general", "source": [3, 0, 0], "target": [2, 1, 1], "steps": '
        '[{"type": "increase", "i": 3, "a": 1}], "intermediates": [[3, 0, 1]]}')
    code, out, _ = run(capsys, "verify", "--cert", str(cert_file), "--eps", "0")
    assert (code, out) == (1, "certificate INVALID: NotSandwichedByTarget at step 0, prefix 1: "
                              "intermediate 0 is not dominated by the target\n")


def test_verify_non_finite_step_index_exits_two(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"
    cert_file.write_text('{"mode": "general", "source": [1, 1], "target": [2, 1],'
                         ' "steps": [{"type": "increase", "i": 1e999, "a": 1}],'
                         ' "intermediates": [[2, 1]]}')
    code, out, err = run(capsys, "verify", "--cert", str(cert_file))
    assert (code, out) == (2, "")
    assert "bad step" in err and "i must be an integer, got inf" in err


def test_verify_malformed_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    code, _, err = run(capsys, "verify", "--cert", str(bad))
    assert code == 2
    bad.write_text('{"mode": "sideways"}')
    code, _, err = run(capsys, "verify", "--cert", str(bad))
    assert code == 2
    code, _, err = run(capsys, "verify", "--cert", str(tmp_path / "missing.json"))
    assert code == 2


HUGE = "1" + "0" * 400  # an integer no float can hold
OVER_DIGIT_LIMIT = "1" * 5000  # past CPython's 4,300-digit int conversion limit, where it has one


@pytest.mark.parametrize("text", [
    '{"mode": "general", "source": "12", "target": [1, 2], "steps": [], "intermediates": []}',
    '{"mode": "general", "source": {"3": 0}, "target": {"3": 1}, "steps": [], "intermediates": []}',
    '{"mode": "general", "source": [1, 1], "target": [1, 1], "steps": {}, "intermediates": {}}',
    '{"mode": "general", "source": [true, 1], "target": [1, 1], "steps": [], "intermediates": []}',
    '{"mode": "general", "source": [1, 1], "target": [2, 1],'
    ' "steps": [{"type": "increase", "i": true, "a": 1}], "intermediates": [[2, 1]]}',
    '{"mode": "general", "source": [1, 1], "target": [2, 1],'
    ' "steps": [{"type": "increase", "i": 1, "a": true}], "intermediates": [[2, 1]]}',
    '{"mode": "general", "source": [1, 1], "target": [2, 1],'
    ' "steps": [{"type": "increase", "i": 1, "a": 1}], "intermediates": [[2, true]]}',
    '{"mode": "general", "source": [%s, 1], "target": [1, 1], "steps": [], "intermediates": []}' % HUGE,
    '{"mode": "general", "source": [1, 1], "target": [2, 1],'
    ' "steps": [{"type": "increase", "i": 1, "a": %s}], "intermediates": [[2, 1]]}' % HUGE,
    "[" * 100_000,
    '{"mode": "general", "source": [%s, 1], "target": [1, 1], "steps": [], "intermediates": []}'
    % OVER_DIGIT_LIMIT,
    '{"mode": "general", "source": [1, 1], "target": [1, %s], "steps": [], "intermediates": []}'
    % OVER_DIGIT_LIMIT,
    '{"mode": "general", "source": [1, 1], "target": [2, 1],'
    ' "steps": [{"type": "increase", "i": 1, "a": 1}], "intermediates": [[%s, 1]]}' % OVER_DIGIT_LIMIT,
    '{"mode": "general", "source": [1, 1], "target": [2, 1],'
    ' "steps": [{"type": "increase", "i": %s, "a": 1}], "intermediates": [[2, 1]]}' % OVER_DIGIT_LIMIT,
], ids=["string-source", "object-arrays", "object-steps", "bool-component", "bool-index",
        "bool-amount", "bool-intermediate", "huge-component", "huge-amount", "deep-nesting",
        "digit-limit-source", "digit-limit-target", "digit-limit-intermediate", "digit-limit-index"])
def test_verify_wrongly_typed_certificate_exits_two(tmp_path, capsys, text):
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(text)
    code, out, err = run(capsys, "verify", "--cert", str(cert_file))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1, err


_INCREASE_AT = ('{"mode": "general", "source": [1, 1], "target": [2, 1],'
                ' "steps": [{"type": "increase", "i": %s, "a": 1}], "intermediates": [[2, 1]]}')


@pytest.mark.parametrize("text,line", [
    (_INCREASE_AT % "0", "bad step {'type': 'increase', 'i': 0.0, 'a': 1.0}: "
                         "i must be >= 1 (indices are 1-based), got 0.0"),
    ('{"mode": "general", "source": [1, 1], "target": [2, 1], "steps": [], "intermediates": 3}',
     "intermediates must be a JSON array, got float"),
    ('{"mode": "general", "source": [1, %s], "target": [2, 1], "steps": [], "intermediates": []}'
     % OVER_DIGIT_LIMIT, "bad certificate data: component 2 must be a finite non-negative number, "
                         "got inf"),
    (_INCREASE_AT % ("1" * 400), "bad step {'type': 'increase', 'i': inf, 'a': 1.0}: "
                                 "i must be an integer, got inf"),
], ids=["zero-index", "number-intermediates", "digit-limit-component", "400-digit-index"])
def test_verify_quotes_every_json_number_as_a_float(tmp_path, capsys, text, line):
    # every JSON number decodes to a float, so an int past the float range reads as inf,
    # on every Python version, with or without an int digit limit
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(text)
    code, out, err = run(capsys, "verify", "--cert", str(cert_file))
    assert (code, out, err) == (2, "", f"error: {cert_file}: {line}\n")


@pytest.mark.parametrize("target,intermediate", [([2, 1, 0], [2, 1]), ([2, 1], [2, 1, 0])],
                         ids=["long-target", "long-intermediate"])
def test_verify_certificate_arrays_of_different_lengths_exit_two(tmp_path, capsys, target,
                                                                 intermediate):
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps({"mode": "general", "source": [1, 1], "target": target,
                                     "steps": [{"type": "increase", "i": 1, "a": 1}],
                                     "intermediates": [intermediate]}))
    code, out, err = run(capsys, "verify", "--cert", str(cert_file))
    assert (code, out) == (2, "")
    assert err == (f"error: {cert_file}: bad certificate data: "
                   "certificate arrays must all have the same length\n")


def test_verify_reads_a_certificate_with_a_byte_order_mark(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"
    cert = decompose_general(make_array([1, 5, 2]), make_array([3, 4, 3]))
    cert_file.write_bytes(b"\xef\xbb\xbf" + cert.to_json().encode("utf-8"))
    code, out, _ = run(capsys, "verify", "--cert", str(cert_file))
    assert code == 0
    assert "OK" in out


def test_verify_undecodable_file_exits_two(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"
    cert_file.write_bytes(b"\xff\xfe{}")
    code, _, err = run(capsys, "verify", "--cert", str(cert_file))
    assert code == 2
    assert "cannot read" in err


_NUMBER_TEXTS = st.builds(
    lambda sign, digits, tail: NumberText(sign + "1" * digits + tail),
    st.sampled_from(["", "-"]), st.integers(4301, 6000), st.sampled_from(["", ".5", "e3"]),
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4) | _NUMBER_TEXTS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_FIELDS = ("mode", "source", "target", "steps", "intermediates",
           "step.type", "step.i", "step.j", "step.a")


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "cert.json"


@given(field=st.sampled_from(_FIELDS), value=_JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_verify_survives_any_json_value_in_any_field(fuzz_file, field, value):
    data = {"mode": "transfers", "source": [3, 2, 1], "target": [4, 1, 1],
            "steps": [{"type": "transfer", "i": 1, "j": 2, "a": 1}],
            "intermediates": [[4, 1, 1]]}
    if field.startswith("step."):
        data["steps"][0][field[5:]] = value
    else:
        data[field] = value
    fuzz_file.write_text(dumps(data))
    assert main(["verify", "--cert", str(fuzz_file)]) in (0, 1, 2)


def test_number_texts_are_written_bare():
    assert dumps({"a": [1, NumberText("-" + "1" * 4301 + ".5")]}) == '{"a": [1, -%s.5]}' % ("1" * 4301)


# ---------------------------------------------------------------------------
# lorenz
# ---------------------------------------------------------------------------

def test_lorenz_diagonal(capsys):
    code, out, _ = run(capsys, "lorenz", "1,1")
    assert code == 0
    assert "0.5,0.5" in out
    assert "gini = 0" in out


def test_lorenz_concentrated(capsys):
    code, out, _ = run(capsys, "lorenz", "3,1")
    assert code == 0
    assert "0.5,0.75" in out
    assert "gini = 0.25" in out


def test_lorenz_zero_total_exits_one(capsys):
    code, _, err = run(capsys, "lorenz", "0,0")
    assert code == 1
    assert "zero" in err


def test_lorenz_overflowing_total_exits_two(capsys):
    code, out, err = run(capsys, "lorenz", "1e308,1e308")
    assert code == 2
    assert "nan" not in out
    assert "largest float" in err


def test_lorenz_json_format(tmp_path, capsys):
    out_file = tmp_path / "curve.json"
    code, out, _ = run(capsys, "lorenz", "3,1", "--format", "json", "--out", str(out_file))
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["points"] == [[0.0, 0.0], [0.5, 0.75], [1.0, 1.0]]
    assert data["gini"] == pytest.approx(0.25)
    assert "gini = 0.25" in out


def test_lorenz_prints_gini_losslessly(capsys):
    code, out, _ = run(capsys, "lorenz", "1,2,3.3")
    assert code == 0
    printed = out.strip().splitlines()[-1]
    code, out, _ = run(capsys, "lorenz", "1,2,3.3", "--format", "json")
    assert code == 0
    assert printed == f"gini = {json.dumps(json.loads(out.splitlines()[0])['gini'])}"


def test_lorenz_csv_file(tmp_path, capsys):
    out_file = tmp_path / "curve.csv"
    code, _, _ = run(capsys, "lorenz", "3,1", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "abscissa,ordinate"
    assert lines[2] == "0.5,0.75"


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------

def test_batch_matrix(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_text("a,4,4,4,4\nb,14,1,1,1\n")
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "batch", "--input", str(table), "--out", str(report))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id\ta\tb"
    assert lines[1] == "a\t=\t≺"
    assert lines[2] == "b\t≻\t="
    data = json.loads(report.read_text())
    assert data["ids"] == ["a", "b"]
    assert data["matrix"] == [["=", "≺"], ["≻", "="]]


def test_batch_single_row(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_text("only,1,2\n")
    code, out, _ = run(capsys, "batch", "--input", str(table))
    assert code == 0
    assert out.strip().splitlines()[1] == "only\t="


def test_batch_incomparable_cell(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_text("a,5,0\nb,4,2\nc,4,1\n")
    code, out, _ = run(capsys, "batch", "--input", str(table))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].split("\t")[2] == "∥"  # a vs b crosses one way only
    assert lines[3].split("\t")[1] == "≺"  # c below a


def test_batch_classical_mode(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_text("a,2,2\nb,3,1\nc,1,1\n")
    code, out, _ = run(capsys, "batch", "--input", str(table), "--mode", "classical")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "a\t=\t≺\t∥"  # c has a different total
    assert lines[2] == "b\t≻\t=\t∥"


@pytest.mark.parametrize("mode", ["general", "classical"])
def test_batch_out_is_compact_json(tmp_path, capsys, mode):
    table = tmp_path / "t.csv"
    table.write_text("a,2,2\nb,3,1\nc,1,1\n")
    report = tmp_path / "report.json"
    code, _, _ = run(capsys, "batch", "--input", str(table), "--mode", mode, "--out", str(report))
    assert code == 0
    matrix = {
        "general": [["=", "≺", "≻"], ["≻", "=", "≻"], ["≺", "≺", "="]],
        "classical": [["=", "≺", "∥"], ["≻", "=", "∥"], ["∥", "∥", "="]],
    }[mode]
    expected = {"mode": mode, "eps": 1e-9, "ids": ["a", "b", "c"], "matrix": matrix}
    assert report.read_bytes() == (json.dumps(expected, ensure_ascii=False) + "\n").encode("utf-8")


def test_batch_unwritable_out_exits_two_before_printing(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_text("a,2,2\nb,3,1\n")
    code, out, err = run(capsys, "batch", "--input", str(table), "--out", str(tmp_path / "missing" / "x.json"))
    assert code == 2
    assert out == ""
    assert "cannot write" in err


def test_batch_skips_a_byte_order_mark_before_the_header(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_bytes(b"\xef\xbb\xbfid,2021,2022\na,1,2\nb,3,0\n")
    code, out, _ = run(capsys, "batch", "--input", str(table))
    assert code == 0
    assert out.splitlines() == ["id\ta\tb", "a\t=\t≺", "b\t≻\t="]


def test_first_entity_id_after_a_byte_order_mark_is_reachable(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_bytes(b"\xef\xbb\xbfa,1,2\nb,3,0\n")
    code, out, _ = run(capsys, "check", "a", "b", "--input", str(table))
    assert code == 0
    assert out.strip() == "LeftStrictlyBelow"


_SYMBOL = {
    DominanceOutcome.EQUAL: "=",
    DominanceOutcome.LEFT_STRICTLY_BELOW: "≺",
    DominanceOutcome.RIGHT_STRICTLY_BELOW: "≻",
    DominanceOutcome.INCOMPARABLE: "∥",
}


def per_cell_batch(rows, mode, eps):
    """Reference matrix: one comparison per ordered cell, as each cell was once computed."""
    arrays = [make_array(row) for row in rows]

    def cell(x, y):
        if mode == "classical":
            return OUTCOME[classical_majorizes(x, y, eps), classical_majorizes(y, x, eps)]
        return generalized_compare(x, y, eps)
    return [[_SYMBOL[cell(x, y)] for y in arrays] for x in arrays]


def _seeded_rows(seed, kind):
    rng = random.Random(seed)
    if kind == "integers":
        return [[rng.randint(0, 4) for _ in range(5)] for _ in range(14)]
    if kind == "float-pairs":  # dominated pairs, so some cells are comparable
        return [list(a) for s in range(7) for a in random_dominated_pair(seed + s, 6, 4, integer_mode=False)]
    rows = [[rng.uniform(0, 10) for _ in range(5)] for _ in range(14)]
    return [[v / sum(row) for v in row] for row in rows]  # shares: every total within rounding of 1


_JUST_OVER = math.nextafter(2.25, 3) - 1  # 1 + this is the float right above 2.25, exactly


@pytest.mark.parametrize("rows,eps", [
    pytest.param(_seeded_rows(1, "integers"), 0.0, id="integers-eps0"),
    pytest.param(_seeded_rows(2, "float-pairs"), None, id="floats-default-eps"),
    pytest.param(_seeded_rows(3, "shares"), None, id="shared-total"),
    # totals 2, 2.25 (exactly eps above), 2.25 + 1 ulp (just over eps above 2) and 2.5
    pytest.param([[1, 1], [1.25, 1], [1, _JUST_OVER], [0.5, 1.5], [2.5, 0], [1, 1.25]], 0.25,
                 id="totals-at-eps"),
    pytest.param([[3], [3], [2], [0], [2.5]], 0.5, id="width-one"),
    pytest.param([[1, 2, 3]], 0.0, id="single-row"),
    pytest.param([[2, 1, 0], [2, 1, 0], [1, 2, 0], [2, 1, 0], [0, 3, 0]], 0.0, id="duplicate-rows"),
])
def test_batch_matches_per_cell_comparisons(tmp_path, capsys, rows, eps):
    table = tmp_path / "t.csv"
    table.write_text("".join(f"r{k}," + ",".join(map(repr, row)) + "\n" for k, row in enumerate(rows)))
    ids = [f"r{k}" for k in range(len(rows))]
    for mode in ("general", "classical"):
        report = tmp_path / f"{mode}.json"
        argv = ["batch", "--input", str(table), "--mode", mode, "--out", str(report)]
        code, out, _ = run(capsys, *argv, *([] if eps is None else ["--eps", repr(eps)]))
        assert code == 0
        expected = per_cell_batch(rows, mode, eps)
        assert json.loads(report.read_text(encoding="utf-8"))["matrix"] == expected
        assert out.splitlines() == ["\t".join(["id", *ids])] + [
            "\t".join([eid, *row]) for eid, row in zip(ids, expected)]


def test_batch_general_decides_each_pair_through_cli_generalized_compare(tmp_path, capsys, monkeypatch):
    # the benchmark traces and replaces cli.generalized_compare, so batch must call it
    table = tmp_path / "t.csv"
    table.write_text("a,2,2\nb,3,1\nc,1,1\n")
    calls = []

    def wrong_first_pair(x, y, tol=None):
        calls.append((tuple(x.values), tuple(y.values)))
        return DominanceOutcome.INCOMPARABLE if len(calls) == 1 else generalized_compare(x, y, tol)

    monkeypatch.setattr("majorize.cli.generalized_compare", wrong_first_pair)
    code, out, _ = run(capsys, "batch", "--input", str(table))
    assert code == 0
    assert calls == [((2, 2), (3, 1)), ((2, 2), (1, 1)), ((3, 1), (1, 1))]
    assert out.splitlines()[1:3] == ["a\t=\t∥\t≻", "b\t∥\t=\t≻"]


def test_batch_general_skips_only_the_pairs_sampled_prefixes_exclude(tmp_path, capsys, monkeypatch):
    # 5 periods, so the filter samples prefixes 1, 2, 4 and 5.  Running sums:
    # a 3,3,3,4,4; b 2,2,4,5,5; c 0,0,1,1,1; d 2,2,4,4,4.  Prefix 1 excludes
    # a below b and prefix 4 excludes b below a, so (a, b) is never compared;
    # d rises above a only at prefix 3, which is not sampled, so (a, d) is
    rows = {"a": (3, 0, 0, 1, 0), "b": (2, 0, 2, 1, 0), "c": (0, 0, 1, 0, 0), "d": (2, 0, 2, 0, 0)}
    table = tmp_path / "t.csv"
    table.write_text("".join(f"{eid}," + ",".join(map(str, row)) + "\n" for eid, row in rows.items()))
    calls = []

    def recorded(x, y, tol=None):
        calls.append((tuple(x.values), tuple(y.values)))
        return generalized_compare(x, y, tol)

    monkeypatch.setattr("majorize.cli.generalized_compare", recorded)
    code, out, _ = run(capsys, "batch", "--input", str(table))
    assert code == 0
    a, b, c, d = rows.values()
    assert calls == [(a, c), (a, d), (b, c), (b, d), (c, d)]
    assert out.splitlines() == ["id\ta\tb\tc\td", "a\t=\t∥\t≻\t∥", "b\t∥\t=\t≻\t≻",
                                "c\t≺\t≺\t=\t≺", "d\t∥\t≺\t≻\t="]
    arrays = [make_array(row) for row in rows.values()]
    assert dominance_matrix(arrays) == [[generalized_compare(x, y) for y in arrays] for x in arrays]


LONG_CELL = "1" * 131_073  # one past csv's default field size limit


@pytest.mark.parametrize("content,fragment", [
    ("a,1,2\nb,1\n", "row 2"),
    ("a,1,2\na,3,4\n", "duplicate id"),
    ("a,1,-2\n", "row 1"),
    ("a,1,2\nb,1,zebra\n", "row 2"),
    ("id,p1,p2\na,1,2,3\n", "row 2: 3 values but 2 period labels"),
    ("", "empty"),
    pytest.param(f"a,1,2\nb,1,{LONG_CELL}\n", "row 2: field larger than field limit", id="long-cell"),
    ("a,1,2\nb,1e308,1e308\n", "row 2: the components sum past the largest float"),
    ("a,1,2\nb,1,nan\n", "row 2: component 2 must be a finite non-negative number, got nan"),
])
def test_batch_rejects_bad_csv(tmp_path, capsys, content, fragment):
    table = tmp_path / "t.csv"
    table.write_text(content)
    code, _, err = run(capsys, "batch", "--input", str(table))
    assert code == 2
    assert fragment in err


def _reference_batch(table, mode, eps):
    """Stdout and ``--out`` text of ``batch``, encoded cell by cell as each once was."""
    ids = list(table)
    matrix = [[_SYMBOL[outcome] for outcome in row]
              for row in dominance_matrix(list(table.values()), eps, mode == "classical")]
    stdout = "".join("\t".join(cells) + "\n" for cells in [["id", *ids]] + [
        [eid, *row] for eid, row in zip(ids, matrix)])
    report = {"mode": mode, "eps": eps, "ids": ids, "matrix": matrix}
    return stdout, json.dumps(report, ensure_ascii=False) + "\n"


_IDS = st.lists(st.text(alphabet='ab"\\,é≺', min_size=1, max_size=4), min_size=1, max_size=12, unique=True)


@given(ids=_IDS, n=st.integers(1, 4), data=st.data(), mode=st.sampled_from(["general", "classical"]),
       eps=st.sampled_from([0.0, 1e-9]))
@settings(max_examples=150, deadline=None)
def test_batch_writes_what_the_cell_by_cell_encoder_writes(fuzz_file, ids, n, data, mode, eps):
    values = st.integers(0, 3) | st.sampled_from([0.1, 0.2, 0.3, 1e-9, 2.5])
    rows = [data.draw(st.lists(values, min_size=n, max_size=n)) for _ in ids]
    table, report = fuzz_file.with_name("table.csv"), fuzz_file.with_name("report.json")
    with open(table, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([eid, *map(repr, row)] for eid, row in zip(ids, rows))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["batch", "--input", str(table), "--mode", mode, "--eps", repr(eps),
                     "--out", str(report)])
    assert code == 0
    expected_stdout, expected_report = _reference_batch(
        {eid: make_array(row) for eid, row in zip(ids, rows)}, mode, eps)
    assert stdout.getvalue() == expected_stdout
    assert report.read_bytes() == expected_report.encode("utf-8")


def test_batch_peak_memory_per_cell(tmp_path):
    # the matrix holds one symbol per cell, and each row is let go once its stdout
    # line and JSON row are joined: about 4 + 10 bytes of UCS-2 text per cell at
    # the end, with no whole-matrix string; keeping the matrix alive while joining
    # reads about 24 bytes per cell, and whole-text joins about 38
    m, n = 1000, 36
    rng = random.Random(1)
    table = tmp_path / "t.csv"
    table.write_text("".join(f"u{k}," + ",".join([str(rng.randint(0, 100)) for _ in range(n)]) + "\n"
                             for k in range(m)))
    argv = ["batch", "--input", str(table), "--mode", "classical", "--eps", "0",
            "--out", str(tmp_path / "r.json")]
    with open(os.devnull, "w", encoding="utf-8") as devnull, contextlib.redirect_stdout(devnull):
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak <= 20 * m * m, peak / (m * m)


_TOKENS = st.sampled_from(["a", "b", "id", "1,2", "0,0", "-1", "--eps", ""]) | st.text(max_size=12)
_CSV_TEXT = st.text(
    alphabet=st.sampled_from("ab01,.-e\n\" id") | st.characters(exclude_categories=("Cs",)),
    max_size=60,
)


@given(text=_CSV_TEXT, left=_TOKENS, right=_TOKENS)
@example(text=f"a,1\nb,{LONG_CELL}\n", left="a", right="b")
@settings(max_examples=300, deadline=None)
def test_cli_survives_any_text_input(fuzz_file, text, left, right):
    table = fuzz_file.with_name("table.csv")
    table.write_text(text, encoding="utf-8")
    for argv in (["batch", "--input", str(table)],
                 ["check", left, right, "--input", str(table)],
                 ["check", left, right],
                 ["lorenz", left]):
        assert main(argv) in (0, 1, 2), argv


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("flags,fragment", [
    (["--n", "0"], "n must be >= 1"),
    (["--n", "2", "--k", "-1"], "k must be >= 0"),
    (["--n", "2", "--count", "0"], "--count must be >= 1"),
])
def test_gen_rejects_bad_sizes(capsys, flags, fragment):
    code, _, err = run(capsys, "gen", "--seed", "1", *flags)
    assert code == 2
    assert fragment in err


def test_gen_deterministic_output(capsys):
    code, first, _ = run(capsys, "gen", "--seed", "1", "--n", "4", "--k", "3", "--count", "5")
    assert code == 0
    code, second, _ = run(capsys, "gen", "--seed", "1", "--n", "4", "--k", "3", "--count", "5")
    assert code == 0
    assert first == second
    assert len(first.strip().splitlines()) == 5


def test_gen_out_writes_what_stdout_would_show(tmp_path, capsys):
    flags = ["gen", "--seed", "1", "--n", "4", "--k", "3", "--count", "5"]
    code, printed, _ = run(capsys, *flags)
    assert code == 0
    path = tmp_path / "pairs.txt"
    code, out, _ = run(capsys, *flags, "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text(encoding="utf-8") == printed


def test_gen_zero_moves_emits_equal_pair(capsys):
    code, out, _ = run(capsys, "gen", "--seed", "1", "--n", "4", "--k", "0", "--count", "1")
    assert code == 0
    left, right = out.split()
    assert left == right


def test_gen_pairs_pass_check(capsys):
    code, out, _ = run(capsys, "gen", "--seed", "9", "--n", "5", "--k", "4", "--count", "10")
    assert code == 0
    for line in out.strip().splitlines():
        left, right = line.split()
        assert main(["check", left, right]) == 0
        capsys.readouterr()


def test_gen_transfers_only_keeps_totals(capsys):
    code, out, _ = run(capsys, "gen", "--seed", "2", "--n", "6", "--k", "5",
                       "--count", "8", "--transfers-only")
    assert code == 0
    for line in out.strip().splitlines():
        left, right = line.split()
        lv = [float(v) for v in left.split(",")]
        rv = [float(v) for v in right.split(",")]
        assert sum(lv) == sum(rv)


def test_gen_float_mode_pairs_pass_check(capsys):
    code, out, _ = run(capsys, "gen", "--seed", "3", "--n", "4", "--k", "3",
                       "--count", "5", "--float")
    assert code == 0
    for line in out.strip().splitlines():
        left, right = line.split()
        assert main(["check", left, right]) == 0
        capsys.readouterr()


# ---------------------------------------------------------------------------
# timeline CSV parsing
# ---------------------------------------------------------------------------

def test_timeline_parse_with_header():
    table = parse_timeline_csv("id,2025,2024,2023\nbeta,1,0,4\nalpha,3,2,1\n")
    assert list(table) == ["beta", "alpha"]  # file order, header skipped
    assert table["alpha"] == make_array([3, 2, 1])
    assert table["beta"] == make_array([1, 0, 4])


def test_timeline_parse_without_header():
    table = parse_timeline_csv("b,0.1,2.5\na,1.0,0.3\n")
    assert table == {"b": make_array([0.1, 2.5]), "a": make_array([1.0, 0.3])}
    assert list(table) == ["b", "a"]


def _reference_parse(text):
    """The per-row reference parser: each row checked and built alone, through ``make_array``."""
    rows = []
    num = 0
    try:
        for num, row in enumerate(csv.reader(io.StringIO(text)), start=1):
            if any(cell.strip() for cell in row):
                rows.append((num, row))
    except csv.Error as exc:
        raise MajorizeError(f"row {num + 1}: {exc}") from exc
    if not rows:
        raise MajorizeError("empty timeline CSV")
    n_labels = None
    first_row = rows[0][1]
    is_header = len(first_row) >= 2 and (
        first_row[0].strip().lower() == "id" or any(not majorize.cli._is_number(c) for c in first_row[1:])
    )
    if is_header:
        n_labels = len(first_row) - 1
        rows = rows[1:]
        if not rows:
            raise MajorizeError("timeline CSV has a header but no data rows")
    table = {}
    width = None
    for num, row in rows:
        if len(row) < 2:
            raise MajorizeError(f"row {num}: expected an id and at least one value")
        eid = row[0].strip()
        if eid in table:
            raise MajorizeError(f"row {num}: duplicate id {eid!r}")
        if width is None:
            width = len(row) - 1
            if n_labels is not None and n_labels != width:
                raise MajorizeError(f"row {num}: {width} values but {n_labels} period labels")
        elif len(row) - 1 != width:
            raise MajorizeError(f"row {num}: {len(row) - 1} values, expected {width}")
        try:
            table[eid] = make_array([float(c) for c in row[1:]])
        except ValueError as exc:
            raise MajorizeError(f"row {num}: {exc}") from exc
    return table


def _parsed(parse, text):
    """Each id with its values as ``float.hex`` texts (bit for bit, -0.0 apart), or the error text."""
    try:
        table = parse(text)
    except MajorizeError as exc:
        return str(exc)
    assert all(type(arr) is Array for arr in table.values())
    return [(eid, [v.hex() for v in arr.values]) for eid, arr in table.items()]


_CSV_CELLS = st.sampled_from(["0", "1", "2.5", "-0.0", " 3 ", '"4"', "1e308", "5e-324", "1_0",
                              "-1", "nan", "inf", "zebra", "", " "])
_CSV_IDS = st.sampled_from(["a", "b", "c", " a ", "id", '"x,y"', '"q""t"', "é", ""])
_CSV_LINES = st.lists(
    st.builds(lambda eid, cells: ",".join([eid, *cells]), _CSV_IDS, st.lists(_CSV_CELLS, min_size=1, max_size=4))
    | st.sampled_from(["", ",", " , ", "g", "a,1,2", "b,0,3", "c,1", "d,1,2,3", "e,2.5,-0.0",
                       'f, 3 ,"4"', "a,1e308,1e308"]),
    max_size=8,
) | st.integers(1, 4).flatmap(  # tables that pass, but for an odd value
    lambda width: st.lists(st.lists(_CSV_CELLS.filter(majorize.cli._is_number) | st.floats(0),
                                    min_size=width, max_size=width), min_size=1, max_size=8)
).map(lambda rows: [",".join([f"r{k}", *map(str, row)]) for k, row in enumerate(rows)])


@given(bom=st.sampled_from(["", "\ufeff"]),
       header=st.sampled_from(["", "as-wide", "id,t1,t2", "ID,2021,2022,2023", "name,p1,p2", "id,1"]),
       lines=_CSV_LINES, newline=st.sampled_from(["\n", "\r\n"]), end=st.booleans())
@example(bom="", header="", lines=["a,1,2", "b,1e308,1e308"], newline="\n", end=True)
@example(bom="", header="id,t1,t2", lines=["a,1,-0.0", "b,nan,1"], newline="\r\n", end=False)
@settings(max_examples=500, deadline=None)
def test_bulk_checked_parse_matches_the_per_row_parse(bom, header, lines, newline, end):
    if header == "as-wide":  # as many labels as the first line has commas
        header = "id" + ",t" * (lines[0].count(",") if lines else 1)
    text = bom + newline.join([header, *lines] if header else lines) + (newline if end else "")
    assert _parsed(parse_timeline_csv, text) == _parsed(_reference_parse, text)


def test_bulk_checked_parse_keeps_negative_zero():
    table = parse_timeline_csv("a,-0.0,1\nb,2,0\n")
    assert [math.copysign(1.0, v) for v in table["a"].values] == [-1.0, 1.0]


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

def test_main_builds_no_parser_after_the_first_call(tmp_path, capsys, monkeypatch):
    cert = tmp_path / "cert.json"
    table = tmp_path / "table.csv"
    table.write_text("a,2,2\nb,3,1\n", encoding="utf-8")
    assert main(["check", "1,3", "2,2"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    calls = [
        ["check", "1,3", "2,2", "--json"],
        ["check", "3,1", "2,2", "--mode", "classical"],
        ["decompose", "4,4,4,4", "14,1,1,1", "--mode", "decreasing", "--out", str(cert)],
        ["verify", "--cert", str(cert)],
        ["verify", "--cert", str(cert), "--eps", "0"],
        ["decompose", "3,2,1", "4,1,1", "--mode", "transfers"],
        ["decompose", "3,1", "2,2"],
        ["lorenz", "3,1"],
        ["lorenz", "1,2,3", "--format", "json"],
        ["batch", "--input", str(table)],
        ["batch", "--input", str(table), "--mode", "classical"],
        ["check", "a", "b", "--input", str(table)],
        ["gen", "--seed", "1", "--n", "4", "--k", "3"],
        ["gen", "--seed", "2", "--n", "3", "--count", "2", "--float"],
        ["verify"],
        ["check", "1,2", "1,2", "--eps", "x"],
        ["frobnicate"],
        ["lorenz", "0,0"],
        ["check", "1,2", "1,2,3"],
        ["decompose", "1,5,2", "3,4,3", "--mode", "general", "--eps", "1e-9"],
    ]
    for argv in calls:
        main(argv)
    capsys.readouterr()
    assert built == []


def test_decompose_without_out_leaves_an_earlier_out_file_alone(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code, _, _ = run(capsys, "decompose", "1,5,2", "3,4,3", "--out", str(cert))
    assert code == 0
    written, stamp = cert.read_bytes(), cert.stat().st_mtime_ns
    code, out, _ = run(capsys, "decompose", "4,4,4,4", "14,1,1,1", "--mode", "decreasing")
    assert code == 0 and out.startswith("(4,4,4,4) ≺ ")
    assert cert.read_bytes() == written
    assert cert.stat().st_mtime_ns == stamp


def test_check_after_check_json_prints_the_plain_verdict(capsys):
    code, out, _ = run(capsys, "check", "1,3", "2,2", "--json")
    assert code == 0 and json.loads(out)["verdict"] == "LeftStrictlyBelow"
    assert run(capsys, "check", "1,3", "2,2") == (0, "LeftStrictlyBelow\n", "")


@pytest.mark.parametrize("bad,good", [
    (["verify"], ["check", "3,1", "2,2"]),
    (["check", "3,1", "2,2", "--mode", "bogus"], ["check", "3,1", "2,2"]),
    (["check", "1,1", "1,1", "--eps", "x"], ["check", "1,1", "1,1.0000000001"]),
    (["decompose", "1,1", "--mode", "transfers"], ["decompose", "3,2,1", "4,1,1"]),
    (["gen", "--seed", "1"], ["gen", "--seed", "1", "--n", "3"]),
    (["frobnicate"], ["lorenz", "3,1"]),
])
def test_a_usage_error_leaves_the_next_command_unchanged(capsys, bad, good):
    alone = run(capsys, *good)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(bad)
    assert code == 2
    assert stderr.getvalue().startswith("usage: majorize")
    assert capsys.readouterr() == ("", "")
    assert run(capsys, *good) == alone


def _help(parse, argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        parse(argv)
    assert exc.value.code == 0
    return out.getvalue()


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_matches_a_freshly_built_parser_at_any_width(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "300")
    assert main(["check", "1,3", "2,2"]) == 0
    capsys.readouterr()
    texts = set()
    for columns in ("40", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        fresh = _help(build_parser.__wrapped__().parse_args, argv)
        assert run(capsys, *argv) == (0, fresh, "")
        texts.add(fresh)
    assert len(texts) == 2


# ---------------------------------------------------------------------------
# start-up cost and the benchmark's trace hooks
# ---------------------------------------------------------------------------

def test_importing_the_cli_loads_no_heavy_stdlib_modules():
    # dataclasses pulls in inspect, ast, dis and tokenize; statistics pulls in
    # fractions, decimal and numbers: together about 40 % of the import time
    code = ("import sys; before = set(sys.modules); import majorize.cli; "
            "print(majorize.cli.__file__); print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60, check=True)
    path, added = proc.stdout.splitlines()
    assert Path(path).resolve().parent == SRC / "majorize"
    assert {"dataclasses", "inspect", "statistics", "fractions", "decimal"}.isdisjoint(added.split())


# what bench/run.py's instrument() rebinds to trace a layer, where the rebinding
# takes effect; a name that no longer resolves there silently reads 0
BENCH_TRACE_TARGETS = [
    (Array, "__post_init__"),
    (majorize.cli, "generalized_compare"),
    (majorize.cli, "decompose_general"),
    (majorize.cli, "decompose_decreasing"),
    (majorize.cli, "decompose_transfers"),
    (majorize.cli, "verify_certificate"),
    (majorize.decompose, "apply_eii"),
    (majorize.decompose, "sort_desc"),
    (majorize.decompose, "replay"),
    (Certificate, "to_json"),
    (Certificate, "from_json"),
    (majorize.cli, "classical_majorizes"),
    (majorize.cli, "lorenz_points"),
    (majorize.lorenz, "lorenz_points"),
    (majorize.cli, "gini"),
    (majorize.cli, "parse_array_literal"),
    (majorize.cli, "parse_timeline_csv"),
]


def test_benchmark_trace_targets_resolve_where_they_are_patched():
    missing = [f"{owner.__name__}.{attr}" for owner, attr in BENCH_TRACE_TARGETS
               if vars(owner).get(attr) is None]
    assert missing == []


def test_make_array_runs_the_validation_hook_once_per_array(monkeypatch):
    seen = []
    post_init = Array.__post_init__

    def counted(self):
        seen.append(self.values)
        post_init(self)

    monkeypatch.setattr(Array, "__post_init__", counted)
    arrays = [make_array(v) for v in ([1, 2], (0.5,), range(4))]
    assert seen == [(1, 2), (0.5,), (0, 1, 2, 3)]
    assert [a.values for a in arrays] == [(1.0, 2.0), (0.5,), (0.0, 1.0, 2.0, 3.0)]
    with pytest.raises(MajorizeError):
        make_array([1, -1])
    assert len(seen) == 4
