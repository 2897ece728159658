"""``batch`` output must stay byte-identical across refactors of the matrix kernels.

Each table is built from a seeded ``random.Random`` and written as a timeline
CSV; for each mode the digest covers stdout and the ``--out`` JSON of
``batch`` at ``--eps`` 0, 1e-9 and 0.5, in that order, so any change in a
cell, the pair order, the JSON head or the escaping of ids shows up here.
"""

import hashlib
import math
import random

import pytest

from majorize.cli import main

EPS = ["0", "1e-9", "0.5"]


def _csv(rows):
    return "".join(eid + "," + ",".join(map(repr, row)) + "\n" for eid, row in rows)


def _chained():
    """8 groups of 8 integer rows, each moved from the last; groups 0, 2, ... use transfers only."""
    rng = random.Random(29)
    rows = []
    for g in range(8):
        row = [rng.randint(0, 20) for _ in range(24)]
        for r in range(8):
            rows.append((f"g{g}r{r}", row))
            row = [*row]
            i = rng.randrange(24)
            j = rng.randrange(i, 24)
            if j > i and g % 2 == 0:  # a transfer from j to the earlier i
                a = rng.randint(0, row[j])
                row[j] -= a
                row[i] += a
            else:
                row[i] += rng.randint(1, 5)
    rng.shuffle(rows)
    return _csv(rows)


def _uniform():
    """60 rows of 36 integers in 0..100 after a header; ids with a quote and a non-ASCII letter."""
    rng = random.Random(30)
    ids = ['"q""t"', "é", *(f"u{k}" for k in range(2, 60))]
    header = "id," + ",".join(f"p{k}" for k in range(1, 37)) + "\n"
    return header + "".join(eid + "," + ",".join(str(rng.randint(0, 100)) for _ in range(36)) + "\n"
                            for eid in ids)


def _unit_floats():
    """60 rows of 36 floats, each row scaled by its ``math.fsum`` to sum to about 1.

    ``math.fsum`` is correctly rounded on every Python version; ``sum()``
    compensates rounding from 3.12 on, which would move each total by an ulp.
    """
    rng = random.Random(31)
    rows = []
    for k in range(60):
        row = [rng.random() for _ in range(36)]
        total = math.fsum(row)
        rows.append((f"f{k}", [v / total for v in row]))
    return _csv(rows)


def _gaps():
    """The table CI's console-script step checks at eps 0.25 and 0."""
    return "a,1,1\nb,1.25,1\nc,0.5,1.5\nd,2.5,0\n"


@pytest.mark.parametrize("table, mode, digest", [
    (_chained, "general",
     "f08bd18a718d121e5c5a5fa6abaca02ac42ee2b917df23c6295706344dce9f78"),
    (_chained, "classical",
     "00b6897c141279283d5632358112ea04e445c11943ff7de4675750882aa29c2e"),
    (_uniform, "general",
     "7a9585d6b62992fa2c4c426f5298112be8270d6fbfc213b05746e75a5074a27b"),
    (_uniform, "classical",
     "e2296e31e85e9254695e4cce51451230fc262047e24da7bd1619f891ad3f8b25"),
    (_unit_floats, "general",
     "2fc529c12fae29e75b6b7869571a6331c6ea3a8dc9097a1ad94ad477d00eadbb"),
    (_unit_floats, "classical",
     "5e5725b796ad8fb0abfbdd00bcb83846e139c4d2008eb6adb5918821873b0060"),
    (_gaps, "general",
     "d6b297088f14343085b5d428fe3afc4080982d85a8ee0ed020e65530eb09b225"),
    (_gaps, "classical",
     "b0981bba63a4b58dfbc89a88e69a14819917b902e8d29908d5b1f5e0c8ba3a57"),
], ids=["chained-general", "chained-classical", "uniform-general", "uniform-classical",
        "unit-floats-general", "unit-floats-classical", "gaps-general", "gaps-classical"])
def test_batch_output_digest(tmp_path, capsys, table, mode, digest):
    source = tmp_path / "t.csv"
    source.write_text(table(), encoding="utf-8")
    report = tmp_path / "report.json"
    h = hashlib.sha256()
    for eps in EPS:
        code = main(["batch", "--input", str(source), "--mode", mode, "--eps", eps, "--out", str(report)])
        assert code == 0
        h.update(capsys.readouterr().out.encode("utf-8"))
        h.update(report.read_bytes())
    assert h.hexdigest() == digest
