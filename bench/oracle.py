"""The benchmark's own reference answers, written without the program's code.

Everything here runs outside the timed region.  Each check returns ``None``
when the program's output is right and a one-line description otherwise.
"""

from __future__ import annotations

import random
from itertools import accumulate

BELOW, ABOVE, EQUAL, APART = "≺", "≻", "=", "∥"
_FLIP = {BELOW: ABOVE, ABOVE: BELOW, EQUAL: EQUAL, APART: APART}


def _symbol(below: bool, above: bool) -> str:
    if below and above:
        return EQUAL
    if below:
        return BELOW
    return ABOVE if above else APART


def _prefix_symbol(px, py, eps: float) -> str:
    below = all(a <= b + eps for a, b in zip(px, py))
    above = all(b <= a + eps for a, b in zip(px, py))
    return _symbol(below, above)


def _ranked_symbol(rx, ry, eps: float) -> str:
    # classical order: ranked prefix sums below, totals equal
    totals = abs(rx[-1] - ry[-1]) <= eps
    below = totals and all(a <= b + eps for a, b in zip(rx[:-1], ry[:-1]))
    above = totals and all(b <= a + eps for a, b in zip(rx[:-1], ry[:-1]))
    return _symbol(below, above)


def batch_matrix(rows, mode: str, eps: float) -> list[list[str]]:
    """Reference dominance matrix of the rows; cell [a][b] compares row a with row b."""
    floats = [[float(v) for v in row.values] for row in rows]
    if mode == "classical":
        sums = [list(accumulate(sorted(v, reverse=True))) for v in floats]
        cell = _ranked_symbol
    else:
        sums = [list(accumulate(v)) for v in floats]
        cell = _prefix_symbol
    m = len(rows)
    matrix = [[EQUAL] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            sym = cell(sums[a], sums[b], eps)
            matrix[a][b] = sym
            matrix[b][a] = _FLIP[sym]
        matrix[a][a] = cell(sums[a], sums[a], eps)
    return matrix


def batch_problem(report: dict, rows, expected: list[list[str]]) -> str | None:
    ids = [row.entity for row in rows]
    if report.get("ids") != ids:
        return "batch report lists other entity ids"
    got = report.get("matrix")
    if not isinstance(got, list) or len(got) != len(expected):
        return "batch report has a matrix of the wrong shape"
    wrong = sum(1 for g, e in zip(got, expected) for gc, ec in zip(g, e) if gc != ec)
    wrong += sum(abs(len(g) - len(e)) for g, e in zip(got, expected))
    return f"{wrong} batch matrix cells differ from the reference" if wrong else None


def mad_gini(values) -> float:
    """Gini index as the mean absolute difference over twice the mean (n² pairs)."""
    ranked = sorted(float(v) for v in values)
    n = len(ranked)
    total = sum(ranked)
    spread = sum((2 * k - n + 1) * v for k, v in enumerate(ranked))  # sum over i<j of |xi-xj|
    return spread / (n * total)


def lorenz_problem(payload: dict, values) -> str | None:
    points = payload.get("points")
    if not isinstance(points, list) or len(points) != len(values) + 1:
        return "lorenz output has the wrong number of points"
    if points[0] != [0.0, 0.0] or abs(points[-1][0] - 1.0) > 1e-12 or abs(points[-1][1] - 1.0) > 1e-12:
        return "lorenz curve does not run from (0,0) to (1,1)"
    expected = mad_gini(values)
    got = payload.get("gini")
    if not isinstance(got, float) or abs(got - expected) > 1e-9:
        return f"gini {got!r} differs from the reference {expected!r}"
    return None


def certificate_problem(data: dict, mode: str, x, y, eps: float) -> str | None:
    """Endpoint check: the certificate starts at x, claims y, and its last state is y."""
    if data.get("mode") != mode:
        return f"certificate mode {data.get('mode')!r}, expected {mode!r}"
    if data.get("source") != [float(v) for v in x] or data.get("target") != [float(v) for v in y]:
        return "certificate source or target differs from the input pair"
    steps, inters = data.get("steps"), data.get("intermediates")
    if not isinstance(steps, list) or not isinstance(inters, list) or len(steps) != len(inters):
        return "certificate steps and intermediates do not pair up"
    final = inters[-1] if inters else data["source"]
    slack = len(y) * eps
    if len(final) != len(y) or any(abs(f - t) > slack for f, t in zip(final, y)):
        return "certificate does not end at the target"
    return None


def step_counts(data: dict) -> dict[str, int]:
    counts = {"transfer": 0, "increase": 0, "sort_desc": 0}
    for step in data["steps"]:
        counts[step["type"]] += 1
    return counts


TAMPERINGS = ("amount", "drop", "intermediate")


def tamper(data: dict, rng: random.Random) -> tuple[dict, str]:
    """A copy of the certificate that no correct verifier may accept.

    Alters one step amount by +1, drops one impact step with its state, or
    adds 1 to one component of one intermediate.  Only steps moving at least
    1 are chosen, so every change exceeds the verifier's ``n * eps`` replay
    slack for any eps below ``1 / n``.
    """
    # copy only the lists and objects that change; the rest is shared with ``data``
    bad = dict(data, steps=list(data["steps"]), intermediates=list(data["intermediates"]))
    impact = [t for t, s in enumerate(bad["steps"]) if s["type"] != "sort_desc" and s["a"] >= 1]
    kind = rng.choice(TAMPERINGS) if impact else "intermediate"
    if kind == "intermediate" and bad["intermediates"]:
        t = rng.randrange(len(bad["intermediates"]))
        k = rng.randrange(len(bad["intermediates"][t]))
        bad["intermediates"][t] = list(bad["intermediates"][t])
        bad["intermediates"][t][k] += 1
        return bad, f"intermediate {t} component {k} + 1"
    if kind == "intermediate":  # no steps at all: claim a different target
        bad["target"] = [bad["target"][0] + 1, *bad["target"][1:]]
        return bad, "target component 0 + 1"
    t = rng.choice(impact)
    if kind == "amount":
        bad["steps"][t] = dict(bad["steps"][t], a=bad["steps"][t]["a"] + 1)
        return bad, f"step {t} amount + 1"
    del bad["steps"][t]
    del bad["intermediates"][t]
    return bad, f"step {t} dropped"
