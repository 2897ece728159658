"""Seeded generators for test corpora, independent of the library's own sampler."""

from __future__ import annotations

import json
import random
import re

from majorize import Array, make_array


def sized(i: int) -> tuple[int, int]:
    """Deterministic spread of lengths 1..12 and move counts for seeded suites."""
    n = (i % 12) + 1
    k = (i * 7) % (2 * n + 1)
    return n, k


def classical_pair(seed: int, n: int, k: int) -> tuple[Array, Array]:
    """Equal-total integer pair with X classically majorized by Y.

    Y is sampled, then k equalizing moves (shift part of the gap from a larger
    component onto a smaller one) produce X; each move keeps the result
    majorized by its predecessor regardless of positions.
    """
    rng = random.Random(seed)
    y = [float(rng.randint(0, 100)) for _ in range(n)]
    x = list(y)
    for _ in range(k):
        if n < 2:
            break
        p = rng.randrange(n)
        q = rng.randrange(n)
        if x[p] < x[q]:
            p, q = q, p
        gap = x[p] - x[q]
        if gap <= 0:
            continue
        a = float(rng.randint(0, int(gap)))
        x[p] -= a
        x[q] += a
    return make_array(x), make_array(y)


def decreasing_pair(seed: int, n: int, k: int, integer_mode: bool = True) -> tuple[Array, Array]:
    """Pair with both arrays non-increasing and X below Y.

    Starts from a ranked sample and applies k forward impact moves, re-ranking
    after each, so the chain stays inside the dominance cone of its endpoint.
    Integer mode draws values in 0..100 and integral amounts; otherwise the
    same draws are uniform floats.
    """
    rng = random.Random(seed)

    def draw(hi: float) -> float:
        return float(rng.randint(0, int(hi))) if integer_mode else rng.uniform(0.0, hi)

    x = sorted((draw(100) for _ in range(n)), reverse=True)
    w = list(x)
    for _ in range(k):
        if n > 1 and rng.random() < 0.7:
            i = rng.randint(1, n - 1)
            j = rng.randint(i + 1, n)
            a = draw(w[j - 1])
            w[i - 1] += a
            w[j - 1] -= a
        else:
            i = rng.randint(1, n)
            w[i - 1] += draw(50)
        w.sort(reverse=True)
    return make_array(x), make_array(w)


def random_eii_case(seed: int, max_n: int = 12, max_value: int = 100):
    """A random integer array plus one admissible impact step on it."""
    from majorize import Increase, Transfer

    rng = random.Random(seed)
    n = rng.randint(1, max_n)
    vals = [float(rng.randint(0, max_value)) for _ in range(n)]
    x = make_array(vals)
    donors = [j for j in range(1, n + 1) if vals[j - 1] >= 1.0 and j >= 2]
    if donors and rng.random() < 0.6:
        j = rng.choice(donors)
        i = rng.randint(1, j - 1)
        a = float(rng.randint(1, int(vals[j - 1])))
        return x, Transfer(i, j, a)
    i = rng.randint(1, n)
    return x, Increase(i, float(rng.randint(1, 50)))


class NumberText:
    """A JSON number given by its text, such as the int ``-0``, which ``json.dumps`` writes as
    ``0``, or an int past the digit limit, which it refuses."""

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:
        return f"<{len(self.text)}-character number>"


def dumps(value) -> str:
    """``json.dumps(value)``, with each ``NumberText`` written as its bare text."""
    text = json.dumps(value, default=lambda number: "\0" + number.text + "\0")
    return re.sub(r'"\\u0000([-+.\de]*)\\u0000"', r"\1", text)
