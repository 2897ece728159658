"""Seeded input generators for the benchmark.

Every generator draws from a ``random.Random`` that the caller seeds, so one
``--seed`` fixes every input of a run.  Components are integers in 0..100,
exact at ``eps = 0``, unless the float form is asked for.  The program under
test never sees the seed, only the arrays and files built here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

MAX_VALUE = 100
SHIFT_SHARE = 0.7  # share of inverse moves that shift mass rather than delete it
MAX_GAP = 6  # rows apart, at most, in a table pair: certificates of like length


@dataclass(frozen=True)
class Pair:
    """One certification job: ``x`` must be dominated by ``y`` under ``mode``.

    ``left``/``right`` are the CLI operands: array literals, or entity ids of
    the workload's timeline table when ``by_id`` is set.
    """

    mode: str
    x: tuple
    y: tuple
    eps: float
    left: str
    right: str
    by_id: bool = False


@dataclass(frozen=True)
class Row:
    entity: str
    values: tuple


def literal(values) -> str:
    """Lossless CLI literal: integers without a point, floats by repr."""
    return ",".join(str(v) if isinstance(v, int) else repr(float(v)) for v in values)


def _amount(rng: random.Random, available, integer: bool):
    return rng.randint(0, int(available)) if integer else rng.uniform(0.0, available)


def inverse_move(rng: random.Random, x: list, integer: bool, transfers_only: bool) -> None:
    """Shift mass from an earlier position to a later one, or delete mass.

    Either move leaves ``x`` dominated by its previous value, so a chain of
    moves stays dominated by its start.  Transfers keep the total.
    """
    n = len(x)
    if n > 1 and (transfers_only or rng.random() < SHIFT_SHARE):
        i = rng.randrange(n - 1)
        j = rng.randrange(i + 1, n)
        a = _amount(rng, x[i], integer)
        x[i] -= a
        x[j] += a
    elif not transfers_only:
        i = rng.randrange(n)
        x[i] -= _amount(rng, x[i], integer)


def ranked_move(rng: random.Random, x: list) -> None:
    """Equalizing transfer or deletion on a non-increasing integer list, then re-rank.

    A transfer of at most half the gap from a larger to a smaller component
    (Pigou-Dalton) and a deletion both keep the ranked prefix sums at or
    below their previous values, so ``x`` stays dominated by where it started.
    """
    n = len(x)
    if n > 1 and rng.random() < SHIFT_SHARE:
        i = rng.randrange(n - 1)
        j = rng.randrange(i + 1, n)
        a = rng.randint(0, (x[i] - x[j]) // 2)
        x[i] -= a
        x[j] += a
    else:
        i = rng.randrange(n)
        x[i] -= rng.randint(0, x[i])
    x.sort(reverse=True)


def _draw(rng: random.Random, n: int, integer: bool) -> list:
    if integer:
        return [rng.randint(0, MAX_VALUE) for _ in range(n)]
    return [rng.uniform(0.0, MAX_VALUE) for _ in range(n)]


def dominated_pair(rng: random.Random, n: int, k: int, integer: bool = True,
                   transfers_only: bool = False) -> tuple[list, list]:
    """(x, y) with x dominated by y and x != y; equal totals with ``transfers_only``."""
    while True:
        y = _draw(rng, n, integer)
        x = list(y)
        for _ in range(k):
            inverse_move(rng, x, integer, transfers_only)
        if x != y:
            return x, y


def ranked_pair(rng: random.Random, n: int, k: int) -> tuple[list, list]:
    """Non-increasing integer (x, y), x dominated by y and x != y, for decreasing mode."""
    while True:
        y = sorted(_draw(rng, n, True), reverse=True)
        x = list(y)
        for _ in range(k):
            ranked_move(rng, x)
        if x != y:
            return x, y


# Certification kinds: (CLI mode, integer components).
KINDS = {
    "general-int": ("general", True),
    "general-float": ("general", False),
    "transfers-int": ("transfers", True),
    "decreasing-int": ("decreasing", True),
}


def literal_pair(rng: random.Random, kind: str, n: int, eps_float: float) -> Pair:
    mode, integer = KINDS[kind]
    if mode == "decreasing":
        x, y = ranked_pair(rng, n, 2 * n)
    else:
        x, y = dominated_pair(rng, n, 2 * n, integer, transfers_only=mode == "transfers")
    eps = 0.0 if integer else eps_float
    return Pair(mode, tuple(x), tuple(y), eps, literal(x), literal(y))


def table_from_pairs(pairs: list[Pair], width: Optional[int] = None) -> list[Row]:
    """Both arrays of each pair as table rows, right-padded with zeros to ``width``.

    Padding adds periods with no activity; it changes no prefix sum that the
    original periods define.
    """
    rows = []
    for p, pair in enumerate(pairs):
        for side, values in (("x", pair.x), ("y", pair.y)):
            pad = (width - len(values)) if width else 0
            rows.append(Row(f"p{p:04d}{side}", tuple(values) + (0,) * pad))
    return rows


GROUP_KINDS = ("general", "transfers", "decreasing")


def grouped_table(rng: random.Random, groups: int, group_size: int, n: int,
                  moves: int) -> tuple[list[Row], list[tuple[str, int]]]:
    """Integer timeline rows in chained groups, plus the group of each row.

    Groups cycle through the three decomposition modes.  Row r+1 of a group
    is row r after ``moves`` inverse moves (transfers only in a transfers
    group, ranked moves in a decreasing group), so each row is dominated by
    every earlier row of its group: all in-group pairs are comparable and a
    prefix scan over them runs the full length.  Rows of different groups
    are drawn independently and mostly stop the scan early.
    """
    rows: list[Row] = []
    membership: list[tuple[str, int]] = []
    for g in range(groups):
        mode = GROUP_KINDS[g % len(GROUP_KINDS)]
        cur = _draw(rng, n, True)
        if mode == "decreasing":
            cur.sort(reverse=True)
        for r in range(group_size):
            if r:
                for _ in range(moves):
                    if mode == "decreasing":
                        ranked_move(rng, cur)
                    else:
                        inverse_move(rng, cur, True, transfers_only=mode == "transfers")
            rows.append(Row(f"{mode[0]}{g:03d}-{r:02d}", tuple(cur)))
            membership.append((mode, g))
    return rows, membership


def table_pairs(rng: random.Random, rows: list[Row], membership: list[tuple[str, int]],
                count: int, order: tuple[str, ...]) -> list[Pair]:
    """``count`` in-group pairs (later row, earlier row), modes cycling through ``order``.

    The distance between the two rows cycles through 1 .. min(group size - 1,
    MAX_GAP), so seeds change which rows are paired but not how far apart
    they are, and no rare long certificate sets the tail latencies alone.
    """
    by_mode: dict[str, list[list[int]]] = {}
    for idx, (mode, g) in enumerate(membership):
        groups = by_mode.setdefault(mode, [])
        if not groups or membership[groups[-1][0]][1] != g:
            groups.append([])
        groups[-1].append(idx)
    pairs = []
    while len(pairs) < count:
        mode = order[len(pairs) % len(order)]
        members = rng.choice(by_mode[mode])
        gap = 1 + (len(pairs) // len(order)) % min(len(members) - 1, MAX_GAP)
        a = rng.randrange(len(members) - gap)
        x, y = rows[members[a + gap]], rows[members[a]]
        if x.values == y.values:
            continue
        pairs.append(Pair(mode, x.values, y.values, 0.0, x.entity, y.entity, by_id=True))
    return pairs


def write_table(path, rows: list[Row]) -> None:
    width = len(rows[0].values)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id," + ",".join(f"t{k}" for k in range(1, width + 1)) + "\n")
        for row in rows:
            fh.write(row.entity + "," + literal(row.values) + "\n")
