"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
suite executes.  Golden checks on integer inputs use eps = 0 (exact); the
convex-family and concentration criteria use the default 1e-9 tolerance.
"""

import math
import random
import time

from majorize import (
    EXACT,
    Certificate,
    DominanceOutcome,
    Increase,
    SortDesc,
    Transfer,
    apply_eii,
    componentwise_leq,
    convex_inequality_holds,
    decompose_decreasing,
    decompose_general,
    decompose_transfers,
    dominates_or_equal,
    generalized_compare,
    gini,
    lorenz_points,
    make_array,
    random_dominated_pair,
    sort_asc,
    sort_desc,
    verify_certificate,
)
from genpairs import classical_pair, decreasing_pair, random_eii_case, sized

LSB = DominanceOutcome.LEFT_STRICTLY_BELOW
PAIR_COUNT = 10_000


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------

def test_acceptance_01_decreasing_golden_chain():
    x, y = make_array([4, 4, 4, 4]), make_array([14, 1, 1, 1])
    expected = (
        (7.0, 1.0, 4.0, 4.0), (7.0, 4.0, 4.0, 1.0), (10.0, 1.0, 4.0, 1.0),
        (10.0, 4.0, 1.0, 1.0), (13.0, 1.0, 1.0, 1.0), (14.0, 1.0, 1.0, 1.0),
    )
    cert = decompose_decreasing(x, y, EXACT)  # warm-up
    elapsed = min(
        _timed(lambda: decompose_decreasing(x, y, EXACT)) for _ in range(5)
    )
    exact = tuple(z.values for z in cert.intermediates) == expected
    report(1, "decreasing-mode golden chain", exact and elapsed < 1e-3,
           f"{elapsed * 1e6:.0f} us")


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_acceptance_02_impact_step_goldens():
    x = make_array([math.sqrt(2), 7, 0, math.pi])
    pure = apply_eii(x, Increase(1, math.pi))
    moved = apply_eii(x, Transfer(1, 4, math.pi))
    expected_pure = (math.sqrt(2) + math.pi, 7.0, 0.0, math.pi)
    expected_moved = (math.sqrt(2) + math.pi, 7.0, 0.0, 0.0)
    ok = (
        all(abs(a - b) <= 1e-12 for a, b in zip(pure.values, expected_pure))
        and all(abs(a - b) <= 1e-12 for a, b in zip(moved.values, expected_moved))
        and generalized_compare(x, pure) is LSB
        and generalized_compare(x, moved) is LSB
    )
    report(2, "impact-step goldens", ok)


def test_acceptance_03_two_element_dominance_goldens():
    holds = dominates_or_equal(
        generalized_compare(make_array([1, 3]), make_array([2, 2]), EXACT)
    )
    fails = not dominates_or_equal(
        generalized_compare(make_array([3, 1]), make_array([2, 2]), EXACT)
    )
    report(3, "two-element dominance goldens", holds and fails)


def test_acceptance_04_general_decomposition_suite():
    start = time.perf_counter()
    bad = 0
    for i in range(PAIR_COUNT):
        n, k = sized(i)
        x, y = random_dominated_pair(1_000 + i, n, k)
        cert = decompose_general(x, y, EXACT)
        if not verify_certificate(cert, EXACT).ok:
            bad += 1
        elif cert.final.values != y.values:
            bad += 1
        elif cert.eii_count > n * n:
            bad += 1
    elapsed = time.perf_counter() - start
    report(4, "general decomposition suite", bad == 0 and elapsed < 10.0,
           f"{PAIR_COUNT} pairs, {elapsed:.2f} s")


def test_acceptance_05_decreasing_decomposition_suite():
    start = time.perf_counter()
    bad = 0
    for i in range(PAIR_COUNT):
        n, k = sized(i)
        x, y = decreasing_pair(2_000 + i, n, k)
        cert = decompose_decreasing(x, y, EXACT)
        if not verify_certificate(cert, EXACT).ok:
            bad += 1
            continue
        if cert.final.values != y.values:
            bad += 1
            continue
        if cert.eii_count > n * n:
            bad += 1
            continue
        for step, z in zip(cert.steps, cert.intermediates):
            if not isinstance(step, SortDesc):
                if not dominates_or_equal(generalized_compare(sort_desc(z), y, EXACT)):
                    bad += 1
                    break
    elapsed = time.perf_counter() - start
    report(5, "decreasing decomposition suite", bad == 0 and elapsed < 10.0,
           f"{PAIR_COUNT} ranked pairs, {elapsed:.2f} s")


def test_acceptance_06_transfers_decomposition_suite():
    bad = 0
    for i in range(PAIR_COUNT):
        n, k = sized(i)
        x, y = random_dominated_pair(3_000 + i, n, k, transfers_only=True)
        cert = decompose_transfers(x, y, EXACT)
        if any(isinstance(s, Increase) for s in cert.steps):
            bad += 1
            continue
        if not verify_certificate(cert, EXACT).ok:
            bad += 1
            continue
        total = cert.source.total
        if any(z.total != total for z in cert.intermediates):
            bad += 1
    report(6, "transfers-only decomposition suite", bad == 0, f"{PAIR_COUNT} equal-sum pairs")


def test_acceptance_07_order_property_suites():
    strict_bad = sum(
        1 for i in range(PAIR_COUNT)
        if generalized_compare(*_eii_application(4_000 + i), EXACT) is not LSB
    )

    bracket_bad = 0
    rng = random.Random(5_000)
    for _ in range(PAIR_COUNT):
        n = rng.randint(1, 12)
        x = make_array([rng.randint(0, 100) for _ in range(n)])
        if not dominates_or_equal(generalized_compare(sort_asc(x), x, EXACT)):
            bracket_bad += 1
        if not dominates_or_equal(generalized_compare(x, sort_desc(x), EXACT)):
            bracket_bad += 1

    bound_bad = 0
    rng = random.Random(6_000)
    for _ in range(PAIR_COUNT):
        n = rng.randint(1, 12)
        y = sorted((rng.randint(0, 100) for _ in range(n)), reverse=True)
        x = make_array([rng.randint(0, v) for v in y])
        ya = make_array(y)
        if not (componentwise_leq(x, ya, EXACT)
                and componentwise_leq(sort_desc(x), ya, EXACT)):
            bound_bad += 1

    ok = strict_bad == 0 and bracket_bad == 0 and bound_bad == 0
    report(7, "strict-raise / sort-bracket / ranked-bound suites", ok,
           f"3 x {PAIR_COUNT} instances")


def _eii_application(seed: int):
    x, step = random_eii_case(seed)
    return x, apply_eii(x, step, EXACT)


def test_acceptance_08_concentration_is_an_order_morphism():
    bad = skipped = 0
    for i in range(PAIR_COUNT):
        n = (i % 11) + 2
        x, y = classical_pair(7_000 + i, n, (i % 6) + 1)
        if y.total == 0:
            skipped += 1
            continue
        gx, gy = gini(x), gini(y)
        if gx > gy:
            bad += 1
            continue
        cx = [o for _, o in lorenz_points(x)]
        cy = [o for _, o in lorenz_points(y)]
        gap = max(abs(a - b) for a, b in zip(cx, cy))
        if gap > 1e-9 and not gx < gy:
            bad += 1
    report(8, "concentration order morphism", bad == 0,
           f"{PAIR_COUNT - skipped} majorized pairs")


def test_acceptance_09_convex_family_forward_direction():
    bad = 0
    for i in range(PAIR_COUNT):
        n = (i % 11) + 2
        x, y = classical_pair(8_000 + i, n, (i % 6) + 1)
        if not convex_inequality_holds(x, y):  # default family, eps = 1e-9
            bad += 1
    report(9, "convex-family forward direction", bad == 0, f"{PAIR_COUNT} majorized pairs")


def test_acceptance_10_mutation_detection():
    pool = [decompose_decreasing(make_array([4, 4, 4, 4]), make_array([14, 1, 1, 1]), EXACT)]
    seed = 0
    while len(pool) < 25:
        n = (seed % 10) + 2
        x, y = random_dominated_pair(9_000 + seed, n, (seed % 6) + 1)
        seed += 1
        cert = decompose_general(x, y, EXACT)
        if cert.steps:
            pool.append(cert)
    rng = random.Random(424242)
    undetected = 0
    for trial in range(100):
        cert = pool[trial % len(pool)]
        mutant = _mutate_one_step(rng, cert)
        if verify_certificate(mutant, EXACT).ok:
            undetected += 1
    report(10, "single-step mutation detection", undetected == 0, "100 mutants")


def _mutate_one_step(rng: random.Random, cert: Certificate) -> Certificate:
    """Perturb one impact step's amount or index by 1, keeping it well-formed."""
    positions = [t for t, s in enumerate(cert.steps) if not isinstance(s, SortDesc)]
    t = rng.choice(positions)
    step = cert.steps[t]
    n = len(cert.source)
    options = []
    if isinstance(step, Transfer):
        options.append(Transfer(step.i, step.j, step.a + 1))
        if step.a > 1:
            options.append(Transfer(step.i, step.j, step.a - 1))
        if step.i + 1 < step.j:
            options.append(Transfer(step.i + 1, step.j, step.a))
        if step.i > 1:
            options.append(Transfer(step.i - 1, step.j, step.a))
        if step.j < n:
            options.append(Transfer(step.i, step.j + 1, step.a))
        if step.j - 1 > step.i:
            options.append(Transfer(step.i, step.j - 1, step.a))
    else:
        options.append(Increase(step.i, step.a + 1))
        if step.a > 1:
            options.append(Increase(step.i, step.a - 1))
        if step.i > 1:
            options.append(Increase(step.i - 1, step.a))
        if step.i < n:
            options.append(Increase(step.i + 1, step.a))
    mutated = rng.choice(options)
    steps = cert.steps[:t] + (mutated,) + cert.steps[t + 1:]
    return Certificate(cert.source, cert.target, steps, cert.intermediates, cert.mode)
