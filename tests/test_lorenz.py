import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majorize import (
    EXACT,
    LengthMismatch,
    ZeroTotal,
    classical_majorizes,
    convex_inequality_holds,
    default_convex_family,
    dominates_or_equal,
    generalized_compare,
    gini,
    lorenz_points,
    make_array,
)
from genpairs import classical_pair

positive_arrays = st.lists(st.integers(0, 100), min_size=1, max_size=10).filter(
    lambda v: sum(v) > 0
).map(make_array)


def pairwise_gini(values):
    # independent oracle: normalized mean absolute difference
    n = len(values)
    mu = sum(values) / n
    return sum(abs(a - b) for a in values for b in values) / (2 * n * n * mu)


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

def test_lorenz_points_equality_diagonal():
    assert lorenz_points(make_array([1, 1])) == ((0.0, 0.0), (0.5, 0.5), (1.0, 1.0))


def test_lorenz_points_concentrated_pair():
    assert lorenz_points(make_array([3, 1])) == ((0.0, 0.0), (0.5, 0.75), (1.0, 1.0))


@pytest.mark.parametrize("values", [[0.1] * 10, [1e16, 1, 1]], ids=["tenths", "1e16"])
def test_lorenz_points_end_exactly_at_one_one(values):
    # sum() compensates rounding from Python 3.12 on; the running sums do not
    assert lorenz_points(make_array(values))[-1] == (1.0, 1.0)


def test_lorenz_points_rejects_zero_total():
    with pytest.raises(ZeroTotal):
        lorenz_points(make_array([0, 0]))


@given(positive_arrays)
def test_lorenz_curve_shape_invariants(x):
    pts = lorenz_points(x)
    n = len(x)
    assert pts[0] == (0.0, 0.0)
    assert pts[-1] == (1.0, 1.0)
    assert len(pts) == n + 1
    for k, (a, o) in enumerate(pts):
        assert a == k / n
    ordinates = [o for _, o in pts]
    assert all(b >= a - 1e-15 for a, b in zip(ordinates, ordinates[1:]))
    increments = [b - a for a, b in zip(ordinates, ordinates[1:])]
    assert all(later <= earlier + 1e-12 for earlier, later in zip(increments, increments[1:]))


@given(positive_arrays, st.sampled_from([0.5, 2.0, 3.0, 0.125, 7.5]))
def test_lorenz_curve_is_scale_invariant(x, c):
    scaled = make_array([c * v for v in x.values])
    for (a1, o1), (a2, o2) in zip(lorenz_points(x), lorenz_points(scaled)):
        assert a1 == a2
        assert abs(o1 - o2) <= 1e-12


# ---------------------------------------------------------------------------
# classical majorization
# ---------------------------------------------------------------------------

def test_classical_majorizes_goldens():
    assert classical_majorizes(make_array([2, 2]), make_array([3, 1]), EXACT)
    assert not classical_majorizes(make_array([3, 1]), make_array([2, 2]), EXACT)
    x = make_array([5, 2, 9])
    assert classical_majorizes(x, x, EXACT)
    with pytest.raises(LengthMismatch):
        classical_majorizes(make_array([1]), make_array([1, 2]))


def test_classical_requires_equal_totals():
    assert not classical_majorizes(make_array([1, 1]), make_array([3, 1]), EXACT)


def test_classical_agrees_with_curve_ordering():
    for seed in range(300):
        x, y = classical_pair(seed, (seed % 9) + 1, (seed % 5) + 1)
        below = classical_majorizes(x, y, EXACT)
        cx = [o for _, o in lorenz_points(x)] if x.total > 0 else None
        cy = [o for _, o in lorenz_points(y)] if y.total > 0 else None
        if cx is None or cy is None:
            continue
        curve_below = all(a <= b + 1e-12 for a, b in zip(cx, cy))
        assert below == curve_below


def test_bridge_between_orders_for_ranked_equal_total_arrays():
    # on ranked equal-total arrays, prefix-sum dominance and classical
    # majorization are the same relation
    import random

    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        total = rng.randint(1, 60)
        def ranked_sample():
            cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
            parts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
            return make_array(sorted((float(p) for p in parts), reverse=True))
        x, y = ranked_sample(), ranked_sample()
        lhs = dominates_or_equal(generalized_compare(x, y, EXACT))
        rhs = classical_majorizes(x, y, EXACT)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# convex-sum checks
# ---------------------------------------------------------------------------

def test_convex_inequality_goldens():
    assert convex_inequality_holds(make_array([2, 2]), make_array([3, 1]), EXACT)
    assert not convex_inequality_holds(make_array([3, 1]), make_array([2, 2]), EXACT)
    x = make_array([4, 1, 3])
    assert convex_inequality_holds(x, x)


def test_default_family_composition():
    fam = default_convex_family(make_array([1, 2]), make_array([0, 3]))
    assert len(fam) == 11  # square, nine decile hinges, exponential
    assert fam[0](3.0) == 9.0
    assert all(phi(0.0) >= 0.0 for phi in fam)


def reference_family(x, y):
    """The default family as built from ``statistics.quantiles``."""
    combined = [*x.values, *y.values]
    m = max(combined)
    deciles = statistics.quantiles(combined, n=10, method="inclusive")
    return ([lambda v: v * v]
            + [lambda v, t=t: v - t if v > t else 0.0 for t in deciles]
            + ([lambda v: math.exp(v / m)] if m > 0.0 else [])), deciles


_DECILE_VALUES = st.one_of(st.sampled_from([0.0, 5e-324, 0.1, 1e16]), st.floats(0.0, 1.0),
                           st.floats(0.0, 1e300))


@given(st.lists(_DECILE_VALUES, min_size=1, max_size=40),
       st.lists(_DECILE_VALUES, min_size=1, max_size=40))
@settings(max_examples=300)
def test_default_family_deciles_match_statistics_quantiles(xs, ys):
    x, y = make_array(xs), make_array(ys)
    reference, deciles = reference_family(x, y)
    family = default_convex_family(x, y)
    assert len(family) == len(reference)
    # each reference decile and the next float above it tell hinges one ulp apart
    probes = [0.0, *xs, *ys, *deciles, *(math.nextafter(t, math.inf) for t in deciles)]
    for phi, ref in zip(family, reference):
        assert [phi(v) for v in probes] == [ref(v) for v in probes]


def test_default_family_handles_all_zero_arrays():
    assert convex_inequality_holds(make_array([0, 0]), make_array([0, 0]))


def test_convex_sums_do_not_depend_on_the_order_of_the_values():
    # plain sum() left a reversal 1 ulp above the original on 3.10 and 3.11
    x = make_array([0.5441770474293208, 0.9493954730932436, 0.9948195629497427,
                    0.7230120812374659, 0.39353182020537136, 0.43066964029126864])
    y = make_array(reversed(x.values))
    assert convex_inequality_holds(x, y, tol=EXACT)
    assert convex_inequality_holds(y, x, tol=EXACT)


@given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=12), st.randoms())
def test_any_permutation_satisfies_every_convex_inequality(values, rnd):
    shuffled = list(values)
    rnd.shuffle(shuffled)
    assert convex_inequality_holds(make_array(values), make_array(shuffled), tol=EXACT)


def test_majorized_pairs_satisfy_convex_inequalities():
    for seed in range(300):
        x, y = classical_pair(seed, (seed % 9) + 1, (seed % 5) + 1)
        assert classical_majorizes(x, y, EXACT)
        assert convex_inequality_holds(x, y)


# ---------------------------------------------------------------------------
# gini
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("values,expected", [
    ((1, 0), 0.5),
    ((1, 0, 0, 0), 0.75),
    ((3, 1), 0.25),
])
def test_gini_goldens(values, expected):
    assert gini(make_array(values)) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("values", [(5, 5), (2, 2, 2), (7.5, 7.5, 7.5, 7.5)])
def test_gini_is_zero_on_constant_arrays(values):
    assert gini(make_array(values)) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("value", [1, 0.1, 3.7])
def test_gini_of_a_constant_array_is_never_negative(value):
    # the trapezoid sum of fifteen 1s rounds to 1 - 2**-53 and gave -1.1e-16
    ginis = [gini(make_array([value] * n)) for n in range(1, 201)]
    assert all(0.0 <= g <= 1e-12 for g in ginis), min(ginis)


def test_gini_rejects_zero_total():
    with pytest.raises(ZeroTotal):
        gini(make_array([0, 0, 0]))


@given(positive_arrays)
@settings(max_examples=200)
def test_gini_matches_pairwise_oracle(x):
    assert gini(x) == pytest.approx(pairwise_gini(x.values), abs=1e-12)
    assert 0.0 <= gini(x) < 1.0


def test_gini_is_monotone_on_majorized_pairs():
    for seed in range(500):
        x, y = classical_pair(seed, (seed % 9) + 2, (seed % 6) + 1)
        if x.total == 0:
            continue
        gx, gy = gini(x), gini(y)
        assert gx <= gy
        cx, cy = ([o for _, o in lorenz_points(z)] for z in (x, y))
        gap = max(abs(a - b) for a, b in zip(cx, cy))
        if gap > 1e-9:
            assert gx < gy
        else:
            assert gx == pytest.approx(gy, abs=1e-9)
