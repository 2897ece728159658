import copy
import math
import pickle
import sys
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from majorize import (
    EXACT,
    Array,
    Certificate,
    DominanceOutcome,
    EmptyArray,
    FailureReason,
    Increase,
    IndexOutOfBounds,
    LengthMismatch,
    MajorizeError,
    NegativeComponent,
    NonPositiveAmount,
    SortDesc,
    SortStepNotEii,
    Transfer,
    TransferExceedsSource,
    VerificationReport,
    apply_eii,
    as_eps,
    classical_majorizes,
    componentwise_leq,
    decompose_general,
    dominance_matrix,
    dominates_or_equal,
    generalized_compare,
    make_array,
    random_dominated_pair,
    sort_asc,
    sort_desc,
)
from majorize.core import OUTCOME, _apply_step, _float_array

EQ = DominanceOutcome.EQUAL
LSB = DominanceOutcome.LEFT_STRICTLY_BELOW
RSB = DominanceOutcome.RIGHT_STRICTLY_BELOW
INC = DominanceOutcome.INCOMPARABLE

int_arrays = st.lists(st.integers(0, 100), min_size=1, max_size=10).map(make_array)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_make_array_accepts_valid_values():
    assert len(make_array([4, 4, 4, 4])) == 4
    assert len(make_array([0])) == 1
    assert make_array([1.5, 0.0]).values == (1.5, 0.0)


def test_make_array_rejects_negative_component():
    with pytest.raises(NegativeComponent) as exc:
        make_array([1, -2])
    assert exc.value.index == 2
    assert exc.value.value == -2


def test_make_array_rejects_empty_and_non_finite():
    with pytest.raises(EmptyArray):
        make_array([])
    with pytest.raises(NegativeComponent):
        make_array([float("nan")])
    with pytest.raises(NegativeComponent):
        make_array([float("inf")])


def test_make_array_rejects_an_overflowing_total():
    with pytest.raises(MajorizeError, match="largest float") as exc:
        make_array([1e308, 1e308])
    assert not isinstance(exc.value, NegativeComponent)
    assert make_array([1e308, 7e307]).total < math.inf
    with pytest.raises(NegativeComponent) as exc:  # a bad component is still named
        make_array([1e308, 1e308, float("nan")])
    assert exc.value.index == 3


def test_total_and_overflow_check_use_the_running_sum():
    # sum() compensates rounding from Python 3.12 on; a running sum is the same everywhere
    tenths = make_array([0.1] * 10)
    assert tenths.total == [*accumulate(tenths.values)][-1] == 0.9999999999999999
    top = sys.float_info.max
    near = make_array([top, 2.0 ** 969, 2.0 ** 969])  # the exact sum rounds to inf, the running sum does not
    assert near.total == [*accumulate(near.values)][-1] == top
    with pytest.raises(MajorizeError, match="largest float"):
        make_array([2.0 ** 969, 2.0 ** 969, top])


def test_tolerance_semantics():
    assert as_eps(None) == 1e-9
    assert as_eps(0.5) == 0.5 and as_eps(0) == 0.0
    # gaps up to eps count as equal, larger ones decide the order
    assert generalized_compare(make_array([1.0]), make_array([0.6]), 0.5) is EQ
    assert generalized_compare(make_array([1.0]), make_array([0.4]), 0.5) is RSB
    assert generalized_compare(make_array([1.0]), make_array([1.6]), 0.5) is LSB
    for bad in (-1e-3, math.inf, math.nan):
        with pytest.raises(MajorizeError, match="eps must be finite and >= 0"):
            as_eps(bad)
        with pytest.raises(MajorizeError, match="eps must be finite and >= 0"):
            generalized_compare(make_array([1]), make_array([1]), bad)


_EDGE_FLOATS = (0.0, -0.0, 5e-324, 1.0, 1e308, sys.float_info.max, -1.0, math.nan, math.inf)


def _built_or_raised(build, values):
    try:
        arr = build(values)
    except Exception as exc:
        return type(exc), str(exc)
    return arr, repr(arr.values)  # the repr tells -0.0 from 0.0


@settings(max_examples=500)
@given(st.lists(st.sampled_from(_EDGE_FLOATS), min_size=1, max_size=6).map(tuple))
def test_float_array_is_array_for_float_tuples(values):
    # the producer's constructor returns what Array returns, or raises what Array raises
    assert _built_or_raised(_float_array, values) == _built_or_raised(Array, values)


def test_float_array_of_an_empty_tuple_raises_as_array_does():
    assert _built_or_raised(_float_array, ()) == _built_or_raised(Array, ())


@settings(max_examples=500)
@given(st.lists(st.tuples(st.sampled_from(_EDGE_FLOATS), st.booleans()), min_size=1, max_size=6))
def test_float_array_checks_the_sign_of_the_new_values_only(entries):
    # the values not named new were checked before: here, any that Array accepts alone
    vals = tuple(v if is_new or 0.0 <= v < math.inf else 1.0 for v, is_new in entries)
    new = [v for v, (_, is_new) in zip(vals, entries) if is_new]
    assert _built_or_raised(lambda z: _float_array(z, new), vals) == _built_or_raised(Array, vals)


# ---------------------------------------------------------------------------
# prefix sums
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("values,expected", [
    ((4, 4, 4, 4), (4, 8, 12, 16)),
    ((14, 1, 1, 1), (14, 15, 16, 17)),
    ((0, 0), (0, 0)),
])
def test_prefix_sums_goldens(values, expected):
    assert tuple(accumulate(make_array(values).values)) == tuple(float(v) for v in expected)


@given(int_arrays)
def test_prefix_sums_match_slice_oracle(x):
    ps = [*accumulate(x.values)]
    for k in range(1, len(x) + 1):
        assert ps[k - 1] == sum(x.values[:k])
    assert ps[-1] == x.total


# ---------------------------------------------------------------------------
# generalized comparison
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x,y,outcome", [
    ((4, 4, 4, 4), (14, 1, 1, 1), LSB),
    ((1, 3), (2, 2), LSB),
    ((3, 1), (2, 2), RSB),
    ((1, 2, 3), (1, 2, 3), EQ),
    ((5, 0), (4, 2), INC),
])
def test_generalized_compare_goldens(x, y, outcome):
    assert generalized_compare(make_array(x), make_array(y), EXACT) is outcome


@pytest.mark.parametrize("clone", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_outcome_survives_copying_as_dict_key_and_set_member(clone):
    by_outcome = {outcome: outcome.value for outcome in DominanceOutcome}
    assert clone(by_outcome) == by_outcome
    assert clone(set(DominanceOutcome)) == set(DominanceOutcome)
    assert all(clone(outcome) is outcome for outcome in DominanceOutcome)


# each record with its repr, which is a frozen dataclass's
RECORDS = {
    "Array": (lambda: make_array([1.5, 0]), "Array(values=(1.5, 0.0))"),
    "Transfer": (lambda: Transfer(1, 2, 3), "Transfer(i=1, j=2, a=3.0)"),
    "Increase": (lambda: Increase(2.0, 0.5), "Increase(i=2, a=0.5)"),
    "SortDesc": (SortDesc, "SortDesc()"),
    "Certificate": (
        lambda: decompose_general(make_array([1, 3]), make_array([2, 2]), EXACT),
        "Certificate(source=Array(values=(1.0, 3.0)), target=Array(values=(2.0, 2.0)), "
        "steps=(Transfer(i=1, j=2, a=1.0),), intermediates=(Array(values=(2.0, 2.0)),), "
        "mode=<CertificateMode.GENERAL: 'general'>)",
    ),
    "VerificationReport": (
        lambda: VerificationReport(True, 3),
        "VerificationReport(ok=True, checked_steps=3, reason=None, step_index=None, "
        "detail='', prefix_index=None)",
    ),
    "failed VerificationReport": (
        lambda: VerificationReport(False, 2, FailureReason.CHAIN_NOT_STRICT, 1, "no", 2),
        "VerificationReport(ok=False, checked_steps=2, reason=<FailureReason.CHAIN_NOT_STRICT: "
        "'ChainNotStrict'>, step_index=1, detail='no', prefix_index=2)",
    ),
}


def fields_by_match(record):
    """The field values in order, taken apart by a positional class pattern."""
    match record:
        case Array(values):
            return (values,)
        case Transfer(i, j, a):
            return (i, j, a)
        case Increase(i, a):
            return (i, a)
        case SortDesc():
            return ()
        case Certificate(source, target, steps, intermediates, mode):
            return (source, target, steps, intermediates, mode)
        case VerificationReport(ok, checked_steps, reason, step_index, detail, prefix_index):
            return (ok, checked_steps, reason, step_index, detail, prefix_index)


@pytest.mark.parametrize("name", RECORDS)
def test_records_compare_hash_copy_and_print_by_their_fields(name):
    build, text = RECORDS[name]
    record, twin = build(), build()
    fields = tuple(getattr(record, f) for f in type(record).__match_args__)
    assert record is not twin and record == twin and hash(record) == hash(twin)
    assert repr(record) == text
    assert fields_by_match(record) == fields
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(clone) is type(record) and clone == record and hash(clone) == hash(record)
    # another class with the same fields, and every other record, compare unequal
    other_class = type("Other", (type(record),), {})(*fields)
    assert record != other_class and other_class != record
    assert record != fields
    others = [other() for other, _ in RECORDS.values()]
    assert all(record != o for o in others if type(o) is not type(record))
    for attr in (*type(record).__match_args__, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, 1)
        with pytest.raises(AttributeError):
            delattr(record, attr)
    assert record == twin


def test_generalized_compare_length_mismatch():
    with pytest.raises(LengthMismatch):
        generalized_compare(make_array([1]), make_array([1, 2]))


@given(int_arrays)
def test_compare_is_reflexive(x):
    assert generalized_compare(x, x, EXACT) is EQ


@given(st.data())
def test_compare_is_antisymmetric(data):
    x = data.draw(int_arrays)
    y = make_array(data.draw(st.lists(st.integers(0, 100), min_size=len(x), max_size=len(x))))
    fwd = generalized_compare(x, y, EXACT)
    bwd = generalized_compare(y, x, EXACT)
    flipped = {EQ: EQ, LSB: RSB, RSB: LSB, INC: INC}
    assert bwd is flipped[fwd]


def test_compare_is_transitive_on_constructed_triples():
    for seed in range(400):
        x, y = random_dominated_pair(seed, (seed % 8) + 1, (seed % 5) + 1)
        _, z_src = random_dominated_pair(seed + 10_000, len(y), (seed % 4) + 1)
        # build z above y by replaying inverse moves backwards: y -< y + z_src gap
        z = make_array([a + b for a, b in zip(y.values, z_src.values)])
        assert dominates_or_equal(generalized_compare(x, y, EXACT))
        assert dominates_or_equal(generalized_compare(y, z, EXACT))
        assert dominates_or_equal(generalized_compare(x, z, EXACT))


def test_compare_tolerance_treats_small_gaps_as_equal():
    x = make_array([1.0, 2.0])
    y = make_array([1.0 + 1e-12, 2.0])
    assert generalized_compare(x, y) is EQ  # default eps 1e-9
    assert generalized_compare(x, y, EXACT) is LSB


def loop_compare(x, y, tol=None):
    """Reference: the comparison as a Python loop that adds both rows on every call."""
    if len(x) != len(y):
        raise LengthMismatch(len(x), len(y))
    eps = as_eps(tol)
    sx = sy = 0.0
    left = right = True
    for xv, yv in zip(x.values, y.values):
        sx += xv
        sy += yv
        if sx > sy + eps:
            left = False
        if sy > sx + eps:
            right = False
        if not (left or right):
            return INC
    return OUTCOME[left, right]


COMPARE_EPS = [0.0, 1e-9, 0.25, 0.5]


@st.composite
def compared_pairs(draw):
    """Two arrays whose running sums tie, or differ by exactly one of ``COMPARE_EPS``."""
    n = draw(st.integers(1, 6))
    value = st.sampled_from([0.0, -0.0, 1e-9, 0.25, 0.5, 0.75, 1.0, 1 + 1e-9, 2.0])
    x = draw(st.lists(value, min_size=n, max_size=n))
    # each component of y is x's, or x's moved by exactly one eps, or drawn afresh
    shifts = st.sampled_from([0.0, *COMPARE_EPS[1:], *(-e for e in COMPARE_EPS[1:])])
    y = [v + s if v + s >= 0.0 else v for v, s in zip(x, draw(st.lists(shifts, min_size=n, max_size=n)))]
    y = [draw(st.one_of(st.just(v), value)) for v in y]
    return make_array(x), make_array(y)


@given(compared_pairs(), st.lists(st.sampled_from(COMPARE_EPS), min_size=1, max_size=8))
@settings(max_examples=600)
def test_compare_from_kept_running_sums_matches_the_python_loop(pair, eps_seq):
    x, y = pair
    fresh = [make_array(a.values) for a in pair]
    # the same objects at several eps in turn, so a sum or ceiling kept from one eps must not leak
    for eps in eps_seq:
        for a, b in ((x, y), (y, x), (x, x)):
            assert generalized_compare(a, b, eps) is loop_compare(a, b, eps)
    for compared, twin in zip(pair, fresh):
        assert compared == twin and hash(compared) == hash(twin) and repr(compared) == repr(twin)
        assert pickle.dumps(compared) == pickle.dumps(twin)
        clone = copy.deepcopy(compared)
        assert clone == twin and pickle.dumps(clone) == pickle.dumps(twin)


# lengths on both sides of the 30-bit digits of a Python int and of the 64-bit
# fields that generalized_compare packs the running sums into
WIDE_LENGTHS = [1, 2, 7, 8, 9, 15, 16, 17, 64, 65]
# at sys.float_info.max a ceiling overflows to +inf once its sum reaches 2**970
WIDE_EPS = [0.0, 5e-324, 1e-9, 0.5, sys.float_info.max]
# subnormals, magnitudes from 1e-300 to 1e300 and small integers: 65 values
# of at most 1e300 keep every total far below 2**1020
WIDE_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1.0, 2.0, 1e300]),
    st.floats(0.0, 2.2e-308),
    st.floats(1e-300, 1e300),
    st.integers(0, 100).map(float),
)


@st.composite
def wide_rows(draw, n):
    """A row of ``WIDE_VALUE`` after a run of -0.0, which may be empty."""
    zeros = draw(st.integers(0, n))
    return [-0.0] * zeros + draw(st.lists(WIDE_VALUE, min_size=n - zeros, max_size=n - zeros))


@st.composite
def moved_row(draw, row):
    """``row`` with up to three values redrawn, doubled or halved, and maybe its -0.0 made 0.0."""
    row = [*row]
    for i in draw(st.lists(st.integers(0, len(row) - 1), max_size=3)):
        row[i] = draw(st.one_of(WIDE_VALUE, st.just(row[i] * 2), st.just(row[i] / 2)))
    return [v + 0.0 for v in row] if draw(st.booleans()) else row


@st.composite
def wide_pairs(draw):
    x = draw(wide_rows(draw(st.sampled_from(WIDE_LENGTHS))))
    return make_array(x), make_array(draw(moved_row(x)))


@given(wide_pairs(), st.sampled_from(WIDE_EPS))
@example((make_array([-0.0, -0.0, 1]), make_array([0, 0, 1])), 0.0)  # EQUAL both ways
@example((make_array([5e-324]), make_array([0.0])), 0.0)
@example((make_array([5e-324]), make_array([0.0])), 5e-324)
@example((make_array([1.0] * 65), make_array([1.0] * 64 + [2.0])), 0.0)  # only the total differs
@example((make_array([1e300, 0.0]), make_array([0.0, 1e300])), sys.float_info.max)
@settings(max_examples=500, deadline=None)
def test_packed_compare_matches_the_python_loop_on_wide_range_floats(pair, eps):
    x, y = pair
    assert generalized_compare(x, y, eps) is loop_compare(x, y, eps)
    assert generalized_compare(y, x, eps) is loop_compare(y, x, eps)


# ---------------------------------------------------------------------------
# dominance matrix
# ---------------------------------------------------------------------------

def per_cell_matrix(arrays, tol, ranked):
    """Reference: one comparison per ordered cell, no sharing between cells."""
    def cell(x, y):
        if ranked:
            return OUTCOME[classical_majorizes(x, y, tol), classical_majorizes(y, x, tol)]
        return generalized_compare(x, y, tol)
    return [[cell(x, y) for y in arrays] for x in arrays]


@st.composite
def small_tables(draw):
    n = draw(st.integers(1, 5))
    # few distinct values, so equal totals, ties and gaps of exactly eps are
    # common; near 1e16 adding eps rounds, so a ceiling is not sum + eps exactly
    value = st.sampled_from([0, 1, 2, 0.5, 0.25, 0.1, 0.2, 0.3, 1e-9, 1 + 1e-9, 1e16, 1e16 + 2, -0.0])
    # up to 10 rows, so one window of equal totals can hold several of them
    rows = draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=1, max_size=10))
    return [make_array(row) for row in rows]


@given(small_tables(), st.sampled_from([0.0, 1e-9, 0.25, 2.0, None]), st.booleans())
# one window of equal totals; (1 + 1e-9) - 1 > 1e-9, yet 1 + 1e-9 <= 1 + 1e-9:
# the ceiling sum + eps decides, not the difference of the sums
@example([make_array([1 + 1e-9, 0]), make_array([1, 1e-9]), make_array([0.5, 0.5 + 1e-9])], 1e-9, True)
@settings(max_examples=400)
def test_dominance_matrix_matches_per_cell_comparisons(arrays, tol, ranked):
    assert dominance_matrix(arrays, tol, ranked) == per_cell_matrix(arrays, tol, ranked)


@st.composite
def chained_tables(draw):
    """Chains of rows over 6 to 40 periods, each row one move from the row before it.

    With at least 6 periods the prefix filter skips some prefixes.  A move
    adds an amount at one position, or moves it there from a later one, so
    each row is comparable with the one before it and many cells are.
    """
    n = draw(st.integers(6, 40))
    value = st.sampled_from([0, 1, 2, 0.25, 1e-9, 1 + 1e-9, 1e16, 1e16 + 2, -0.0])
    amount = st.sampled_from([1, 2, 0.25, 1e-9])  # 0.25 and 1e-9: gaps of exactly eps
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.lists(value, min_size=n, max_size=n))
        rows.append(row)
        for _ in range(draw(st.integers(0, 5))):
            row = [*row]
            i = draw(st.integers(0, n - 1))
            j = draw(st.integers(i, n - 1))
            a = draw(amount)
            if j > i:  # a transfer from j to the earlier i, else an increase at i
                a = min(a, row[j])
                row[j] -= a
            row[i] += a
            rows.append(row)
    return [make_array(row) for row in draw(st.permutations(rows))]


@given(chained_tables(), st.sampled_from([0.0, 1e-9, 0.25, None]))
@settings(max_examples=300)
def test_prefix_filtered_matrix_matches_per_cell_comparisons(arrays, tol):
    assert dominance_matrix(arrays, tol) == per_cell_matrix(arrays, tol, False)


@st.composite
def wide_tables(draw):
    """Up to 4 rows of ``WIDE_VALUE``, each followed by up to 3 rows moved from it."""
    n = draw(st.sampled_from(WIDE_LENGTHS))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = draw(wide_rows(n))
        rows.append(row)
        for _ in range(draw(st.integers(0, 3))):
            row = draw(moved_row(row))
            rows.append(row)
    return [make_array(row) for row in draw(st.permutations(rows))]


@given(wide_tables(), st.sampled_from(WIDE_EPS), st.booleans())
@settings(max_examples=200, deadline=None)
def test_general_matrix_matches_the_python_loop_on_wide_range_floats(arrays, eps, ranked):
    # independent Python loops, not per_cell_matrix: that calls generalized_compare,
    # the general kernel under test
    def cell(x, y):
        if ranked:
            return OUTCOME[classical_majorizes(x, y, eps), classical_majorizes(y, x, eps)]
        return loop_compare(x, y, eps)
    assert dominance_matrix(arrays, eps, ranked) == [[cell(x, y) for y in arrays] for x in arrays]


def test_dominance_matrix_edges():
    assert dominance_matrix([]) == []
    assert dominance_matrix([make_array([3])], ranked=True) == [[EQ]]
    with pytest.raises(LengthMismatch):
        dominance_matrix([make_array([1, 2]), make_array([1, 2]), make_array([1])])
    with pytest.raises(MajorizeError, match="eps must be finite"):
        dominance_matrix([make_array([1])], -1.0)


# ---------------------------------------------------------------------------
# impact steps
# ---------------------------------------------------------------------------

def test_increase_golden_on_irrational_array():
    x = make_array([math.sqrt(2), 7, 0, math.pi])
    out = apply_eii(x, Increase(1, math.pi))
    expected = (math.sqrt(2) + math.pi, 7.0, 0.0, math.pi)
    assert all(abs(a - b) <= 1e-12 for a, b in zip(out.values, expected))
    assert generalized_compare(x, out) is LSB


def test_transfer_golden_on_irrational_array():
    x = make_array([math.sqrt(2), 7, 0, math.pi])
    out = apply_eii(x, Transfer(1, 4, math.pi))
    expected = (math.sqrt(2) + math.pi, 7.0, 0.0, 0.0)
    assert all(abs(a - b) <= 1e-12 for a, b in zip(out.values, expected))
    assert out.values[3] == 0.0
    assert generalized_compare(x, out) is LSB


def test_transfer_shifts_prefix_sums_exactly():
    x = make_array([1, 2, 3])
    out = apply_eii(x, Transfer(1, 3, 2), EXACT)
    assert out.values == (3.0, 2.0, 1.0)
    assert tuple(accumulate(out.values)) == (3.0, 5.0, 6.0)
    assert generalized_compare(x, out, EXACT) is LSB


@given(st.data())
@settings(max_examples=200)
def test_transfer_prefix_relation(data):
    vals = data.draw(st.lists(st.integers(0, 100), min_size=2, max_size=10))
    x = make_array(vals)
    j = data.draw(st.integers(2, len(vals)))
    i = data.draw(st.integers(1, j - 1))
    if vals[j - 1] < 1:
        vals[j - 1] = 1
        x = make_array(vals)
    a = data.draw(st.integers(1, vals[j - 1]))
    before = [*accumulate(x.values)]
    after = [*accumulate(apply_eii(x, Transfer(i, j, a), EXACT).values)]
    for k in range(1, len(vals) + 1):
        if i <= k < j:
            assert after[k - 1] == before[k - 1] + a
        else:
            assert after[k - 1] == before[k - 1]


def test_apply_eii_error_paths():
    x = make_array([1, 2])
    with pytest.raises(TransferExceedsSource):
        apply_eii(x, Transfer(1, 2, 5), EXACT)
    with pytest.raises(IndexOutOfBounds):
        apply_eii(x, Transfer(1, 3, 1), EXACT)
    with pytest.raises(IndexOutOfBounds):
        apply_eii(x, Increase(3, 1), EXACT)
    with pytest.raises(SortStepNotEii):
        apply_eii(x, SortDesc(), EXACT)
    with pytest.raises(NonPositiveAmount, match=r"^transfer amount must be > 0, got 0$"):
        Transfer(1, 2, 0)
    with pytest.raises(NonPositiveAmount, match=r"^increase amount must be > 0, got -1$"):
        Increase(1, -1)
    with pytest.raises(NonPositiveAmount, match=r"^increase amount must be > 0, got inf$"):
        Increase(1, math.inf)
    with pytest.raises(IndexOutOfBounds):
        Transfer(2, 2, 1)
    with pytest.raises(IndexOutOfBounds):
        Transfer(0, 2, 1)
    with pytest.raises(IndexOutOfBounds, match="must be an integer"):
        Transfer(math.inf, 2, 1)
    with pytest.raises(IndexOutOfBounds, match="must be an integer"):
        Increase(math.inf, 1)
    with pytest.raises(IndexOutOfBounds, match="must be an integer"):
        Transfer(1, math.nan, 1)
    with pytest.raises(IndexOutOfBounds, match="i must be an integer, got 1.5"):
        Transfer(1.5, 2, 1)
    with pytest.raises(IndexOutOfBounds, match="i must be an integer, got 2.5"):
        Increase(2.5, 1)


def test_apply_step_rejects_a_non_step():
    vals = [1.0, 2.0]
    with pytest.raises(TypeError, match="not a step"):
        _apply_step(vals, "transfer", EXACT)
    assert vals == [1.0, 2.0]


def test_transfer_within_tolerance_clamps_to_zero():
    x = make_array([0.0, 1.0])
    out = apply_eii(x, Transfer(1, 2, 1.0 + 1e-12), 1e-9)
    assert out.values[1] == 0.0


# ---------------------------------------------------------------------------
# sorting maps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("values,expected", [
    ((7, 1, 4, 4), (7, 4, 4, 1)),
    ((1, 3), (3, 1)),
    ((2, 2, 2), (2, 2, 2)),
])
def test_sort_desc_goldens(values, expected):
    assert sort_desc(make_array(values)).values == tuple(float(v) for v in expected)


@pytest.mark.parametrize("values,expected", [
    ((3, 1), (1, 3)),
    ((2, 2), (2, 2)),
    ((7, 1, 4, 4), (1, 4, 4, 7)),
])
def test_sort_asc_goldens(values, expected):
    assert sort_asc(make_array(values)).values == tuple(float(v) for v in expected)


@given(int_arrays)
def test_sorts_bracket_every_array(x):
    # ascending rearrangement sits below the array, descending above
    assert dominates_or_equal(generalized_compare(sort_asc(x), x, EXACT))
    assert dominates_or_equal(generalized_compare(x, sort_desc(x), EXACT))


# ---------------------------------------------------------------------------
# componentwise order
# ---------------------------------------------------------------------------

def test_componentwise_leq_goldens():
    assert not componentwise_leq(make_array([1, 3]), make_array([2, 2]), EXACT)
    assert componentwise_leq(make_array([2, 4, 2]), make_array([3, 4, 3]), EXACT)
    x = make_array([5, 1, 2])
    assert componentwise_leq(x, x, EXACT)
    with pytest.raises(LengthMismatch):
        componentwise_leq(make_array([1]), make_array([1, 2]))


@given(st.data())
@settings(max_examples=200)
def test_componentwise_bound_survives_descending_sort(data):
    # if Y is non-increasing and X <= Y componentwise, ranking X keeps the bound
    y = sorted(data.draw(st.lists(st.integers(0, 100), min_size=1, max_size=10)), reverse=True)
    x = [data.draw(st.integers(0, v)) for v in y]
    xa, ya = make_array(x), make_array(y)
    assert componentwise_leq(xa, ya, EXACT)
    assert componentwise_leq(sort_desc(xa), ya, EXACT)


def test_sorted_version_may_lose_dominance():
    # fixed two-element counterexample: dominance is not stable under ranking
    x, y = make_array([1, 3]), make_array([2, 2])
    assert generalized_compare(x, y, EXACT) is LSB
    assert generalized_compare(sort_desc(x), y, EXACT) is RSB


def test_staircase_condition_alone_does_not_make_ranking_safe():
    # with an unranked upper array the staircase bound x[t+1] <= y[t] is not
    # enough: ranking the lower array can still leave the dominance cone
    x, y = make_array([73, 21, 0, 48]), make_array([73, 21, 80, 29])
    assert generalized_compare(x, y, EXACT) is LSB
    assert all(x.values[t + 1] <= y.values[t] for t in range(3))
    assert generalized_compare(sort_desc(x), y, EXACT) is INC


def test_staircase_condition_makes_ranking_safe_for_ranked_target():
    # when the upper array is non-increasing and each component of the lower
    # one is bounded by the upper's previous entry, ranking preserves dominance
    import random

    tested = 0
    for seed in range(4000):
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        y = sorted((float(rng.randint(0, 100)) for _ in range(n)), reverse=True)
        x = list(y)
        for _ in range(rng.randint(1, 6)):
            i = rng.randint(1, n - 1)
            j = rng.randint(i + 1, n)
            a = float(rng.randint(0, int(x[i - 1])))
            x[i - 1] -= a
            x[j - 1] += a
        xa, ya = make_array(x), make_array(y)
        assert dominates_or_equal(generalized_compare(xa, ya, EXACT))
        if all(x[t + 1] <= y[t] for t in range(n - 1)):
            tested += 1
            assert dominates_or_equal(generalized_compare(sort_desc(xa), ya, EXACT))
    assert tested > 200


# ---------------------------------------------------------------------------
# impact steps raise strictly (quantified)
# ---------------------------------------------------------------------------

def test_impact_steps_raise_strictly_seeded():
    from genpairs import random_eii_case

    for seed in range(2000):
        x, step = random_eii_case(seed)
        out = apply_eii(x, step, EXACT)
        assert generalized_compare(x, out, EXACT) is LSB
