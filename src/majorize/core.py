"""Arrays of non-negative scalars, the prefix-sum dominance order, and elementary impact steps.

The dominance order compared here is defined on raw (unsorted) arrays: X is
below Y when every prefix sum of X is no larger than the corresponding prefix
sum of Y.  Neither sorting nor equal totals is required, so arrays can encode
timelines where position 1 is the most recent period.

All comparisons go through an explicit absolute tolerance.  With ``eps = 0``
and integer-valued inputs every check is exact (doubles represent integers up
to 2**53 exactly).
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left, bisect_right
from enum import Enum
from functools import cached_property, lru_cache
from itertools import accumulate
from operator import ge, gt, or_
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class MajorizeError(ValueError):
    """Base class for every domain error raised by this package."""


class EmptyArray(MajorizeError):
    """An array must hold at least one component."""


class NegativeComponent(MajorizeError):
    """A component was negative (or not a finite number)."""

    def __init__(self, index: int, value: float):
        super().__init__(
            f"component {index} must be a finite non-negative number, got {value!r}"
        )
        self.index = index  # 1-based, matching external representations
        self.value = value


class LengthMismatch(MajorizeError):
    """Two arrays that must have equal length do not."""

    def __init__(self, left_len: int, right_len: int):
        super().__init__(f"arrays have different lengths: {left_len} vs {right_len}")
        self.left_len = left_len
        self.right_len = right_len


class IndexOutOfBounds(MajorizeError):
    """A step index lies outside the array (indices are 1-based)."""


class NonPositiveAmount(MajorizeError):
    """Step amounts must be strictly positive."""


class TransferExceedsSource(MajorizeError):
    """A transfer asked for more than the source position holds."""

    def __init__(self, j: int, available: float, requested: float):
        super().__init__(
            f"cannot move {requested!r} out of position {j}, which holds {available!r}"
        )
        self.j = j
        self.available = available
        self.requested = requested


class SortStepNotEii(MajorizeError):
    """A sort step was passed where an elementary impact step is required."""


# ---------------------------------------------------------------------------
# Comparison slack
# ---------------------------------------------------------------------------

DEFAULT_EPS = 1e-9
EXACT = 0.0


def as_eps(tol: Optional[float]) -> float:
    """The absolute comparison slack: ``None`` gives ``DEFAULT_EPS``.

    ``a <= b`` holds iff ``a <= b + eps``; ``a == b`` holds iff
    ``|a - b| <= eps``.  With ``eps = 0`` the order is a genuine partial
    order (reflexive, antisymmetric, transitive).
    """
    if tol is None:
        return DEFAULT_EPS
    eps = float(tol)
    if not (eps >= 0.0) or math.isinf(eps):
        raise MajorizeError(f"eps must be finite and >= 0, got {eps!r}")
    return eps


# ---------------------------------------------------------------------------
# Arrays and prefix sums
# ---------------------------------------------------------------------------

# Any order of summing n non-negative floats stays within a factor
# (1 + 2**-53)**n of the exact sum, so for any n below 2**54 a sum() below
# 2**1020 leaves every running sum finite.
_SAFE_TOTAL = 2.0 ** 1020


class _Record:
    """Immutable record whose fields are named, in order, by ``__match_args__``.

    Equality, hashing and ``repr`` go by the tuple of field values, as for a
    frozen dataclass.  Each subclass sets its fields in its ``__init__``
    through ``object.__setattr__``.
    """

    __match_args__: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Array(_Record):
    """Immutable finite sequence of non-negative scalars, length >= 1."""

    __match_args__ = ("values",)
    values: tuple[float, ...]

    def __init__(self, values: tuple[float, ...]):
        object.__setattr__(self, "values", values)
        self.__post_init__()

    def __post_init__(self):
        """Validate and normalize ``values`` (derived states from ``_float_array`` skip it)."""
        # From a list, tuple() allocates the exact size; from a bare iterator
        # it allocates 10 slots and resizes.  CPython keeps freed resized
        # tuples on its per-size free lists (up to 2000 each) until a full
        # collection, so a long-lived process running many short commands
        # grew by about 4 MB (Python 3.11, 13,000 commands with n <= 64).
        vals = tuple([*map(float, self.values)])
        if not vals:
            raise EmptyArray("an array needs at least one component")
        # sum() is NaN or inf if any value is; below _SAFE_TOTAL no summation order overflows
        if not (min(vals) >= 0.0 and sum(vals) < _SAFE_TOTAL):
            for idx, v in enumerate(vals, start=1):
                if not (v >= 0.0) or math.isinf(v):  # NaN fails the comparison
                    raise NegativeComponent(idx, v)
            if not list(accumulate(vals))[-1] < math.inf:
                raise MajorizeError("the components sum past the largest float; prefix sums would overflow")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    @property
    def total(self) -> float:
        """The last prefix sum, the same float on every Python version.

        From Python 3.12 on ``sum()`` compensates rounding, so its result
        depends on the interpreter; this is the plain running sum that every
        prefix scan here computes.
        """
        return list(accumulate(self.values, initial=0.0))[-1]

    def is_non_increasing(self) -> bool:
        """Exact check, without tolerance, shared by the decreasing-mode producer and verifier."""
        v = self.values
        return all(map(ge, v, v[1:]))

    # The memos below live in the instance __dict__, beside ``values``: they
    # are not fields, so equality, hashing, repr, pickle and copies ignore them.

    @cached_property
    def _sums(self) -> array:
        """The running sums of ``values``, left to right, computed on first use."""
        return array("d", accumulate(self.values))

    @cached_property
    def _packed(self) -> int:
        """``_sums`` as one int, a 64-bit field per double, with every sign bit clear so -0.0 reads as 0.0."""
        h = _sign_bits(len(self.values))
        return (int.from_bytes(self._sums.tobytes(), sys.byteorder) | h) ^ h  # not & ~h: ~h is slow

    def _guarded(self, eps: float) -> int:
        """The ceilings ``_sums`` plus eps, packed as ``_packed`` with every sign bit set.

        They are kept for the last eps asked: adding eps inside each
        comparison made a ``batch`` at the default eps slower than adding both
        rows up in a Python loop.
        """
        memo = self.__dict__.get("_guard_memo")
        if memo is None or memo[0] != eps:
            h = _sign_bits(len(self.values))
            ceilings = self._packed if eps == 0.0 else int.from_bytes(
                array("d", map(eps.__add__, self._sums)).tobytes(), sys.byteorder)
            memo = self.__dict__["_guard_memo"] = (eps, ceilings | h)
        return memo[1]

    def __getstate__(self) -> dict:
        return {"values": self.values}


@lru_cache(maxsize=64)
def _sign_bits(n: int) -> int:
    """The sign bit of each of n doubles packed as ``Array._packed`` packs them: n packed -0.0."""
    return int.from_bytes(array("d", [-0.0]).tobytes() * n, sys.byteorder)


def make_array(values: Iterable[Union[float, str]]) -> Array:
    """Validating constructor: ``float()`` of each value, or of its text, must be >= 0; length >= 1."""
    return Array(tuple(values))


def _float_array(vals: tuple[float, ...]) -> Array:
    """Trusted constructor: ``Array(vals)`` for floats known not to be negative, without its checks.

    Every state that a step or a sort derives from a valid array holds such
    floats (a step adds only positive amounts and clamps a transfer's source
    at zero), and so does a decoded row whose number texts have no minus
    sign.  Only the total is checked, which also fails ``NaN`` and ``inf``;
    where it fails, ``vals`` goes through ``Array(vals)`` and its errors.
    """
    if vals and sum(vals) < _SAFE_TOTAL:
        arr = object.__new__(Array)
        object.__setattr__(arr, "values", vals)
        return arr
    return Array(vals)


def plain_number(v: float) -> Union[int, float]:
    """Lossless plain form: integral values as ``int``, so they print without a point.

    ``str()`` of the result is the exact literal, and ``json`` writes the same
    digits, so integer certificates and tables round-trip byte-identically.
    """
    return int(v) if v.is_integer() else v


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------

def _check_index(i, name: str = "i") -> int:
    try:
        ii = int(i)
    except (OverflowError, ValueError):  # inf or nan
        raise IndexOutOfBounds(f"{name} must be an integer, got {i!r}") from None
    if ii != i:
        raise IndexOutOfBounds(f"{name} must be an integer, got {i!r}")
    if ii < 1:
        raise IndexOutOfBounds(f"{name} must be >= 1 (indices are 1-based), got {i!r}")
    return ii


def _check_amount(a, kind: str) -> float:
    amount = float(a)
    if not (amount > 0.0) or math.isinf(amount):
        raise NonPositiveAmount(f"{kind} amount must be > 0, got {a!r}")
    return amount


class Transfer(_Record):
    """Move amount ``a`` from position ``j`` to the earlier position ``i`` (1-based, i < j).

    The total is preserved and every prefix sum between i and j-1 grows by
    ``a``, so the result strictly dominates the input.
    """

    __match_args__ = ("i", "j", "a")
    i: int
    j: int
    a: float

    def __init__(self, i: int, j: int, a: float):
        i = _check_index(i, "i")
        j = _check_index(j, "j")
        if j <= i:
            raise IndexOutOfBounds(
                f"transfer source index j must exceed destination i, got i={i}, j={j}"
            )
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "a", _check_amount(a, "transfer"))


class Increase(_Record):
    """Add amount ``a`` at position ``i`` (1-based); nothing is removed anywhere."""

    __match_args__ = ("i", "a")
    i: int
    a: float

    def __init__(self, i: int, a: float):
        object.__setattr__(self, "i", _check_index(i, "i"))
        object.__setattr__(self, "a", _check_amount(a, "increase"))


class SortDesc(_Record):
    """Rearrange the array into non-increasing order (stable for ties)."""


Step = Union[Transfer, Increase, SortDesc]


# ---------------------------------------------------------------------------
# The dominance order
# ---------------------------------------------------------------------------

class DominanceOutcome(Enum):
    EQUAL = "Equal"
    LEFT_STRICTLY_BELOW = "LeftStrictlyBelow"
    RIGHT_STRICTLY_BELOW = "RightStrictlyBelow"
    INCOMPARABLE = "Incomparable"

    # members are singletons compared by identity; Enum's own __hash__ hashes the name in Python code
    __hash__ = object.__hash__


# (left is below right, right is below left) -> outcome
OUTCOME = {
    (True, True): DominanceOutcome.EQUAL,
    (True, False): DominanceOutcome.LEFT_STRICTLY_BELOW,
    (False, True): DominanceOutcome.RIGHT_STRICTLY_BELOW,
    (False, False): DominanceOutcome.INCOMPARABLE,
}
# the outcome with left and right swapped
_FLIPPED = {outcome: OUTCOME[right, left] for (left, right), outcome in OUTCOME.items()}
# each outcome as itself: the cells of dominance_matrix
_IDENTITY = {outcome: outcome for outcome in DominanceOutcome}


def _require_same_length(x: Array, y: Array) -> None:
    if len(x.values) != len(y.values):
        raise LengthMismatch(len(x.values), len(y.values))


def generalized_compare(x: Array, y: Array, tol: Optional[float] = None) -> DominanceOutcome:
    """Four-way comparison under prefix-sum dominance.

    X is below Y when every prefix sum of X is <= the corresponding prefix
    sum of Y (within tolerance); with slack in both directions at every index
    the arrays count as equal.  Antisymmetry and transitivity are exact when
    ``eps = 0``.

    Each array packs its running sums once into one int, a 64-bit field per
    sum (``Array._packed``), and its ceilings, the sums plus eps, the same way
    with every field's sign bit set (``Array._guarded``).  A direction is then
    one big-int subtraction, ceilings minus sums.  Every sum is finite and
    >= 0 and every ceiling >= 0 or +inf, and such doubles sort as their bit
    patterns do, so a field holds 2**63 + c - s, which lies in [1, 2**64): no
    borrow crosses into the next field, and its top bit is set exactly when
    ``s <= c`` as floats.  These are the floats a scan compares with ``>``,
    so each outcome is the scan's.
    """
    _require_same_length(x, y)
    eps = as_eps(tol)
    h = _sign_bits(len(x.values))
    left = (y._guarded(eps) - x._packed) & h == h
    right = (x._guarded(eps) - y._packed) & h == h
    return OUTCOME[left, right]


def dominance_matrix(arrays: Sequence[Array], tol: Optional[float] = None,
                     ranked: bool = False) -> list[list[DominanceOutcome]]:
    """Every pairwise outcome: entry ``[a][b]`` compares ``arrays[a]`` with ``arrays[b]``.

    Each unordered pair is decided once; its mirror entry is the flip, and
    the diagonal is ``EQUAL``.  By default a pair is first filtered by its
    running sums at prefixes 1, 2, 4, 8, ... and n: where one of those sums
    of each array exceeds the other's plus eps, neither array is below the
    other, and the pair is ``INCOMPARABLE`` without a call.  Every other entry
    above the diagonal is ``generalized_compare(arrays[a], arrays[b], eps)``,
    called in row-major order.

    With ``ranked`` the outcome is classical majorization in both directions,
    as ``classical_majorizes`` decides it.  Each array's ranked running sums,
    and their ceilings (the sums plus eps), are computed once, in the order
    ``classical_majorizes`` adds them, so a pair costs two C-level scans and
    the outcomes are its exactly.  Pairs whose totals differ by more than eps
    are ``INCOMPARABLE`` without a scan.  Once the arrays are sorted by total,
    the pairs within eps of an array form one window after it, because float
    subtraction is monotone: the first total beyond eps ends the window.
    """
    return _dominance_rows(arrays, as_eps(tol), ranked, generalized_compare, _IDENTITY)


def _dominance_rows(arrays: Sequence[Array], eps: float, ranked: bool,
                    compare: Callable[[Array, Array, float], DominanceOutcome],
                    cells: Mapping[DominanceOutcome, object]) -> list[list]:
    """``dominance_matrix``'s rows with ``cells[outcome]`` stored for each outcome.

    The cells are stored as each pair is decided, so a caller that prints a
    symbol per outcome keeps one matrix, of symbols, and maps no cell again.
    ``compare`` decides the pairs the prefix filter leaves, unless ``ranked``,
    when it is not called.  It is ``generalized_compare`` or a stand-in for
    it, such as a traced copy; a stand-in must return ``INCOMPARABLE``
    wherever the sampled prefix sums exclude both directions, or the matrix
    mixes two orders.
    """
    for y in arrays[1:]:
        _require_same_length(arrays[0], y)
    m = len(arrays)
    rows = [[cells[DominanceOutcome.INCOMPARABLE]] * m for _ in range(m)]
    equal = cells[DominanceOutcome.EQUAL]
    # the pair's cell and its mirror's, by outcome
    pair = {outcome: (cells[outcome], cells[_FLIPPED[outcome]]) for outcome in DominanceOutcome}
    if not ranked:
        for a, (x, maybe) in enumerate(zip(arrays, _maybe_comparable(arrays, eps))):
            row = rows[a]
            row[a] = equal
            maybe >>= a + 1  # bit p is row b = a + 1 + p
            b = a
            while maybe:
                skip = (maybe & -maybe).bit_length()  # 1 + the lowest set bit's position
                b += skip
                maybe >>= skip
                row[b], rows[b][a] = pair[compare(x, arrays[b], eps)]
        return rows
    sums = [list(accumulate(sorted(x.values, reverse=True))) for x in arrays]
    totals = [run.pop() for run in sums]  # compared apart from the scan
    # sums + eps, the floats classical_majorizes compares against, added for a
    # row when it first meets another: in many tables most rows meet none
    ceilings = sums if eps == 0.0 else [None] * m
    order = sorted(range(m), key=totals.__getitem__)
    verdict_pair = {key: pair[outcome] for key, outcome in OUTCOME.items()}
    for start, a in enumerate(order):
        row = rows[a]
        row[a] = equal
        pa, ca, ta = sums[a], ceilings[a], totals[a]
        for b in order[start + 1:]:
            if totals[b] - ta > eps:
                break
            if ca is None:
                ca = ceilings[a] = list(map(eps.__add__, pa))
            if ceilings[b] is None:
                ceilings[b] = list(map(eps.__add__, sums[b]))
            row[b], rows[b][a] = verdict_pair[not any(map(gt, pa, ceilings[b])), not any(map(gt, sums[b], ca))]
    return rows


def _maybe_comparable(arrays: Sequence[Array], eps: float) -> list[int]:
    """Per row a, a bitmask of the rows b that prefix sums 1, 2, 4, 8, ... and n do not exclude.

    Bit b is clear only when some sampled prefix k has ``s_a[k] > c_b[k]`` and
    some has ``s_b[k] > c_a[k]`` (``c`` the ceilings), so ``generalized_compare``
    finds the pair ``INCOMPARABLE``: these are the floats it compares.  Any
    subset of prefixes would be exact; doubling caps the passes at about
    log2(n) + 1.  Each pass sorts the rows by their k-th sum.  Float ``+ eps``
    is monotone, so the ceilings fall in the same order, and ``bisect`` finds
    each row's bound in either column.
    """
    sums = [x._sums for x in arrays]
    m = len(arrays)
    n = len(sums[0]) if m else 0
    full = (1 << m) - 1
    below = [full] * m  # b in below[a]: s_a[k] <= c_b[k] at every sampled k
    above = [full] * m  # b in above[a]: s_b[k] <= c_a[k] at every sampled k
    for k in (*(1 << i for i in range((n - 1).bit_length())), n):
        col = [s[k - 1] for s in sums]
        top = [*map(eps.__add__, col)]
        order = sorted(range(m), key=col.__getitem__)
        col_sorted = [col[b] for b in order]
        top_sorted = [top[b] for b in order]
        lowest = [0, *accumulate([1 << b for b in order], or_)]  # lowest[j]: the rows of the j smallest sums
        for a in range(m):
            below[a] &= full ^ lowest[bisect_left(top_sorted, col[a])]
            above[a] &= lowest[bisect_right(col_sorted, top[a])]
    return [*map(or_, below, above)]


def dominates_or_equal(outcome: DominanceOutcome) -> bool:
    """True when the left array is below or equal to the right one."""
    return outcome in (DominanceOutcome.EQUAL, DominanceOutcome.LEFT_STRICTLY_BELOW)


def componentwise_leq(x: Array, y: Array, tol: Optional[float] = None) -> bool:
    """True iff x_i <= y_i (within tolerance) at every position."""
    _require_same_length(x, y)
    eps = as_eps(tol)
    return all(xv <= yv + eps for xv, yv in zip(x.values, y.values))


# ---------------------------------------------------------------------------
# Applying steps
# ---------------------------------------------------------------------------

def apply_eii(x: Array, step: Step, tol: Optional[float] = None) -> Array:
    """Apply one elementary impact step (transfer or increase) to an array.

    The result strictly dominates the input in the generalized order: a
    transfer raises the prefix sums between its two positions, an increase
    raises every prefix sum from its position on.

    Raises:
        SortStepNotEii: a SortDesc step was passed; use ``sort_desc`` instead.
        IndexOutOfBounds: a step index exceeds the array length.
        TransferExceedsSource: the source position holds less than the amount
            (beyond tolerance; shortfalls within eps are clamped to zero).
    """
    if isinstance(step, SortDesc):
        raise SortStepNotEii("SortDesc is not an elementary impact step; apply sort_desc")
    vals = list(x.values)
    _apply_step(vals, step, as_eps(tol))
    return _float_array(tuple(vals))


def _apply_step(vals: list[float], step: Step, eps: float) -> None:
    """Check that ``step`` fits ``vals`` and apply it in place (producer, verifier, ``apply_eii``).

    A transfer's source is clamped at zero, so a shortfall within eps never
    leaves a negative component.  The result is not validated: it may overflow.
    """
    n = len(vals)
    if isinstance(step, Transfer):
        if step.j > n:
            raise IndexOutOfBounds(f"transfer touches position {step.j} of a length-{n} array")
        src = vals[step.j - 1]
        if step.a > src + eps:
            raise TransferExceedsSource(step.j, src, step.a)
        vals[step.i - 1] += step.a
        rest = src - step.a
        vals[step.j - 1] = rest if rest > 0.0 else 0.0
    elif isinstance(step, Increase):
        if step.i > n:
            raise IndexOutOfBounds(f"increase touches position {step.i} of a length-{n} array")
        vals[step.i - 1] += step.a
    elif isinstance(step, SortDesc):
        vals.sort(reverse=True)
    else:
        raise TypeError(f"not a step: {step!r}")


# ---------------------------------------------------------------------------
# Sorting maps
# ---------------------------------------------------------------------------

def sort_desc(x: Array) -> Array:
    """The non-increasing rearrangement; ties keep their original relative order."""
    return _float_array(tuple(sorted(x.values, reverse=True)))


def sort_asc(x: Array) -> Array:
    """The non-decreasing rearrangement.  Overflow is judged on its running sum, so the valid
    ``[sys.float_info.max, 2.0**969, 2.0**969]`` raises ``MajorizeError`` here."""
    return _float_array(tuple(sorted(x.values)))
