"""Constructive certificates for the prefix-sum dominance order.

Whenever X is dominated by Y, Y can be reached from X by finitely many
elementary impact steps (transfers toward earlier positions, plus plain
increases).  The functions here produce such a chain as an explicit,
replayable certificate, verify certificates independently of how they were
produced, and generate random dominated pairs for property testing.

Decomposition strategy (one forward sweep, Marshall-Olkin-Arnold Lemma
2.B.1): two pointers move left to right, ``i`` to the first position still
short of the target and ``j`` to the first position still above it.

* While some position ``j`` exceeds the target, transfer from it toward the
  shortfall ``i`` before it, capped by both that deficit and that surplus.
* Once no surplus is left, raise each remaining shortfall to its target
  value with a plain increase.

A step only fills position ``i`` and only drains position ``j``, so no
position behind a pointer becomes unsettled and neither pointer moves back,
except when rounding lifts a filled position over its target or a
decreasing-mode sort reorders the array.  Each step strictly raises at least
one prefix sum while staying inside the dominance cone of the target.
"""

from __future__ import annotations

import json
import random
from enum import Enum
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import add, eq, gt, le, ne
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .core import (
    Array,
    Increase,
    MajorizeError,
    SortDesc,
    Step,
    Transfer,
    apply_eii,
    as_eps,
    make_array,
    plain_number,
    sort_desc,
    _apply_step,
    _float_array,
    _Record,
    _require_same_length,
)


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class NotDominated(MajorizeError):
    """The left array is not below the right one in the dominance order.

    ``witness_index`` is the first (1-based) prefix length at which the left
    prefix sum exceeds the right one.
    """

    def __init__(self, witness_index: int, message: str | None = None):
        super().__init__(
            message
            or f"left array is not dominated: prefix sum {witness_index} exceeds the right one"
        )
        self.witness_index = witness_index


class TargetNotDecreasing(MajorizeError):
    """Decreasing-mode decomposition requires a non-increasing target."""


class SumsNotEqual(MajorizeError):
    """Transfers-only decomposition requires equal totals."""

    def __init__(self, left_total: float, right_total: float):
        super().__init__(f"totals differ: {left_total!r} vs {right_total!r}")
        self.left_total = left_total
        self.right_total = right_total


class MalformedCertificate(MajorizeError):
    """A serialized certificate could not be decoded."""


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

class CertificateMode(Enum):
    GENERAL = "general"
    DECREASING = "decreasing"
    TRANSFERS = "transfers"


class Certificate(_Record):
    """An ordered list of steps transforming ``source`` into ``target``.

    ``intermediates[t]`` records the state after step ``t``; the chain of
    recorded states is what verification checks, independently of the
    producing algorithm.
    """

    __match_args__ = ("source", "target", "steps", "intermediates", "mode")
    source: Array
    target: Array
    steps: tuple[Step, ...]
    intermediates: tuple[Array, ...]
    mode: CertificateMode

    def __init__(self, source: Array, target: Array, steps: tuple[Step, ...],
                 intermediates: tuple[Array, ...], mode: CertificateMode):
        if len(steps) != len(intermediates):
            raise MajorizeError(f"{len(steps)} steps but {len(intermediates)} intermediates")
        n = len(source)
        if len(target) != n or any(len(z) != n for z in intermediates):
            raise MajorizeError("certificate arrays must all have the same length")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "intermediates", intermediates)
        object.__setattr__(self, "mode", mode)

    @property
    def final(self) -> Array:
        return self.intermediates[-1] if self.intermediates else self.source

    @property
    def eii_count(self) -> int:
        return sum(1 for s in self.steps if not isinstance(s, SortDesc))

    # -- serialization ------------------------------------------------------

    def to_json(self, indent: int | None = None) -> str:
        """``json.dumps`` of the certificate's fields, with integral values written as ints.

        The compact text is ``_json_pieces()`` joined.
        """
        text = "".join(self._json_pieces())
        return text if indent is None else json.dumps(json.loads(text), indent=indent)

    def _json_pieces(self, each_state: Optional[Callable[[list[str]], object]] = None) -> list[str]:
        """The compact JSON text in pieces, one per recorded state, for writing without a join.

        The states are formatted once, in chain order, by ``state_texts``, so
        each number is formatted once per change and the target as a change
        from the final state.  ``each_state`` gets the texts of the source and
        of each intermediate as they are formatted.
        """
        states = state_texts((self.source, *self.intermediates, self.target), self.steps)
        source = next(states)
        if each_state is not None:
            each_state(source)
        rows = []
        sep = "["
        for texts in islice(states, len(self.intermediates)):
            if each_state is not None:
                each_state(texts)
            rows.append(f"{sep}{', '.join(texts)}]")
            sep = ", ["
        target = ", ".join(next(states))
        steps = json.dumps([_step_to_dict(s) for s in self.steps])
        head = (f'{{"mode": "{self.mode.value}", "source": [{", ".join(source)}], '
                f'"target": [{target}], "steps": {steps}, "intermediates": [')
        return [head, *rows, "]}"]

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        # every number, ints and NaN/Infinity too, is a float: one object per distinct text
        memo = _FloatMemo()
        try:
            data = json.loads(text, parse_float=memo.__getitem__, parse_int=memo.__getitem__,
                              parse_constant=memo.__getitem__)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, or bytes that do not decode
            raise MalformedCertificate(f"not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise MalformedCertificate("certificate JSON must be an object")
        try:
            mode = CertificateMode(data["mode"])
            source = make_array(_numbers(data["source"], "source"))
            target = make_array(_numbers(data["target"], "target"))
            # built from lists, as in Array, so that no tuple is resized
            steps = tuple([_step_from_dict(s) for s in _array(data["steps"], "steps")])
            # with no minus sign and no boolean, a row of floats is non-negative as it stands
            plain = not (memo.signed() or _may_hold_booleans(text))
            intermediates = tuple(_intermediates(_array(data["intermediates"], "intermediates"),
                                                 len(source), plain))
            return cls(source, target, steps, intermediates, mode)
        except MalformedCertificate:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MalformedCertificate(f"bad certificate data: {exc}") from exc


_JSON_NUMBER_TYPES = {float}  # from_json parses every number as a float; bool is excluded


def _array(value, what: str) -> list:
    if type(value) is not list:
        raise MalformedCertificate(f"{what} must be a JSON array, got {type(value).__name__}")
    return value


def _numbers(value, what: str) -> list:
    if not _JSON_NUMBER_TYPES.issuperset(map(type, _array(value, what))):
        raise MalformedCertificate(f"{what} must hold only numbers")
    return value


class _FloatMemo(dict):
    """``float(text)`` by number text: each text is parsed once and its repeats share one object."""

    def __missing__(self, text: str) -> float:
        value = self[text] = float(text)
        return value

    def signed(self) -> bool:
        """Whether some text had a minus sign, as ``-0.0`` has; the others start with a digit."""
        return min(self, default="0") < "0"


def _may_hold_booleans(text: str) -> bool:
    """Whether the JSON text may hold ``true`` or ``false``, looked for by their ``u`` and ``l``.

    No number holds either letter and a certificate's keys and mode hold one
    or none of each, so a C-level ``find`` for each letter scans the text
    about once; past 8 finds of a letter, or for bytes, the answer is yes.
    """
    if not isinstance(text, str):
        return True
    for word in ("true", "false"):
        k = -1
        for _ in range(8):
            k = text.find(word[2], k + 1)
            if k < 0:
                break
            if text.startswith(word, k - 2):
                return True
        else:
            return True
    return False


def _written(step: Optional[Step], n: int) -> Optional[tuple[int, ...]]:
    """The 0-based positions that ``step`` writes in a length-``n`` state, or None for a sort,
    a step past the end or no step."""
    if isinstance(step, Transfer):
        return (step.i - 1, step.j - 1) if step.j <= n else None
    if isinstance(step, Increase):
        return (step.i - 1,) if step.i <= n else None
    return None


def _intermediates(rows: list, n: int, plain: bool) -> list[Array]:
    """Each row as ``make_array(_numbers(row, "intermediate"))``.

    Where ``plain`` says that no number text had a minus sign and no boolean
    occurs, a list of ``n`` entries already is its state: its floats are
    non-negative, so only its total is checked, and that check also fails
    ``NaN`` and ``inf``.  A string, ``null``, list or object entry makes that
    sum raise ``TypeError``; such a row, and any other, is decoded whole, so
    the errors and their order are those of decoding each row on its own.
    """
    arrays: list[Array] = []
    for row in rows:
        if plain and type(row) is list and len(row) == n:
            try:
                arrays.append(_float_array(tuple(row), ()))
                continue
            except TypeError:
                pass
        arrays.append(make_array(_numbers(row, "intermediate")))
    return arrays


def state_texts(states: Iterable[Array], steps: Iterable[Step] = ()) -> Iterator[list[str]]:
    """Each state's numbers as ``str(plain_number(v))``, for states of one length.

    Consecutive chain states differ in one or two positions (a sort only
    reorders), so each state's texts are its predecessor's with just the
    changed positions formatted again; equal values print alike (``-0.0`` as
    ``0``).  ``steps[t]`` is the step into ``states[t + 1]``, taken as a hint:
    the positions it writes are the only ones formatted again once three
    C-level slice compares show the values before, between and after them
    unchanged.  Past a sort, a step beyond the end, the last step (the target
    has none), or where a state also differs elsewhere, the values are
    compared one by one, so hand-built or tampered certificates encode as before.
    """
    prev: Optional[Sequence[float]] = None
    texts: list[str] = []
    for z, step in zip(states, chain((None,), steps, repeat(None))):
        cur = z.values
        if prev is None:
            texts = [str(plain_number(v)) for v in cur]
        else:
            texts = texts.copy()
            changed = _written(step, len(cur))
            if changed is not None:
                lo, hi = changed[0], changed[-1]
                if not (prev[:lo] == cur[:lo] and prev[lo + 1:hi] == cur[lo + 1:hi]
                        and prev[hi + 1:] == cur[hi + 1:]):
                    changed = None
            if changed is None:
                changed = compress(count(), map(ne, prev, cur))
            for k in changed:
                texts[k] = str(plain_number(cur[k]))
        yield texts
        prev = cur


def _step_to_dict(step: Step) -> dict:
    if isinstance(step, Transfer):
        return {"type": "transfer", "i": step.i, "j": step.j, "a": plain_number(step.a)}
    if isinstance(step, Increase):
        return {"type": "increase", "i": step.i, "a": plain_number(step.a)}
    if isinstance(step, SortDesc):
        return {"type": "sort_desc"}
    raise TypeError(f"not a step: {step!r}")


def _step_from_dict(data: dict) -> Step:
    if not isinstance(data, dict):
        raise MalformedCertificate(f"step must be an object, got {data!r}")
    kind = data.get("type")
    try:
        if kind == "transfer":
            return Transfer(*_numbers([data["i"], data["j"], data["a"]], "transfer fields"))
        if kind == "increase":
            return Increase(*_numbers([data["i"], data["a"]], "increase fields"))
        if kind == "sort_desc":
            return SortDesc()
    except (KeyError, TypeError, MajorizeError) as exc:
        raise MalformedCertificate(f"bad step {data!r}: {exc}") from exc
    raise MalformedCertificate(f"unknown step type {kind!r}")


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

class FailureReason(Enum):
    CHAIN_NOT_STRICT = "ChainNotStrict"
    NOT_SANDWICHED_BY_TARGET = "NotSandwichedByTarget"
    REPLAY_MISMATCH = "ReplayMismatch"
    MODE_VIOLATION = "ModeViolation"
    SORTED_INTERMEDIATE_NOT_BELOW_TARGET = "SortedIntermediateNotBelowTarget"


class VerificationReport(_Record):
    """The verdict; a failed check also names its reason, step and detail.

    A failed prefix-sum check also names the first 1-based prefix that broke
    it, where some prefix did; a chain step that raises no prefix sum has none.
    """

    __match_args__ = ("ok", "checked_steps", "reason", "step_index", "detail", "prefix_index")
    ok: bool
    checked_steps: int
    reason: Optional[FailureReason]
    step_index: Optional[int]  # 0-based step, None for certificate-level failures
    detail: str
    prefix_index: Optional[int]

    def __init__(self, ok: bool, checked_steps: int, reason: Optional[FailureReason] = None,
                 step_index: Optional[int] = None, detail: str = "",
                 prefix_index: Optional[int] = None):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "checked_steps", checked_steps)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "step_index", step_index)
        object.__setattr__(self, "detail", detail)
        object.__setattr__(self, "prefix_index", prefix_index)


def _first_above(sums: Iterable[float], ceiling: Iterable[float]) -> Optional[int]:
    """1-based index of the first running sum above its ceiling, if any (producer and verifier)."""
    return next(compress(count(1), map(gt, sums, ceiling)), None)


def verify_certificate(cert: Certificate, tol: Optional[float] = None) -> VerificationReport:
    """Check a certificate without trusting its producer.

    Every mode requires: each recorded intermediate equals the replay of its
    step exactly, every intermediate strictly dominates its predecessor and
    stays below-or-equal the target, and the last recorded state is the
    target within ``n * eps`` per component.  Decreasing mode additionally
    requires a non-increasing target, sorts only right after impact steps,
    and the descending rearrangement of every impact-step intermediate to
    stay below the target.  Transfers mode additionally requires every step
    to be a transfer and the total to stay within ``n * eps`` at each step.

    Failures are reported, never raised.
    """
    eps = as_eps(tol)
    replay_slack = len(cert.source) * eps  # for the final state and totals only; 0 at eps = 0

    # structural mode checks
    if cert.mode is CertificateMode.TRANSFERS:
        for t, step in enumerate(cert.steps):
            if not isinstance(step, Transfer):
                return VerificationReport(False, 0, FailureReason.MODE_VIOLATION, t,
                                          f"step {t} is not a transfer in transfers-only mode")
    if cert.mode is CertificateMode.DECREASING:
        if not cert.target.is_non_increasing():
            return VerificationReport(False, 0, FailureReason.MODE_VIOLATION, None,
                                      "decreasing-mode target is not non-increasing")
        for t, step in enumerate(cert.steps):
            if isinstance(step, SortDesc):
                if t == 0 or isinstance(cert.steps[t - 1], SortDesc):
                    return VerificationReport(
                        False, 0, FailureReason.MODE_VIOLATION, t,
                        f"sort step {t} does not immediately follow an impact step")

    # running sums are taken in generalized_compare's order; a ceiling is those sums
    # plus eps, so ``s <= ceiling`` is generalized_compare's test
    n = len(cert.source)
    ceiling = list(map(add, accumulate(cert.target.values), repeat(eps)))
    sums = list(accumulate(cert.source.values))  # of the last state checked
    computed = list(cert.source.values)  # the replay's working list
    for t, (step, recorded) in enumerate(zip(cert.steps, cert.intermediates)):
        try:
            _apply_step(computed, step, eps)
        except MajorizeError as exc:
            return VerificationReport(False, t, FailureReason.REPLAY_MISMATCH, t,
                                      f"step {t} is not applicable: {exc}")
        values = recorded.values
        if tuple(computed) != values:
            return VerificationReport(
                False, t, FailureReason.REPLAY_MISMATCH, t,
                f"replaying step {t} does not reproduce the recorded intermediate")
        # Step 0 (the source was never checked against the target) and a sort are
        # checked whole.  Any other state is its step's replay: it differs from the
        # last state only at the step's positions, so only the sums in a window
        # ``lo <= k < stop`` can differ from the last state's, which were checked.
        # * The window starts at the sum before the step's first position.
        # * A transfer's window ends once a sum from its source position ``low`` on
        #   equals the last state's, as every later sum then does too.
        # * The sums before ``low`` (all of them, for an increase) only rose, as IEEE
        #   addition is monotone, so only the sums from ``low`` on can fall.
        if t == 0 or isinstance(step, SortDesc):
            lo = low = 0
            after = list(accumulate(values))
        else:
            lo = max(step.i - 2, 0)
            low = step.j - 1 if isinstance(step, Transfer) else n
            after = list(accumulate(islice(values, lo + 1, low + 1),
                                    initial=sums[lo] if lo else values[0]))
            if low < n and after[-1] != sums[low]:
                rest = accumulate(islice(values, low + 1, None), initial=after[-1])
                meet = next(compress(count(low), map(eq, rest, islice(sums, low, None))), n)
                # the sum at ``low`` is popped and comes back first
                after += accumulate(islice(values, low + 1, meet), initial=after.pop())
        stop = lo + len(after)
        below = all(map(le, islice(sums, low, stop),
                        map(add, islice(after, low - lo, None), repeat(eps))))
        if not (below and any(map(gt, after, map(add, islice(sums, lo, None), repeat(eps))))):
            return VerificationReport(
                False, t, FailureReason.CHAIN_NOT_STRICT, t,
                f"intermediate {t} does not strictly dominate its predecessor",
                None if below else low + _first_above(
                    islice(sums, low, stop), map(add, islice(after, low - lo, None), repeat(eps))))
        if not all(map(le, after, islice(ceiling, lo, None))):
            return VerificationReport(
                False, t, FailureReason.NOT_SANDWICHED_BY_TARGET, t,
                f"intermediate {t} is not dominated by the target",
                lo + _first_above(after, islice(ceiling, lo, None)))
        if cert.mode is CertificateMode.DECREASING and not isinstance(step, SortDesc):
            ranked = sorted(values, reverse=True)
            if not all(map(le, accumulate(ranked), ceiling)):
                return VerificationReport(
                    False, t, FailureReason.SORTED_INTERMEDIATE_NOT_BELOW_TARGET, t,
                    f"descending rearrangement of intermediate {t} is not below the target",
                    _first_above(accumulate(ranked), ceiling))
        if cert.mode is CertificateMode.TRANSFERS:  # a window that ends early keeps the total
            if stop == n and abs(after[-1] - sums[-1]) > replay_slack:
                return VerificationReport(False, t, FailureReason.MODE_VIOLATION, t,
                                          f"total not conserved at step {t}")
        sums[lo:stop] = after

    if any(abs(p - q) > replay_slack for p, q in zip(cert.final.values, cert.target.values)):
        return VerificationReport(False, len(cert.steps), FailureReason.REPLAY_MISMATCH, None,
                                  "final state does not match the target")
    return VerificationReport(True, len(cert.steps))


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

def replay(source: Array, steps: Sequence[Step], tol: Optional[float] = None) -> Array:
    """Left-fold the steps over the source array.

    Errors raised while applying a step carry the 0-based offending position
    in ``exc.step_index``.
    """
    cur = source
    for t, step in enumerate(steps):
        try:
            cur = sort_desc(cur) if isinstance(step, SortDesc) else apply_eii(cur, step, tol)
        except MajorizeError as exc:
            exc.step_index = t
            raise
    return cur


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------

def decompose_general(x: Array, y: Array, tol: Optional[float] = None) -> Certificate:
    """Produce a chain of impact steps from ``x`` to ``y`` (general mode).

    Requires ``x`` to be dominated by ``y``.  Every intermediate strictly
    dominates its predecessor and stays below the target; the chain ends at
    the target (exactly for integer inputs).  For integer inputs up to 2**53
    every step settles a position, so the chain has at most one step per
    position; float rounding can leave a position unsettled and add steps.

    Raises:
        LengthMismatch: the arrays differ in length.
        NotDominated: some prefix sum of ``x`` exceeds that of ``y``,
            reported with the offending prefix length.
    """
    return _decompose(x, y, tol, CertificateMode.GENERAL)


def decompose_decreasing(x: Array, y: Array, tol: Optional[float] = None) -> Certificate:
    """Chain of impact steps with re-sorting, for a non-increasing target.

    After every impact step whose result is out of order, a descending sort
    step is emitted if it raises some prefix sum beyond ``eps``, so the
    working array is kept non-increasing up to rounding.  The descending
    rearrangement of every intermediate is checked to stay below the target,
    which holds when the source itself is non-increasing.

    For sources that are NOT non-increasing, re-sorting an intermediate can
    push an early prefix sum above the target's (e.g. source (0,5,0,9) under
    target (6,4,2,2), where any single impact step leaves a zero in place and
    the three largest components then sum past the target's third prefix).
    When the sweep's step does so, NotDominated is raised on the sorted
    intermediate, even where another chain exists: source (1,0,3) under
    target (2,1,1) is refused, yet ``Transfer(2, 3, 1)`` then ``SortDesc()``
    verifies.  ``decompose_general`` handles every dominated pair regardless
    of order.

    Raises:
        LengthMismatch, NotDominated: as in ``decompose_general``.
        TargetNotDecreasing: ``y`` is not non-increasing.  The check is exact,
            as in ``verify_certificate``: no tolerance applies to the order.
    """
    return _decompose(x, y, tol, CertificateMode.DECREASING)


def decompose_transfers(x: Array, y: Array, tol: Optional[float] = None) -> Certificate:
    """Chain of transfers only, for equal-total inputs.

    With equal totals a plain increase can never occur (it would push the
    running total past the target's), so the general chain consists of
    transfers; this is checked as the chain is built.

    Raises:
        LengthMismatch, NotDominated: as in ``decompose_general``.
        SumsNotEqual: the totals differ beyond tolerance.
        MajorizeError: a shortfall beyond ``eps`` is matched only by a surplus
            within the ``n * eps`` transfer threshold, so the chain would need
            an increase.
    """
    return _decompose(x, y, tol, CertificateMode.TRANSFERS)


def _decompose(x: Array, y: Array, tol: Optional[float], mode: CertificateMode) -> Certificate:
    """The one decomposition loop; ``mode`` adds its precondition and its re-sort or check."""
    eps = as_eps(tol)
    _require_same_length(x, y)
    if mode is CertificateMode.DECREASING and not y.is_non_increasing():
        raise TargetNotDecreasing("target must be non-increasing for decreasing mode")
    if mode is CertificateMode.TRANSFERS and abs(x.total - y.total) > eps:
        raise SumsNotEqual(x.total, y.total)
    ceiling = list(map(add, accumulate(y.values), repeat(eps)))  # as in verify_certificate
    witness = _first_above(accumulate(x.values), ceiling)
    if witness is not None:
        raise NotDominated(witness)

    cur = list(x.values)
    yv = y.values
    n = len(cur)
    surplus_eps = n * eps  # a surplus counts beyond n * eps, a shortfall beyond eps
    steps: list[Step] = []
    inters: list[Array] = []
    cap = 8 * n ** 2 + 64  # tripwire: decreasing mode's re-sorts have no proven linear bound
    i = j = 0  # every position before i is filled, every position before j drained
    while True:
        while i < n and yv[i] - cur[i] <= eps:
            i += 1
        while j < n and cur[j] - yv[j] <= surplus_eps:
            j += 1
        if j < n:
            if i > j:
                raise MajorizeError(
                    f"position {j + 1} exceeds the target with no earlier shortfall to absorb "
                    f"it: the values are beyond exact float arithmetic at eps={eps!r}"
                )
            d, c = yv[i] - cur[i], cur[j] - yv[j]
            step = Transfer(i + 1, j + 1, d if d < c else c)
        elif i < n:
            d = yv[i] - cur[i]
            if mode is CertificateMode.TRANSFERS:
                raise MajorizeError(
                    f"transfers mode would need an increase of {d!r} at position {i + 1}: "
                    f"the surplus that should cover it is within the n*eps transfer threshold"
                )
            step = Increase(i + 1, d)
        else:
            return Certificate(x, y, tuple(steps), tuple(inters), mode)
        _apply_step(cur, step, eps)
        steps.append(step)
        inters.append(_float_array(tuple(cur), (cur[i], cur[j]) if j < n else (cur[i],)))
        if cur[i] - yv[i] > surplus_eps:
            j = i  # rounding lifted the filled position over its target
        if mode is CertificateMode.DECREASING and not inters[-1].is_non_increasing():
            ranked = sorted(cur, reverse=True)
            ranked_sums = list(accumulate(ranked))
            witness = _first_above(ranked_sums, ceiling)
            if witness is not None:
                raise NotDominated(
                    witness,
                    "re-sorting the intermediate leaves the dominance cone; found no "
                    "decreasing-mode chain for this source (sort the source first or "
                    "use general mode)",
                )
            if _first_above(ranked_sums, map(add, accumulate(cur), repeat(eps))):  # else not strict
                cur = ranked
                steps.append(SortDesc())
                inters.append(_float_array(tuple(cur), ()))
                i = j = 0
        if len(steps) > cap:  # only reachable for adversarial sub-eps inputs
            raise MajorizeError("decomposition did not converge; inputs are at tolerance scale")


# ---------------------------------------------------------------------------
# Random dominated pairs
# ---------------------------------------------------------------------------

def random_dominated_pair(
    seed: int,
    n: int,
    k: int,
    integer_mode: bool = True,
    transfers_only: bool = False,
) -> tuple[Array, Array]:
    """Deterministically sample a pair (X, Y) with X dominated by Y.

    Y is sampled first; X is obtained by applying ``k`` random inverse moves
    to it: shifting mass from an earlier position to a later one, or (unless
    ``transfers_only``) deleting mass at a position.  Each inverse move keeps
    the result dominated by its predecessor, so X is dominated by Y by
    transitivity.  With ``transfers_only`` the totals stay equal.

    Integer mode draws entries in 0..100 and integral amounts, so every
    downstream check can run exactly at eps = 0.
    """
    if n < 1:
        raise MajorizeError(f"n must be >= 1, got {n}")
    if k < 0:
        raise MajorizeError(f"k must be >= 0, got {k}")
    rng = random.Random(seed)
    if integer_mode:
        y = [float(rng.randint(0, 100)) for _ in range(n)]
    else:
        y = [rng.uniform(0.0, 100.0) for _ in range(n)]
    x = list(y)
    for _ in range(k):
        shift_mass = transfers_only or (n > 1 and rng.random() < 0.7)
        if shift_mass and n > 1:
            i = rng.randint(1, n - 1)
            j = rng.randint(i + 1, n)
            a = _draw_amount(rng, x[i - 1], integer_mode)
            x[i - 1] -= a
            x[j - 1] += a
        elif not transfers_only:
            i = rng.randint(1, n)
            a = _draw_amount(rng, x[i - 1], integer_mode)
            x[i - 1] -= a
    return make_array(x), make_array(y)


def _draw_amount(rng: random.Random, available: float, integer_mode: bool) -> float:
    if integer_mode:
        return float(rng.randint(0, int(available)))
    return rng.uniform(0.0, available)
