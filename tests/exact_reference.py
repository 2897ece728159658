"""Exact reference verifier for certificates at eps 0, independent of the library's verifier.

``verify_certificate(cert, 0.0)`` takes float running sums.  ``exact_verdict``
reads the same rules in exact arithmetic:

* each step is replayed in floats by ``replay_step``, a few lines of its own
  rather than the library's step routine, and each recorded state must equal
  that replay exactly;
* every order check runs on ``Fraction`` prefix sums: strictness, below the
  target, the ranked check after each decreasing-mode impact step and
  conservation in transfers mode.

The checks run in ``verify_certificate``'s order, so on integers, where float
sums are exact, both name the same reason, step and prefix.  Prefix sums are
memoized per state, since small grids and their mutants repeat states often.

Run as a script, it prints how the two verifiers split the certificates of a
seeded float corpus (general mode, eps 0); nothing is asserted::

    PYTHONPATH=src python tests/exact_reference.py
"""

from __future__ import annotations

import functools
from collections import Counter
from fractions import Fraction
from itertools import accumulate, compress, count
from operator import gt
from typing import Optional, Sequence

from majorize import (
    EXACT,
    Certificate,
    CertificateMode,
    FailureReason,
    MajorizeError,
    SortDesc,
    Step,
    Transfer,
    decompose_general,
    dominates_or_equal,
    generalized_compare,
    random_dominated_pair,
    verify_certificate,
)

Verdict = tuple[bool, Optional[FailureReason], Optional[int], Optional[int]]


@functools.lru_cache(maxsize=1 << 12)
def exact_sums(values: tuple[float, ...]) -> tuple[Fraction, ...]:
    """The running sums of ``values`` in exact arithmetic."""
    return tuple(accumulate(map(Fraction, values)))


@functools.lru_cache(maxsize=1 << 14)
def first_above(values: tuple[float, ...], bound: tuple[float, ...]) -> Optional[int]:
    """1-based index of the first prefix where ``values`` sum above ``bound`` exactly, or None."""
    return next(compress(count(1), map(gt, exact_sums(values), exact_sums(bound))), None)


def replay_step(values: tuple[float, ...], step: Step) -> Optional[tuple[float, ...]]:
    """The state after ``step`` in floats at eps 0, or None where the step does not fit."""
    if isinstance(step, SortDesc):
        return tuple(sorted(values, reverse=True))
    out = list(values)
    if isinstance(step, Transfer):
        if step.j > len(out) or step.a > out[step.j - 1]:
            return None
        out[step.j - 1] -= step.a
    elif step.i > len(out):
        return None
    out[step.i - 1] += step.a
    return tuple(out)


def exact_verdict(cert: Certificate) -> Verdict:
    """``(ok, reason, step_index, prefix_index)`` for ``cert`` at eps 0, in exact arithmetic."""
    steps = cert.steps
    if cert.mode is CertificateMode.TRANSFERS:
        for t, step in enumerate(steps):
            if not isinstance(step, Transfer):
                return False, FailureReason.MODE_VIOLATION, t, None
    if cert.mode is CertificateMode.DECREASING:
        ranks = cert.target.values
        if any(a < b for a, b in zip(ranks, ranks[1:])):
            return False, FailureReason.MODE_VIOLATION, None, None
        for t, step in enumerate(steps):
            if isinstance(step, SortDesc) and (t == 0 or isinstance(steps[t - 1], SortDesc)):
                return False, FailureReason.MODE_VIOLATION, t, None

    target = cert.target.values
    prev = cert.source.values
    for t, (step, recorded) in enumerate(zip(steps, cert.intermediates)):
        state = recorded.values
        if replay_step(prev, step) != state:
            return False, FailureReason.REPLAY_MISMATCH, t, None
        # below its predecessor's sums and, being a different state, above one of them
        witness = first_above(prev, state)
        if witness is not None or state == prev:
            return False, FailureReason.CHAIN_NOT_STRICT, t, witness
        witness = first_above(state, target)
        if witness is not None:
            return False, FailureReason.NOT_SANDWICHED_BY_TARGET, t, witness
        if cert.mode is CertificateMode.DECREASING and not isinstance(step, SortDesc):
            witness = first_above(tuple(sorted(state, reverse=True)), target)
            if witness is not None:
                return False, FailureReason.SORTED_INTERMEDIATE_NOT_BELOW_TARGET, t, witness
        if cert.mode is CertificateMode.TRANSFERS and exact_sums(state)[-1] != exact_sums(prev)[-1]:
            return False, FailureReason.MODE_VIOLATION, t, None
        prev = state
    if prev != cert.target.values:
        return False, FailureReason.REPLAY_MISMATCH, None, None
    return True, None, None, None


def float_corpus_table(pairs: int = 3000) -> None:
    """Print how the float verifier and the exact reading split a seeded float corpus."""
    refused = misjudged = not_below = 0
    split: Counter = Counter()
    for s in range(pairs):
        x, y = random_dominated_pair(s, 3 + s % 40, 10, integer_mode=False)
        exactly_below = first_above(x.values, y.values) is None
        misjudged += not exactly_below and dominates_or_equal(generalized_compare(x, y, EXACT))
        try:
            cert = decompose_general(x, y, EXACT)
        except MajorizeError:
            refused += 1
            continue
        split[verify_certificate(cert, EXACT).ok, exact_verdict(cert)[0]] += 1
        not_below += not exactly_below
    word = {True: "accepts", False: "rejects"}
    print(f"corpus: random_dominated_pair(s, 3 + s % 40, 10, integer_mode=False), "
          f"s = 0..{pairs - 1}; decompose_general and verify_certificate at eps 0")
    print(f"pairs refused: {refused}")
    print(f"certificates written: {sum(split.values())}")
    print(f"accepted by the float verifier: {split[True, True] + split[True, False]}")
    print("float verifier | exact reading | certificates")
    for key in ((True, True), (False, True), (True, False), (False, False)):
        print(f"{word[key[0]]:<14} | {word[key[1]]:<13} | {split[key]:,}")
    print(f"pairs that generalized_compare calls dominated but exact sums do not: {misjudged}")
    print(f"certified sources not below their target in exact arithmetic: {not_below}")


if __name__ == "__main__":
    float_corpus_table()
