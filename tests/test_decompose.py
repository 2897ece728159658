import collections
import json
import random
from itertools import accumulate, islice, repeat
from operator import add, gt, le

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from majorize import (
    DEFAULT_EPS,
    EXACT,
    Array,
    Certificate,
    CertificateMode,
    DominanceOutcome,
    FailureReason,
    Increase,
    LengthMismatch,
    MajorizeError,
    MalformedCertificate,
    NotDominated,
    SortDesc,
    SumsNotEqual,
    TargetNotDecreasing,
    Transfer,
    TransferExceedsSource,
    VerificationReport,
    apply_eii,
    as_eps,
    decompose_decreasing,
    decompose_general,
    decompose_transfers,
    dominates_or_equal,
    generalized_compare,
    make_array,
    random_dominated_pair,
    replay,
    sort_desc,
    verify_certificate,
)
import majorize.decompose as decompose_module
from majorize.core import _apply_step, plain_number
from majorize.decompose import _array, _first_above, _numbers, _step_from_dict
from exact_reference import exact_verdict
from genpairs import NumberText, decreasing_pair, dumps, sized

CHAIN_SOURCE = make_array([4, 4, 4, 4])
CHAIN_TARGET = make_array([14, 1, 1, 1])
CHAIN_STEPS = (
    Transfer(1, 2, 3), SortDesc(), Transfer(1, 2, 3), SortDesc(), Transfer(1, 2, 3), Increase(1, 1),
)
CHAIN_INTERMEDIATES = (
    (7, 1, 4, 4), (7, 4, 4, 1), (10, 1, 4, 1), (10, 4, 1, 1), (13, 1, 1, 1), (14, 1, 1, 1),
)


def chain_certificate() -> Certificate:
    return decompose_decreasing(CHAIN_SOURCE, CHAIN_TARGET, EXACT)


# ---------------------------------------------------------------------------
# general mode
# ---------------------------------------------------------------------------

def test_general_golden_mixed_cases():
    cert = decompose_general(make_array([1, 5, 2]), make_array([3, 4, 3]), EXACT)
    assert cert.steps == (Transfer(1, 2, 1), Increase(1, 1), Increase(3, 1))
    assert tuple(z.values for z in cert.intermediates) == (
        (2.0, 4.0, 2.0), (3.0, 4.0, 2.0), (3.0, 4.0, 3.0),
    )
    assert replay(cert.source, cert.steps, EXACT) == cert.target
    assert verify_certificate(cert, EXACT).ok


def test_general_equal_input_gives_empty_certificate():
    cert = decompose_general(make_array([5, 5]), make_array([5, 5]), EXACT)
    assert cert.steps == ()
    assert cert.final == cert.source
    assert verify_certificate(cert, EXACT).ok


def test_general_pure_increases():
    cert = decompose_general(make_array([0, 0, 0]), make_array([1, 2, 3]), EXACT)
    assert cert.steps == (Increase(1, 1), Increase(2, 2), Increase(3, 3))
    assert replay(cert.source, cert.steps, EXACT) == cert.target


def test_general_rejects_non_dominated_with_witness():
    with pytest.raises(NotDominated) as exc:
        decompose_general(make_array([3, 1]), make_array([2, 2]), EXACT)
    assert exc.value.witness_index == 1
    with pytest.raises(LengthMismatch):
        decompose_general(make_array([1]), make_array([1, 2]), EXACT)


@pytest.mark.parametrize("sums,ceiling,expected", [
    ([1, 3], [2, 2], 2),
    ([3, 1], [2, 2], 1),
    ([2, 4], [2, 4], None),
    ([], [], None),
], ids=["second", "first", "equal", "empty"])
def test_first_above_names_the_first_prefix_over_its_ceiling(sums, ceiling, expected):
    assert _first_above(iter(sums), iter(ceiling)) == expected


def test_general_handles_any_component_order():
    cert = decompose_general(make_array([0, 5, 0, 9]), make_array([6, 4, 2, 2]), EXACT)
    assert verify_certificate(cert, EXACT).ok
    assert cert.final == cert.target


# ---------------------------------------------------------------------------
# decreasing mode
# ---------------------------------------------------------------------------

def test_decreasing_golden_chain():
    cert = chain_certificate()
    assert cert.mode is CertificateMode.DECREASING
    assert cert.steps == CHAIN_STEPS
    assert tuple(z.values for z in cert.intermediates) == tuple(
        tuple(float(v) for v in z) for z in CHAIN_INTERMEDIATES
    )
    assert verify_certificate(cert, EXACT).ok


def test_decreasing_equal_input():
    cert = decompose_decreasing(make_array([3, 2, 1]), make_array([3, 2, 1]), EXACT)
    assert cert.steps == ()
    assert verify_certificate(cert, EXACT).ok


def test_decreasing_single_increase_no_sort():
    cert = decompose_decreasing(make_array([2, 2]), make_array([3, 2]), EXACT)
    assert cert.steps == (Increase(1, 1),)
    assert cert.intermediates[0].values == (3.0, 2.0)


def test_decreasing_requires_ranked_target():
    with pytest.raises(TargetNotDecreasing):
        decompose_decreasing(make_array([1, 1]), make_array([1, 2]), EXACT)


def test_decreasing_unrankable_source_is_refused():
    # any single impact step from (0,5,0,9) leaves a zero in place, so the
    # three largest components of the result sum past the target's third
    # prefix; no re-sorting chain below (6,4,2,2) exists and the producer
    # must refuse instead of emitting an unverifiable certificate
    with pytest.raises(NotDominated) as exc:
        decompose_decreasing(make_array([0, 5, 0, 9]), make_array([6, 4, 2, 2]), EXACT)
    assert "decreasing-mode chain" in str(exc.value)
    assert exc.value.witness_index == 1  # the first step gives (1,4,0,9), ranked (9,4,1,0)


UNRANKED_SOURCE = make_array([1, 0, 3])
RANKED_TARGET = make_array([2, 1, 1])


def test_decreasing_chain_exists_for_a_refused_unranked_source():
    # Transfer(2, 3, 1) gives (1,1,2), ranked (2,1,1), inside the cone; the
    # sweep moves 1 to position 1 instead, and (2,0,2) ranked (2,2,0) is not
    cert = Certificate(
        UNRANKED_SOURCE, RANKED_TARGET, (Transfer(2, 3, 1), SortDesc()),
        (make_array([1, 1, 2]), RANKED_TARGET), CertificateMode.DECREASING,
    )
    assert verify_certificate(cert, EXACT).ok


@pytest.mark.xfail(strict=True, raises=NotDominated,
                   reason="the sweep's step leaves the cone and no other step is tried")
def test_decreasing_certifies_an_unranked_source_that_has_a_chain():
    cert = decompose_decreasing(UNRANKED_SOURCE, RANKED_TARGET, EXACT)
    assert verify_certificate(cert, EXACT).ok


def assert_states_are_arrays(cert: Certificate) -> None:
    """Every state the producer recorded is what the validating constructor builds."""
    for z in cert.intermediates:
        assert z == make_array(z.values)


def test_decreasing_chain_properties_on_ranked_pairs():
    for seed in range(300):
        x, y = decreasing_pair(seed, (seed % 10) + 1, (seed % 6) + 1)
        cert = decompose_decreasing(x, y, EXACT)
        assert verify_certificate(cert, EXACT).ok
        assert_states_are_arrays(cert)
        assert cert.final == y
        for step, z in zip(cert.steps, cert.intermediates):
            if not isinstance(step, SortDesc):
                assert dominates_or_equal(generalized_compare(sort_desc(z), y, EXACT))
        assert cert.eii_count <= len(x) ** 2


# ---------------------------------------------------------------------------
# transfers mode
# ---------------------------------------------------------------------------

def test_transfers_golden_single_step():
    cert = decompose_transfers(make_array([3, 2, 1]), make_array([4, 1, 1]), EXACT)
    assert cert.steps == (Transfer(1, 2, 1),)
    assert cert.mode is CertificateMode.TRANSFERS


def test_transfers_equal_input():
    cert = decompose_transfers(make_array([2, 2]), make_array([2, 2]), EXACT)
    assert cert.steps == ()
    assert verify_certificate(cert, EXACT).ok


def test_transfers_longer_chain_verifies():
    cert = decompose_transfers(make_array([2, 2, 2]), make_array([4, 1, 1]), EXACT)
    assert all(isinstance(s, Transfer) for s in cert.steps)
    assert verify_certificate(cert, EXACT).ok
    assert cert.final == cert.target


def test_transfers_rejects_unequal_totals():
    with pytest.raises(SumsNotEqual):
        decompose_transfers(make_array([2, 2]), make_array([3, 2]), EXACT)


def test_equal_totals_never_need_increases():
    # with equal totals the general chain is already transfers-only and the
    # transfers-mode chain is identical
    for seed in range(300):
        x, y = random_dominated_pair(seed, (seed % 10) + 1, (seed % 7), transfers_only=True)
        general = decompose_general(x, y, EXACT)
        assert not any(isinstance(s, Increase) for s in general.steps)
        restricted = decompose_transfers(x, y, EXACT)
        assert restricted.steps == general.steps
        assert_states_are_arrays(general)
        assert_states_are_arrays(restricted)


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def test_replay_golden_chain():
    assert replay(CHAIN_SOURCE, CHAIN_STEPS, EXACT) == CHAIN_TARGET


def test_replay_empty_is_identity():
    x = make_array([1, 2, 3])
    assert replay(x, (), EXACT) == x


def test_replay_reports_offending_step_index():
    with pytest.raises(TransferExceedsSource) as exc:
        replay(make_array([1, 1]), (Increase(1, 1), Transfer(1, 2, 5)), EXACT)
    assert exc.value.step_index == 1


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_verify_accepts_golden_chain():
    report = verify_certificate(chain_certificate(), EXACT)
    assert report.ok
    assert report.checked_steps == 6
    assert report.reason is None


def test_verify_accepts_empty_certificate():
    cert = Certificate(make_array([1, 2]), make_array([1, 2]), (), (), CertificateMode.GENERAL)
    assert verify_certificate(cert, EXACT).ok


def test_verify_flags_perturbed_amount_as_replay_mismatch():
    cert = chain_certificate()
    steps = (Transfer(1, 2, 2),) + cert.steps[1:]
    tampered = Certificate(cert.source, cert.target, steps, cert.intermediates, cert.mode)
    report = verify_certificate(tampered, EXACT)
    assert not report.ok
    assert report.reason is FailureReason.REPLAY_MISMATCH
    assert report.step_index == 0


def test_verify_flags_unreached_target():
    cert = Certificate(make_array([1, 1]), make_array([2, 2]), (), (), CertificateMode.GENERAL)
    report = verify_certificate(cert, EXACT)
    assert not report.ok
    assert report.reason is FailureReason.REPLAY_MISMATCH
    assert report.step_index is None


def test_verify_flags_non_strict_chain():
    # a sort recorded on an already-ranked state changes nothing
    src = make_array([2, 1])
    cert = Certificate(src, src, (SortDesc(),), (src,), CertificateMode.GENERAL)
    report = verify_certificate(cert, EXACT)
    assert not report.ok
    assert report.reason is FailureReason.CHAIN_NOT_STRICT
    assert report.prefix_index is None  # no prefix sum falls, none rises either


def test_verify_names_the_prefix_where_a_state_falls_below_its_predecessor():
    # the recorded state is the step's replay, (6, 1e16 + 4, 0); near 1e16 the running
    # sums round, so the transfer lowers prefix sum 3 from 1e16 + 12 to 1e16 + 10
    source = make_array([3, 10000000000000004, 3])
    step = Transfer(1, 3, 3)
    state = list(source.values)
    _apply_step(state, step, EXACT)
    cert = Certificate(source, make_array([10000000000000008, 10000000000000008, 0]),
                       (step,), (make_array(state),), CertificateMode.GENERAL)
    report = verify_certificate(cert)
    assert (report.reason, report.step_index, report.prefix_index) == (
        FailureReason.CHAIN_NOT_STRICT, 0, 3)


def test_verify_flags_overshoot_past_target():
    cert = Certificate(
        make_array([1, 1]), make_array([2, 2]),
        (Increase(1, 5),), (make_array([6, 1]),), CertificateMode.GENERAL,
    )
    report = verify_certificate(cert, EXACT)
    assert not report.ok
    assert report.reason is FailureReason.NOT_SANDWICHED_BY_TARGET
    assert report.prefix_index == 1


def test_verify_flags_increase_in_transfers_mode():
    cert = Certificate(
        make_array([1, 1]), make_array([2, 1]),
        (Increase(1, 1),), (make_array([2, 1]),), CertificateMode.TRANSFERS,
    )
    report = verify_certificate(cert, EXACT)
    assert not report.ok
    assert report.reason is FailureReason.MODE_VIOLATION


def test_verify_flags_unranked_target_in_decreasing_mode():
    cert = Certificate(
        make_array([1, 2]), make_array([1, 2]), (), (), CertificateMode.DECREASING,
    )
    report = verify_certificate(cert, EXACT)
    assert not report.ok
    assert report.reason is FailureReason.MODE_VIOLATION


def test_verify_flags_sort_without_preceding_impact_step():
    cert = Certificate(
        make_array([1, 2]), make_array([2, 1]),
        (SortDesc(),), (make_array([2, 1]),), CertificateMode.DECREASING,
    )
    report = verify_certificate(cert, EXACT)
    assert not report.ok
    assert report.reason is FailureReason.MODE_VIOLATION


def test_verify_flags_sorted_intermediate_above_target():
    cert = Certificate(
        make_array([0, 5, 0, 9]), make_array([6, 4, 2, 2]),
        (Transfer(1, 2, 1),), (make_array([1, 4, 0, 9]),), CertificateMode.DECREASING,
    )
    report = verify_certificate(cert, EXACT)
    assert not report.ok
    assert report.reason is FailureReason.SORTED_INTERMEDIATE_NOT_BELOW_TARGET
    assert report.prefix_index == 1  # ranked (9, 4, 1, 0) against (6, 4, 2, 2)


@pytest.mark.parametrize("produce,pair", [
    (decompose_general, lambda: random_dominated_pair(160, 160, 320)),
    (decompose_decreasing, lambda: decreasing_pair(160, 160, 320)),
    (decompose_transfers, lambda: random_dominated_pair(160, 160, 320, transfers_only=True)),
], ids=["general", "decreasing", "transfers"])
def test_verifier_builds_no_array(monkeypatch, produce, pair):
    cert = produce(*pair(), EXACT)
    built = []
    post_init = Array.__post_init__

    def counted(self):
        built.append(self.values)
        post_init(self)

    monkeypatch.setattr(Array, "__post_init__", counted)
    report = verify_certificate(cert, EXACT)
    assert report.ok and report.checked_steps == len(cert.steps) > 100
    assert not built


def test_totals_never_decrease_along_chains():
    for seed in range(200):
        x, y = random_dominated_pair(seed + 5000, (seed % 9) + 1, (seed % 6) + 1)
        cert = decompose_general(x, y, EXACT)
        assert_states_are_arrays(cert)
        prev = cert.source
        for step, z in zip(cert.steps, cert.intermediates):
            if isinstance(step, Increase):
                assert z.total > prev.total
            else:
                assert z.total == prev.total
            prev = z


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_certificate_round_trip_is_exact_for_integers():
    cert = chain_certificate()
    text = cert.to_json()
    again = Certificate.from_json(text)
    assert again == cert
    assert again.to_json() == text
    # integral values carry no decimal point
    assert '"a": 3' in text and '"a": 3.0' not in text


def test_certificate_round_trip_floats():
    cert = decompose_general(make_array([0.5, 2.25]), make_array([1.75, 1.5]), EXACT)
    again = Certificate.from_json(cert.to_json())
    assert again == cert


# values whose text is easy to get wrong: signed zero, a subnormal, a short decimal,
# and integral floats beyond 2**53 that must print as ints, not in exponent form
_AWKWARD_VALUES = st.sampled_from([0.0, -0.0, 5e-324, 0.1, 1.0, 2.5, 1e16, 2.0 ** 53 + 2, 1e22])
_VALUES = _AWKWARD_VALUES | st.floats(0.0, 1e22)
_AMOUNTS = st.sampled_from([5e-324, 0.1, 1.0, 2.0 ** 53 + 2, 1e22]) | st.floats(1e-300, 1e22)
_STEPS = st.one_of(
    st.builds(lambda i, d, a: Transfer(i, i + d, a), st.integers(1, 5), st.integers(1, 5), _AMOUNTS),
    st.builds(Increase, st.integers(1, 6), _AMOUNTS),
    st.just(SortDesc()),
)


@st.composite
def hand_built_certificates(draw):
    """Certificates no producer wrote: states unrelated to the steps and, in places, to each other."""
    n = draw(st.integers(1, 6))
    state = st.lists(_VALUES, min_size=n, max_size=n)
    source = make_array(draw(state))
    steps = draw(st.lists(_STEPS, max_size=6))
    prev, inters = source.values, []
    for _ in steps:
        # each position is kept from the state before or drawn afresh, so some states
        # share most values with their predecessor and others share none
        fresh, keep = draw(state), draw(st.lists(st.booleans(), min_size=n, max_size=n))
        prev = [p if k else f for p, f, k in zip(prev, fresh, keep)]
        inters.append(make_array(prev))
    target = make_array(draw(state))
    return Certificate(source, target, tuple(steps), tuple(inters),
                       draw(st.sampled_from(CertificateMode)))


def _reference_dict(cert: Certificate) -> dict:
    """The certificate as a dict, one ``plain_number`` per value."""
    def step(s):
        if isinstance(s, Transfer):
            return {"type": "transfer", "i": s.i, "j": s.j, "a": plain_number(s.a)}
        if isinstance(s, Increase):
            return {"type": "increase", "i": s.i, "a": plain_number(s.a)}
        return {"type": "sort_desc"}

    return {
        "mode": cert.mode.value,
        "source": [plain_number(v) for v in cert.source],
        "target": [plain_number(v) for v in cert.target],
        "steps": [step(s) for s in cert.steps],
        "intermediates": [[plain_number(v) for v in z] for z in cert.intermediates],
    }


@settings(max_examples=300, deadline=None)
@given(hand_built_certificates())
@example(Certificate(make_array([0.0, 1.0]), make_array([-0.0, 1.0]), (Increase(2, 1),),
                     (make_array([-0.0, 1.0]),), CertificateMode.GENERAL))  # 0.0 == -0.0
def test_encoding_matches_a_reference_encoder(cert):
    reference = _reference_dict(cert)
    assert cert.to_json() == json.dumps(reference)
    assert cert.to_json(indent=2) == json.dumps(reference, indent=2)
    assert json.loads(cert.to_json()) == reference
    assert json.dumps(json.loads(cert.to_json())) == json.dumps(reference)  # ints stay ints


def _float_pair_size(i: int) -> tuple[int, int]:
    """``sized(i)``, except that every 100th pair is long: n = 50 + i // 100, k = 2n."""
    if i % 100:
        return sized(i)
    n = 50 + i // 100
    return n, 2 * n


def _oracle_tamperings(cert: Certificate, rng: random.Random) -> dict[str, Certificate]:
    """bench/oracle.py's tamperings by kind: +1 on the amount of an impact step moving at
    least 1, that step dropped with its state, or +1 on one recorded component; and one
    recorded component moved by n * eps / 2 at the default eps, which only the exact replay
    check rejects."""
    steps, inters = cert.steps, cert.intermediates

    def tampered(new_steps, new_inters):
        return Certificate(cert.source, cert.target, new_steps, new_inters, cert.mode)

    out = {}
    impact = [t for t, step in enumerate(steps) if not isinstance(step, SortDesc) and step.a >= 1]
    if impact:
        t = rng.choice(impact)
        step = steps[t]
        bigger = (Transfer(step.i, step.j, step.a + 1) if isinstance(step, Transfer)
                  else Increase(step.i, step.a + 1))
        out["amount"] = tampered(steps[:t] + (bigger,) + steps[t + 1:], inters)
        out["drop"] = tampered(steps[:t] + steps[t + 1:], inters[:t] + inters[t + 1:])
    if inters:
        t, k = rng.randrange(len(inters)), rng.randrange(len(cert.source))
        vals = list(inters[t].values)
        vals[k] += 1
        out["component"] = tampered(steps, inters[:t] + (make_array(vals),) + inters[t + 1:])
        t, k = rng.randrange(len(inters)), rng.randrange(len(cert.source))
        vals = list(inters[t].values)
        vals[k] += len(cert.source) * DEFAULT_EPS / 2
        out["nudge"] = tampered(steps, inters[:t] + (make_array(vals),) + inters[t + 1:])
    return out


@pytest.mark.parametrize("produce,pair", [
    (decompose_general, lambda s, n, k: random_dominated_pair(s, n, k, integer_mode=False)),
    (decompose_transfers,
     lambda s, n, k: random_dominated_pair(s, n, k, integer_mode=False, transfers_only=True)),
    (decompose_decreasing, lambda s, n, k: decreasing_pair(s, n, k, integer_mode=False)),
], ids=["general", "transfers", "decreasing"])
def test_float_certificates_verify_at_default_eps(produce, pair):
    # float pairs exercise the n*eps slacks, on the final state and on transfers-mode totals,
    # that integer suites at eps = 0 never reach; each tampering must be rejected at the same eps
    tampered = collections.Counter()
    for i in range(2000):
        x, y = pair(6000 + i, *_float_pair_size(i))
        cert = produce(x, y)
        assert_states_are_arrays(cert)
        report = verify_certificate(cert)
        assert report.ok, (i, report.reason, report.detail)
        again = Certificate.from_json(cert.to_json())
        assert again == cert
        assert verify_certificate(again).ok, i
        for kind, bad in _oracle_tamperings(cert, random.Random(i)).items():
            assert not verify_certificate(bad).ok, (i, kind)
            tampered[kind] += 1
    assert min(tampered.values()) >= 1000, tampered


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="at eps 0 float running sums hide a transfer that lowers "
                          "the exact total (ROADMAP item 2)")
def test_verifier_agrees_with_the_exact_reference_at_eps_0_on_floats():
    cert = decompose_general(*random_dominated_pair(1, 4, 10, integer_mode=False), EXACT)
    report = verify_certificate(cert, EXACT)
    # the exact reading is (False, ChainNotStrict, 1, 4): step 1 lowers the exact total
    assert (report.ok, report.reason, report.step_index, report.prefix_index) == exact_verdict(cert)


def test_rounding_can_add_steps_beyond_one_per_position():
    cert = decompose_general(make_array([1, 0]), make_array([10000000000000002, 3]))
    assert cert.steps == (Increase(1, 1e16), Increase(1, 2), Increase(2, 3))
    assert verify_certificate(cert).ok


# Reference for the sweep in ``_decompose``: a step chooser that rescans from
# position 0 for every step, so it needs no pointers and no rounding rewind.
def _rescanning_next_step(cur, target, eps):
    n = len(cur)
    surplus_eps = n * eps
    for j in range(n):
        c = cur[j] - target[j]
        if c > surplus_eps:
            for i in range(j):
                d = target[i] - cur[i]
                if d > eps:
                    return Transfer(i + 1, j + 1, d if d < c else c)
            raise NotDominated(
                j + 1,
                f"position {j + 1} exceeds the target with no earlier shortfall to absorb it",
            )
    for i in range(n):
        d = target[i] - cur[i]
        if d > eps:
            return Increase(i + 1, d)
    return None


def _rescanning_chain(x, y, eps, transfers_only):
    """The chooser's steps, or the error whose message starts the library's message."""
    if transfers_only and abs(x.total - y.total) > eps:
        raise SumsNotEqual(x.total, y.total)
    sx = sy = 0.0
    for k, (xv, yv) in enumerate(zip(x, y), start=1):
        sx += xv
        sy += yv
        if sx > sy + eps:
            raise NotDominated(k)
    cur = list(x.values)
    steps = []
    while True:
        step = _rescanning_next_step(cur, y.values, eps)
        if step is None:
            return tuple(steps)
        if transfers_only and not isinstance(step, Transfer):
            raise MajorizeError(f"transfers mode would need an increase of {step.a!r} "
                                f"at position {step.i}")
        _apply_step(cur, step, eps)
        steps.append(step)
        if len(steps) > 8 * len(cur) ** 2 + 64:
            raise MajorizeError("decomposition did not converge")


def _pinning_case(i, transfers_only):
    """Integers at eps 0, floats at eps 0 or 1e-9, and pairs lifted near 1e16 by turns."""
    rng = random.Random(i)
    n, k = sized(i)
    kind = i % 4
    x, y = random_dominated_pair(9000 + i, n, k, integer_mode=kind in (0, 3),
                                 transfers_only=transfers_only or rng.random() < 0.5)
    eps = 0.0 if kind == 0 else rng.choice((0.0, 1e-9))
    if kind == 3:  # 1e16 added to the target alone, or to both arrays, at some positions
        xv, yv = list(x.values), list(y.values)
        for p in range(n):
            r = rng.random()
            if r < 0.3:
                yv[p] += 1e16
            elif r < 0.6:
                xv[p] += 1e16
                yv[p] += 1e16
        x, y = make_array(xv), make_array(yv)
    return x, y, eps


@pytest.mark.parametrize("produce,transfers_only", [
    (decompose_general, False),
    (decompose_transfers, True),
], ids=["general", "transfers"])
def test_sweep_emits_the_rescanning_choosers_steps(produce, transfers_only):
    overshoots = 0
    for i in range(6000):
        x, y, eps = _pinning_case(i, transfers_only)
        try:
            expected = _rescanning_chain(x, y, eps, transfers_only)
        except MajorizeError as err:
            with pytest.raises(MajorizeError) as exc:
                produce(x, y, eps)
            assert str(exc.value).startswith(str(err)), i
            overshoots += "no earlier shortfall" in str(err)
            continue
        assert produce(x, y, eps).steps == expected, i
    assert overshoots > 100  # the 1e16 pairs do reach the rounding branch


# Reference for ``verify_certificate``: the pairwise verifier that re-sums
# both arrays in ``generalized_compare`` for each of its prefix-sum checks.
def _pairwise_verify(cert, eps):
    """``(ok, checked_steps, reason, step_index, detail)`` as the pairwise verifier reports them."""
    replay_slack = len(cert.source) * eps

    def failed(step_index, checked, reason, detail):
        return False, checked, reason, step_index, detail

    if cert.mode is CertificateMode.TRANSFERS:
        for t, step in enumerate(cert.steps):
            if not isinstance(step, Transfer):
                return failed(t, 0, FailureReason.MODE_VIOLATION,
                              f"step {t} is not a transfer in transfers-only mode")
    if cert.mode is CertificateMode.DECREASING:
        if not cert.target.is_non_increasing():
            return failed(None, 0, FailureReason.MODE_VIOLATION,
                          "decreasing-mode target is not non-increasing")
        for t, step in enumerate(cert.steps):
            if isinstance(step, SortDesc):
                if t == 0 or isinstance(cert.steps[t - 1], SortDesc):
                    return failed(t, 0, FailureReason.MODE_VIOLATION,
                                  f"sort step {t} does not immediately follow an impact step")
    prev = computed = cert.source
    prev_total = prev.total
    for t, (step, recorded) in enumerate(zip(cert.steps, cert.intermediates)):
        try:
            computed = (sort_desc(computed) if isinstance(step, SortDesc)
                        else apply_eii(computed, step, eps))
        except MajorizeError as exc:
            return failed(t, t, FailureReason.REPLAY_MISMATCH, f"step {t} is not applicable: {exc}")
        if computed.values != recorded.values:
            return failed(t, t, FailureReason.REPLAY_MISMATCH,
                          f"replaying step {t} does not reproduce the recorded intermediate")
        if generalized_compare(prev, recorded, eps) is not DominanceOutcome.LEFT_STRICTLY_BELOW:
            return failed(t, t, FailureReason.CHAIN_NOT_STRICT,
                          f"intermediate {t} does not strictly dominate its predecessor")
        if not dominates_or_equal(generalized_compare(recorded, cert.target, eps)):
            return failed(t, t, FailureReason.NOT_SANDWICHED_BY_TARGET,
                          f"intermediate {t} is not dominated by the target")
        if cert.mode is CertificateMode.DECREASING and not isinstance(step, SortDesc):
            if not dominates_or_equal(generalized_compare(sort_desc(recorded), cert.target, eps)):
                return failed(t, t, FailureReason.SORTED_INTERMEDIATE_NOT_BELOW_TARGET,
                              f"descending rearrangement of intermediate {t} is not below the target")
        if cert.mode is CertificateMode.TRANSFERS:
            total = recorded.total
            if abs(total - prev_total) > max(eps, replay_slack):
                return failed(t, t, FailureReason.MODE_VIOLATION, f"total not conserved at step {t}")
            prev_total = total
        prev = recorded
    if any(abs(p - q) > replay_slack for p, q in zip(prev.values, cert.target.values)):
        return failed(None, len(cert.steps), FailureReason.REPLAY_MISMATCH,
                      "final state does not match the target")
    return True, len(cert.steps), None, None, ""


def _tampered(cert, rng):
    """The honest certificate, then one amount +1, one dropped step, one state +1 and one nudged."""
    variants = [cert]
    steps, inters = list(cert.steps), list(cert.intermediates)
    impact = [t for t, step in enumerate(steps) if not isinstance(step, SortDesc)]
    if not impact:
        return variants

    def variant(new_steps, new_inters):
        variants.append(Certificate(cert.source, cert.target, tuple(new_steps),
                                    tuple(new_inters), cert.mode))

    def shifted(t, delta):
        vals = list(inters[t].values)
        p = rng.randrange(len(vals))
        vals[p] = vals[p] + delta if vals[p] + delta >= 0.0 else vals[p] - delta
        return inters[:t] + [make_array(vals)] + inters[t + 1:]

    t = rng.choice(impact)
    step = steps[t]
    bigger = (Transfer(step.i, step.j, step.a + 1) if isinstance(step, Transfer)
              else Increase(step.i, step.a + 1))
    variant(steps[:t] + [bigger] + steps[t + 1:], inters)
    t = rng.randrange(len(steps))
    variant(steps[:t] + steps[t + 1:], inters[:t] + inters[t + 1:])
    variant(steps, shifted(rng.randrange(len(steps)), 1.0))
    variant(steps, shifted(rng.randrange(len(steps)), rng.choice((1e-10, -1e-10, 1e-13, -1e-13))))
    return variants


def _differential_case(i):
    """Case i's certificates: integers at eps 0, floats at 1e-12 or 1e-9, or integers times 1e14.

    A decreasing case also shuffles its ranked source, which stays below the
    target, and relabels the general chain for its pair as decreasing mode.
    """
    rng = random.Random(i)
    produce = (decompose_general, decompose_decreasing, decompose_transfers)[i % 3]
    kind = (i // 3) % 3
    n, k = sized(i)
    integer_mode = kind != 1
    if produce is decompose_decreasing:
        x, y = decreasing_pair(7000 + i, n, k, integer_mode=integer_mode)
        x = make_array(rng.sample(x.values, n))
    else:
        x, y = random_dominated_pair(7000 + i, n, k, integer_mode=integer_mode,
                                     transfers_only=produce is decompose_transfers)
    if kind == 2:
        x, y = (make_array(v * 1e14 for v in z.values) for z in (x, y))
    eps = rng.choice((1e-12, 1e-9)) if kind == 1 else EXACT
    try:
        certs = _tampered(produce(x, y, eps), rng)
    except MajorizeError:
        certs = []
    if produce is decompose_decreasing:
        general = decompose_general(x, y, eps)
        certs.append(Certificate(x, y, general.steps, general.intermediates,
                                 CertificateMode.DECREASING))
    return certs


_PREFIX_REASONS = (FailureReason.CHAIN_NOT_STRICT, FailureReason.NOT_SANDWICHED_BY_TARGET,
                   FailureReason.SORTED_INTERMEDIATE_NOT_BELOW_TARGET)


def test_verifier_reports_what_the_pairwise_verifier_reports():
    verdicts = collections.Counter()
    for i in range(900):
        for cert in _differential_case(i):
            for eps in (0.0, 1e-12, 1e-9, 0.5):
                report = verify_certificate(cert, eps)
                got = (report.ok, report.checked_steps, report.reason, report.step_index,
                       report.detail)
                assert got == _pairwise_verify(cert, eps), (i, eps)
                assert report.prefix_index is None or (
                    report.reason in _PREFIX_REASONS and 1 <= report.prefix_index <= len(cert.source))
                verdicts[report.reason] += 1
    assert sum(verdicts.values()) > 10000
    assert all(verdicts[reason] > 50 for reason in (None, *FailureReason)), verdicts


# Reference for the windows in ``verify_certificate``: its step loop with every
# running sum from the step's first position on taken and checked.
def _suffix_verify(cert: Certificate, tol: float) -> VerificationReport:
    eps = as_eps(tol)
    replay_slack = len(cert.source) * eps
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
    ceiling = list(map(add, accumulate(cert.target.values), repeat(eps)))
    sums = list(accumulate(cert.source.values))
    computed = list(cert.source.values)
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
        lo = 0 if t == 0 or isinstance(step, SortDesc) else max(step.i - 2, 0)
        before = sums[lo:]
        after = list(accumulate(islice(values, lo + 1, None), initial=sums[lo] if lo else values[0]))
        below = all(map(le, before, map(add, after, repeat(eps))))
        if not (below and any(map(gt, after, map(add, before, repeat(eps))))):
            return VerificationReport(
                False, t, FailureReason.CHAIN_NOT_STRICT, t,
                f"intermediate {t} does not strictly dominate its predecessor",
                None if below else lo + _first_above(before, map(add, after, repeat(eps))))
        if not all(map(le, after, ceiling[lo:])):
            return VerificationReport(
                False, t, FailureReason.NOT_SANDWICHED_BY_TARGET, t,
                f"intermediate {t} is not dominated by the target",
                lo + _first_above(after, ceiling[lo:]))
        if cert.mode is CertificateMode.DECREASING and not isinstance(step, SortDesc):
            ranked = sorted(values, reverse=True)
            if not all(map(le, accumulate(ranked), ceiling)):
                return VerificationReport(
                    False, t, FailureReason.SORTED_INTERMEDIATE_NOT_BELOW_TARGET, t,
                    f"descending rearrangement of intermediate {t} is not below the target",
                    _first_above(accumulate(ranked), ceiling))
        if cert.mode is CertificateMode.TRANSFERS:
            if abs(after[-1] - before[-1]) > replay_slack:
                return VerificationReport(False, t, FailureReason.MODE_VIOLATION, t,
                                          f"total not conserved at step {t}")
        sums[lo:] = after
    if any(abs(p - q) > replay_slack for p, q in zip(cert.final.values, cert.target.values)):
        return VerificationReport(False, len(cert.steps), FailureReason.REPLAY_MISMATCH, None,
                                  "final state does not match the target")
    return VerificationReport(True, len(cert.steps))


_VERIFY_EPS = (0.0, 1e-12, 1e-9, 0.5)
# short decimals, whose sums round, and integers near 1e16, where adding a small
# value rounds away: a transfer's sums then differ from the last state's at its
# source position, or meet them before it
_CHAIN_VALUES = (st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 2.0, 3.0, 1e16, 1e16 + 2, 1e16 + 8])
                 | st.integers(0, 100).map(float) | st.floats(0.0, 100.0))
_CHAIN_AMOUNTS = st.sampled_from([1e-12, 1e-9, 0.1, 0.3, 0.5, 1.0, 2.0, 4.0]) | st.floats(1e-12, 1e16)


@st.composite
def replayed_certificates(draw):
    """Certificates whose rows are their steps' replays, with a target near the final state,
    so every prefix-sum check is reached; some have one amount, index or row tampered."""
    n = draw(st.integers(1, 7))
    eps = draw(st.sampled_from(_VERIFY_EPS))
    mode = draw(st.sampled_from(CertificateMode))
    kinds = ["transfer"] if mode is CertificateMode.TRANSFERS else ["transfer", "increase", "sort"]
    source = draw(st.lists(_CHAIN_VALUES, min_size=n, max_size=n))
    cur, steps, inters = list(source), [], []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind == "transfer" and n > 1:
            i = draw(st.integers(1, n - 1))
            j = draw(st.integers(i + 1, n))
            whole = cur[j - 1]
            a = draw(st.sampled_from([whole, whole / 2, whole / 3]) if whole > 0 else _CHAIN_AMOUNTS)
            step = Transfer(i, j, a if a > 0 else 1.0)
        elif kind == "sort" and steps and not isinstance(steps[-1], SortDesc):
            step = SortDesc()
        else:
            step = Increase(draw(st.integers(1, n)), draw(_CHAIN_AMOUNTS))
        state = list(cur)
        try:
            _apply_step(state, step, eps)
            arr = make_array(state)
        except MajorizeError:
            continue
        cur = state
        steps.append(step)
        inters.append(arr)
    target = list(cur)
    for _ in range(draw(st.integers(0, 2))):  # a target near the final state
        k = draw(st.integers(0, n - 1))
        target[k] = max(0.0, target[k] + draw(st.sampled_from([-1.0, -0.1, -1e-9, 1e-9, 0.1, 1.0])))
    tamper = draw(st.sampled_from(["none", "none", "amount", "index", "row"])) if steps else "none"
    t = draw(st.integers(0, len(steps) - 1)) if steps else 0
    if tamper == "amount" and not isinstance(steps[t], SortDesc):
        steps[t] = (Transfer(steps[t].i, steps[t].j, steps[t].a * 2) if isinstance(steps[t], Transfer)
                    else Increase(steps[t].i, steps[t].a * 2))
    elif tamper == "index" and isinstance(steps[t], Transfer) and steps[t].j < n:
        steps[t] = Transfer(steps[t].i, steps[t].j + 1, steps[t].a)
    elif tamper == "row":
        row = list(inters[t].values)
        row[draw(st.integers(0, n - 1))] += draw(st.sampled_from([1e-9, 0.1, 1.0]))
        inters[t] = make_array(row)
    if mode is CertificateMode.DECREASING:
        target.sort(reverse=True)
    return Certificate(make_array(source), make_array(target), tuple(steps), tuple(inters), mode)


@st.composite
def produced_certificates(draw):
    """A producer's certificate in any mode, from integers, floats or pairs lifted near 1e16,
    honest or with one of ``_tampered``'s changes."""
    i = draw(st.integers(0, 10 ** 6))
    x, y, eps = _pinning_case(i, transfers_only=draw(st.booleans()))
    produce = draw(st.sampled_from([decompose_general, decompose_transfers, decompose_decreasing]))
    if produce is decompose_decreasing:
        x, y = decreasing_pair(i, *sized(i), integer_mode=draw(st.booleans()))
    try:
        cert = produce(x, y, eps)
    except MajorizeError:
        cert = Certificate(x, y, (), (), CertificateMode.GENERAL)
    return draw(st.sampled_from(_tampered(cert, random.Random(i))))


# a transfer whose sums meet the last state's at prefix 4, before its source position 5,
# and fall below them at prefix 5
_MEETS_BEFORE_J = Certificate.from_json(
    '{"mode": "general", "source": [2, 0, 1, 10000000000000008, 2], '
    '"target": [10, 8, 20000000000000000, 20000000000000000, 0], '
    '"steps": [{"type": "increase", "i": 2, "a": 4}, {"type": "transfer", "i": 3, "j": 5, "a": 2}], '
    '"intermediates": [[2, 4, 1, 10000000000000008, 2], [2, 4, 3, 10000000000000008, 0]]}')
# a transfer whose sum at its source position 3 rounds above the last state's,
# and whose sum past it exceeds the target's
_DIFFERS_AT_J = Certificate.from_json(
    '{"mode": "general", "source": [0.7, 0.1, 3, 0.3], '
    '"target": [1.7, 1.4, 1.700000000000001, 0.29999999999999893], '
    '"steps": [{"type": "increase", "i": 1, "a": 1}, {"type": "transfer", "i": 2, "j": 3, "a": 0.3}], '
    '"intermediates": [[1.7, 0.1, 3, 0.3], [1.7, 0.4, 2.7, 0.3]]}')


def test_verifier_names_a_fall_past_a_meeting_of_the_sums():
    assert list(accumulate(_MEETS_BEFORE_J.intermediates[0]))[3] == \
        list(accumulate(_MEETS_BEFORE_J.intermediates[1]))[3]
    report = verify_certificate(_MEETS_BEFORE_J, EXACT)
    assert (report.reason, report.step_index, report.prefix_index) == \
        (FailureReason.CHAIN_NOT_STRICT, 1, 5)


def test_verifier_checks_past_a_transfer_whose_sums_have_not_met():
    before, after = (list(accumulate(z)) for z in _DIFFERS_AT_J.intermediates)
    assert after[2] != before[2] and after[3] > before[3]
    report = verify_certificate(_DIFFERS_AT_J, EXACT)
    assert (report.reason, report.step_index, report.prefix_index) == \
        (FailureReason.NOT_SANDWICHED_BY_TARGET, 1, 4)


@settings(max_examples=1500, deadline=None)
@given(st.one_of(replayed_certificates(), produced_certificates(), hand_built_certificates()),
       st.sampled_from(_VERIFY_EPS))
@example(_MEETS_BEFORE_J, 0.0)
@example(_DIFFERS_AT_J, 0.0)
def test_verifier_windows_report_what_whole_suffixes_report(cert, eps):
    assert verify_certificate(cert, eps) == _suffix_verify(cert, eps)


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("mode"),
    lambda d: d.update(mode="sideways"),
    lambda d: d.update(steps=[{"type": "teleport"}]),
    lambda d: d.update(steps=[{"type": "transfer", "i": 2, "j": 2, "a": 1}]),
    lambda d: d.update(steps=[{"type": "increase", "i": 1}]),
    lambda d: d.update(source=[]),
    lambda d: d.update(intermediates=[[1, -2]]),
])
def test_malformed_certificates_are_rejected(mutate):
    data = json.loads(chain_certificate().to_json())
    mutate(data)
    with pytest.raises(MalformedCertificate):
        Certificate.from_json(json.dumps(data))


def test_to_json_rejects_a_non_step():
    cert = Certificate(CHAIN_SOURCE, CHAIN_TARGET, ("transfer",), (CHAIN_TARGET,),
                       CertificateMode.GENERAL)
    with pytest.raises(TypeError, match="not a step"):
        cert.to_json()


def test_from_json_rejects_non_objects():
    with pytest.raises(MalformedCertificate):
        Certificate.from_json("[1, 2, 3]")
    with pytest.raises(MalformedCertificate):
        Certificate.from_json("{not json")


def _reference_from_json(text: str) -> Certificate:
    """``Certificate.from_json`` with every array decoded whole, one by one."""
    try:
        data = json.loads(text, parse_int=float, parse_float=float, parse_constant=float)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MalformedCertificate(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise MalformedCertificate("certificate JSON must be an object")
    try:
        mode = CertificateMode(data["mode"])
        source = make_array(_numbers(data["source"], "source"))
        target = make_array(_numbers(data["target"], "target"))
        steps = tuple([_step_from_dict(s) for s in _array(data["steps"], "steps")])
        intermediates = tuple([make_array(_numbers(z, "intermediate"))
                               for z in _array(data["intermediates"], "intermediates")])
        return Certificate(source, target, steps, intermediates, mode)
    except MalformedCertificate:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedCertificate(f"bad certificate data: {exc}") from exc


def _decoded(decode, text: str):
    """The certificate with the ``repr`` of each value, or the error's class and message."""
    try:
        cert = decode(text)
    except MajorizeError as exc:
        return type(exc), str(exc)
    return cert, [repr(v) for z in (cert.source, cert.target, *cert.intermediates) for v in z]


# numbers no step index can be: the int text -0 (-0.0), ints past the float range (401
# digits) and past CPython's int digit limit (5,000 digits), NaN, Infinity and -Infinity
_ODD_NUMBERS = [NumberText("-0"), 10 ** 400, NumberText("1" * 5000),
                float("nan"), float("inf"), float("-inf")]
# entries a certificate must not hold, or must decode as written; where the row before
# holds an equal number (``True == 1``, ``-0.0 == 0``), a diff by equality would miss them
_ODD_ENTRIES = st.sampled_from([
    True, False, "1", None, -1, -0.5, *_ODD_NUMBERS, [1], [], -0.0, 0, 1, 1.0, 2.5, 1e308,
])
_ODD_ROWS = st.sampled_from([[], None, 3, "row", {}, [[1]]])


def _equal_entries(v):
    """Entries equal to ``v`` by ``==`` that decode differently, or not at all: a boolean for 1
    or 0, ``-0.0`` for 0, a float for an int and an int for an integral float."""
    if type(v) not in (int, float) or not abs(v) < 1e300:  # also no nan, inf or 10 ** 400
        return st.just(v)
    options = [e for e in (True, False, -0.0) if e == v]
    return st.sampled_from([*options, float(v)] + ([int(v)] if float(v).is_integer() else []))


_PRODUCERS = {CertificateMode.GENERAL: decompose_general,
              CertificateMode.DECREASING: decompose_decreasing,
              CertificateMode.TRANSFERS: decompose_transfers}


@st.composite
def odd_certificate_texts(draw):
    """An honest certificate's JSON with odd entries, rows and step indices put in.

    Entries go in at random places, at the positions their step writes, and
    away from them as entries equal to the row before's.  The source and the
    target get odd entries too, or are replaced whole by an odd row, or lose
    or gain an entry.  A step's indices move past the end or to positions its
    row did not change, or become odd numbers.  Integer pairs are scaled by
    300 at times.
    """
    n = draw(st.integers(1, 6))
    mode = draw(st.sampled_from(CertificateMode))
    seed, k, integer = draw(st.integers(0, 10 ** 6)), draw(st.integers(0, 2 * n)), draw(st.booleans())
    if mode is CertificateMode.DECREASING:
        x, y = decreasing_pair(seed, n, k, integer_mode=integer)
    else:
        x, y = random_dominated_pair(seed, n, k, integer_mode=integer,
                                     transfers_only=mode is CertificateMode.TRANSFERS)
    if integer and draw(st.booleans()):
        x, y = (make_array(300 * v for v in z) for z in (x, y))
    try:
        data = json.loads(_PRODUCERS[mode](x, y).to_json())
    except MajorizeError:  # a decreasing-mode source the sweep refuses
        data = json.loads(decompose_general(x, y).to_json())
    rows, steps = data["intermediates"], data["steps"]
    for _ in range(draw(st.integers(0, 3))):
        where = draw(st.sampled_from(["entry", "written", "equal", "equal", "index", "odd index",
                                      "short", "long", "row", "source", "target",
                                      "whole source", "whole target"]))
        if where in ("source", "target"):
            if isinstance(data[where], list) and data[where]:
                data[where][draw(st.integers(0, len(data[where]) - 1))] = draw(_ODD_ENTRIES)
            continue
        if where in ("whole source", "whole target"):
            key, kind = where.split()[1], draw(st.sampled_from(["row", "short", "long"]))
            if kind == "row" or not (isinstance(data[key], list) and data[key]):
                data[key] = draw(_ODD_ROWS)
            elif kind == "short":
                del data[key][draw(st.integers(0, len(data[key]) - 1))]
            else:
                data[key].append(draw(_ODD_ENTRIES))
            continue
        if not rows:
            continue
        t = draw(st.integers(0, len(rows) - 1))
        row, step, before = rows[t], steps[t], rows[t - 1] if t else data["source"]
        if where == "index":
            if step["type"] != "sort_desc":
                i = draw(st.integers(1, n))
                if step["type"] == "increase":
                    steps[t] = dict(step, i=draw(st.sampled_from([i, n + 1])))
                else:
                    steps[t] = dict(step, i=i, j=draw(st.integers(i + 1, n + 2)))
        elif where == "odd index":
            if step["type"] != "sort_desc":
                field = draw(st.sampled_from([f for f in ("i", "j") if f in step]))
                steps[t] = dict(step, **{field: draw(st.sampled_from(_ODD_NUMBERS))})
        elif where == "row" or not (isinstance(row, list) and row):
            rows[t] = draw(_ODD_ROWS)
        elif where == "short":
            del row[draw(st.integers(0, len(row) - 1))]
        elif where == "long":
            row.append(draw(_ODD_ENTRIES))
        else:
            written = [step[f] - 1 for f in ("i", "j")
                       if type(step.get(f)) is int and step[f] <= len(row)]
            p = draw(st.sampled_from(written) if where == "written" and written
                     else st.integers(0, len(row) - 1))
            if where == "equal" and isinstance(before, list) and p < len(before):
                row[p] = draw(_equal_entries(before[p]))
            else:
                row[p] = draw(_ODD_ENTRIES)
    return dumps(data)


@settings(max_examples=1000, deadline=None)
@given(odd_certificate_texts())
@example('{"mode": "general", "source": [3, 1, 0], "target": [3, 1, 1], "steps": '
         '[{"type": "increase", "i": 3, "a": 1}], "intermediates": [[3, true, 1]]}')
@example('{"mode": "general", "source": [3, 0, 0], "target": [3, 1, 1], "steps": '
         '[{"type": "increase", "i": 2, "a": 1}, {"type": "increase", "i": 3, "a": 1}], '
         '"intermediates": [[3, 1, 0], [3, true, 1]]}')
@example('{"mode": "general", "source": [3, 0, 0], "target": [3, 2, 0], "steps": '
         '[{"type": "increase", "i": 2, "a": 1}, {"type": "increase", "i": 2, "a": 1}], '
         '"intermediates": [[3, 1, 0], [3, 2, -0.0]]}')
@example('{"mode": "general", "note": "lull, lull, lull, lull, lull", "source": [3, 0, 0], '
         '"target": [3, 2, 0], "steps": [{"type": "increase", "i": 2, "a": 1}], '
         '"intermediates": [[3, 1, 0]]}')  # past 8 finds of the l of ``false``: maybe boolean
def test_from_json_decodes_what_the_per_row_decoder_decodes(text):
    assert _decoded(Certificate.from_json, text) == _decoded(_reference_from_json, text)


def test_from_json_reads_bytes_as_text():
    text = chain_certificate().to_json()
    assert Certificate.from_json(text.encode()) == Certificate.from_json(text)


@pytest.mark.parametrize("produce,pair", [
    (decompose_general, lambda: random_dominated_pair(160, 160, 320)),
    (decompose_general, lambda: random_dominated_pair(160, 160, 320, integer_mode=False)),
    (decompose_transfers, lambda: random_dominated_pair(160, 160, 320, transfers_only=True)),
], ids=["general", "general-float", "transfers"])
def test_honest_rows_are_decoded_without_make_array(monkeypatch, produce, pair):
    cert = produce(*pair())
    text = cert.to_json()
    built = []

    def counted(values):
        built.append(values)
        return make_array(values)

    monkeypatch.setattr(decompose_module, "make_array", counted)
    assert Certificate.from_json(text) == cert
    assert built == []  # no array, source and target included, is decoded whole


# ---------------------------------------------------------------------------
# pair generator
# ---------------------------------------------------------------------------

def test_generator_is_deterministic():
    assert random_dominated_pair(7, 5, 4) == random_dominated_pair(7, 5, 4)
    assert random_dominated_pair(7, 5, 4) != random_dominated_pair(8, 5, 4)


def test_generator_zero_moves_returns_equal_pair():
    x, y = random_dominated_pair(3, 6, 0)
    assert x == y


def test_generator_output_is_always_dominated():
    for seed in range(400):
        x, y = random_dominated_pair(seed, (seed % 12) + 1, (seed % 8))
        assert dominates_or_equal(generalized_compare(x, y, EXACT))


def test_generator_transfers_only_preserves_totals():
    for seed in range(200):
        x, y = random_dominated_pair(seed, (seed % 10) + 2, (seed % 6) + 1, transfers_only=True)
        assert x.total == y.total
        assert dominates_or_equal(generalized_compare(x, y, EXACT))


def test_generator_float_mode():
    x, y = random_dominated_pair(11, 6, 5, integer_mode=False)
    assert dominates_or_equal(generalized_compare(x, y))
    assert any(not v.is_integer() for v in y.values)
