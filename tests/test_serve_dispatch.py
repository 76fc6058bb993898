"""The pool's dispatch planner, driven without threads or processes.

:func:`repro.serve.pool.plan` is pure: it gets a frozen leg state, one
event and ``now``, and returns the next state and actions.  These tests
feed it events with a fake clock — one test per rule, then a Hypothesis
property over random event orders that plays the driver's part
(placements, replies, failures, wake-ups) the way ``_dispatch`` does.
"""

import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    DeadlineExceededError,
    EngineStoppedError,
    OverloadedError,
    ServeError,
)
from repro.serve.pool import Leg, LegState, plan

pytestmark = pytest.mark.timeout(60)

DEADLINE = 10.0
HEDGE_AT = 1.0


def started(slot=0, spare=True, hedge_at=HEDGE_AT):
    """The state right after the primary went out on ``slot`` at t=0."""
    primary = Leg(slot, 0.0)
    state, actions = plan(
        LegState(DEADLINE, spare=spare),
        ("placed", primary, (), hedge_at if spare else math.inf),
        0.0,
    )
    assert actions == []
    return state, primary


def hedged(primary_slot=0, hedge_slot=1):
    """Primary on one slot plus a live second leg on another."""
    state, primary = started(primary_slot)
    state, actions = plan(state, ("wake", False, True), HEDGE_AT)
    assert actions == [("start", frozenset({primary_slot}), False)]
    hedge = Leg(hedge_slot, HEDGE_AT, hedge=True)
    state, actions = plan(state, ("placed", hedge, (), math.inf), HEDGE_AT)
    assert actions == [] and state.legs == (primary, hedge)
    return state, primary, hedge


class TestFirstReplyWins:
    def test_lone_leg_reply_is_returned(self):
        state, primary = started()
        state, actions = plan(state, ("replied", primary, "ok"), 0.01)
        assert actions == [("return", primary, "ok")]
        assert state.legs == ()

    def test_hedge_win_strikes_the_losing_primary(self):
        state, primary, hedge = hedged()
        _, actions = plan(state, ("replied", hedge, "ok"), 1.2)
        assert actions == [
            ("forget", primary), ("strike", 0), ("return", hedge, "ok"),
        ]

    def test_primary_win_does_not_strike_the_hedge(self):
        state, primary, hedge = hedged()
        _, actions = plan(state, ("replied", primary, "ok"), 1.2)
        assert actions == [("forget", hedge), ("return", primary, "ok")]


class TestStrandedLeg:
    def test_raced_at_once_on_an_admitting_slot(self):
        # long before the timer: the lone leg's breaker opened under it
        state, _ = started(slot=0)
        _, actions = plan(state, ("wake", True, False), 0.1)
        assert actions == [("start", frozenset({0}), False)]

    def test_keeps_waiting_when_no_slot_admits(self):
        state, primary = started(slot=0)
        state, _ = plan(state, ("wake", True, False), 0.1)
        # the driver found no admitting slot: nothing went out, nothing
        # failed, and the lone leg is still the one waited on
        state, actions = plan(state, ("placed", None, (), math.inf), 0.1)
        assert actions == []
        assert state.legs == (primary,) and state.spare
        # ... and the race is tried again at the next wake-up
        _, actions = plan(state, ("wake", True, False), 0.35)
        assert actions == [("start", frozenset({0}), False)]

    def test_a_race_past_the_timer_spends_it(self):
        # the breaker opened and no slot admits a race: the timer, now
        # due, is spent all the same, or the driver's wait would end at
        # once on every pass until the breaker left OPEN
        state, primary = started(slot=0)
        state, actions = plan(state, ("wake", True, True), HEDGE_AT + 0.1)
        assert actions == [("start", frozenset({0}), False)]
        state, actions = plan(
            state, ("placed", None, (), math.inf), HEDGE_AT + 0.1
        )
        assert actions == [] and state.legs == (primary,)
        assert state.hedge_at == math.inf


class TestFailover:
    def test_exempt_and_may_fail_open(self):
        state, primary = started(slot=0)
        # the budget verdict plays no part, and the failed slot is out
        _, actions = plan(state, ("failed", primary, ServeError("died")), 0.1)
        assert actions == [
            ("strike", 0), ("start", frozenset({0}), True),
        ]

    def test_rejection_fails_over_without_a_strike(self):
        state, primary = started(slot=0)
        _, actions = plan(
            state, ("failed", primary, OverloadedError("full")), 0.1
        )
        assert actions == [("start", frozenset(), True)]

    def test_no_failover_once_a_deadline_error_is_collected(self):
        state, primary = started(slot=0)
        # a timer hedge found the request's own budget spent
        state, _ = plan(state, ("wake", False, True), HEDGE_AT)
        budget_gone = DeadlineExceededError("budget exhausted")
        state, actions = plan(
            state, ("placed", None, ((1, budget_gone),), math.inf), HEDGE_AT
        )
        assert actions == []
        failure = ServeError("died")
        _, actions = plan(state, ("failed", primary, failure), 1.1)
        assert actions == [("strike", 0), ("raise", budget_gone)]

    def test_a_race_that_finds_the_budget_spent_spends_the_timer(self):
        # the race from an open breaker, before the timer, met the
        # request's own budget spent: no second leg and no timer remain
        state, primary = started(slot=0)
        state, _ = plan(state, ("wake", True, False), 0.1)
        budget_gone = DeadlineExceededError("budget exhausted")
        state, actions = plan(
            state, ("placed", None, ((1, budget_gone),), math.inf), 0.1
        )
        assert actions == [] and state.legs == (primary,)
        assert not state.spare and state.hedge_at == math.inf

    def test_no_failover_without_hedging(self):
        state, primary = started(spare=False)
        failure = ServeError("died")
        _, actions = plan(state, ("failed", primary, failure), 0.1)
        assert actions == [("strike", 0), ("raise", failure)]

    def test_failed_failover_raises_the_first_failure(self):
        state, primary = started(slot=0)
        first = ServeError("died")
        state, _ = plan(state, ("failed", primary, first), 0.1)
        no_slot = ServeError("no routable replica")
        _, actions = plan(
            state, ("placed", None, ((None, no_slot),), math.inf), 0.1
        )
        assert actions == [("raise", first)]


class TestTimerHedge:
    def test_budgeted_and_only_to_admitting_slots(self):
        state, _ = started(slot=0)
        failed = ServeError("died")
        # slot 2 failed a submit earlier: it stays out of the hedge too
        state, _ = plan(
            state, ("placed", None, ((2, failed),), math.inf), 0.2
        )
        _, early = plan(state, ("wake", False, True), HEDGE_AT - 0.01)
        assert early == []
        _, actions = plan(state, ("wake", False, True), HEDGE_AT)
        assert actions == [("start", frozenset({0, 2}), False)]

    def test_spent_when_the_budget_refuses(self):
        state, _ = started()
        state, actions = plan(state, ("wake", False, False), HEDGE_AT)
        assert actions == [] and state.hedge_at == math.inf
        _, actions = plan(state, ("wake", False, True), HEDGE_AT + 0.5)
        assert actions == []

    def test_no_third_leg(self):
        state, _, _ = hedged()
        for reads in [(True, True), (False, True)]:
            _, actions = plan(state, ("wake", *reads), 2.0)
            assert actions == []


class TestDeadline:
    def test_every_live_leg_is_forgotten_and_struck(self):
        state, primary, hedge = hedged()
        _, actions = plan(state, ("wake", True, True), DEADLINE)
        assert actions[:4] == [
            ("forget", primary), ("forget", hedge),
            ("strike", 0), ("strike", 1),
        ]
        (kind, error), = actions[4:]
        assert kind == "raise" and type(error) is ServeError
        assert "timed out" in str(error)

    def test_terminal_failure_past_the_deadline_does_not_fail_over(self):
        state, primary = started()
        failure = ServeError("died")
        _, actions = plan(state, ("failed", primary, failure), DEADLINE)
        assert actions == [("strike", 0), ("raise", failure)]


# -- property: random event orders ------------------------------------------

SLOTS = (0, 1, 2)
ERRORS = (ServeError, OverloadedError, EngineStoppedError)
STEPS = 40
#: what the driver sees after a wait, weighted towards wake-ups so that
#: requests live long enough to reach the hedge, race and deadline rules.
KINDS = ("wake", "wake", "wake", "failed", "replied")


def attributable(error):
    return type(error) is ServeError


@st.composite
def placement(draw, exclude, fail_open, now, first, hedging):
    """What the driver's routing and submitting could report for a start:
    slots whose submit failed are walked past, then a leg goes out, or
    routing finds nothing, or a rejection ends the attempt.  A first leg
    arms the timer when hedging is on."""
    free = [slot for slot in SLOTS if slot not in exclude]
    walked = []
    if free:
        walked = draw(st.lists(st.sampled_from(free), unique=True, max_size=1))
    errors = tuple((slot, ServeError("pipe closed")) for slot in walked)
    free = [slot for slot in free if slot not in walked]
    outcome = draw(st.sampled_from(("leg", "leg", "unroutable", "rejected")))
    if outcome == "leg" and free:
        slot = draw(st.sampled_from(free))
        timer = first and hedging
        hedge_at = now + draw(st.floats(0.0, 1.0)) if timer else math.inf
        return ("placed", Leg(slot, now, hedge=not first), errors, hedge_at)
    if outcome == "rejected" and free:
        error = draw(st.sampled_from((
            DeadlineExceededError("budget exhausted"),
            EngineStoppedError("replica is draining"),
        )))
        errors += ((draw(st.sampled_from(free)), error),)
    elif fail_open:
        errors += ((None, ServeError("no routable replica")),)
    return ("placed", None, errors, math.inf)


def expected_strikes(state, event, now):
    """The slots an event must strike: those of replica-attributable
    failures, the loser of a race the second leg won, and legs that time
    out — never a slot whose failure was a typed rejection."""
    match event:
        case ("placed", _, errors, _):
            return [s for s, e in errors if s is not None and attributable(e)]
        case ("failed", leg, error):
            return [leg.slot] if attributable(error) else []
        case ("replied", winner, _):
            losers = [leg.slot for leg in state.legs if leg != winner]
            return losers if winner.hedge else []
        case ("wake", _, _):
            if now >= state.deadline_at:
                return [leg.slot for leg in state.legs]
            return []


@settings(max_examples=200, deadline=None)
@given(st.data(), st.booleans())
def test_random_event_orders_keep_the_dispatch_invariants(data, hedging):
    """At most two legs start, each ends exactly once (won, failed or
    forgotten), the request ends in exactly one return or raise, a timer
    hedge needs the budget's yes, only failover fails open, strikes
    follow :func:`expected_strikes`, and no wake-up leaves the timer due."""
    now = 0.0
    state = LegState(2.0, spare=hedging)
    actions = [("start", frozenset(), True)]
    trigger = None
    placed: list[Leg] = []
    ended = Counter()
    terminal = []
    for step in range(4 * STEPS):
        event = None
        for action in actions:
            assert not terminal, "an action after the request ended"
            match action:
                case ("forget", leg):
                    ended[leg] += 1
                case ("return", leg, _):
                    ended[leg] += 1
                    terminal.append(action)
                case ("raise", _):
                    terminal.append(action)
                case ("start", exclude, fail_open):
                    # only failover, with no live leg, may fail open
                    assert fail_open == (not state.legs)
                    assert {leg.slot for leg in state.legs} <= exclude
                    assert state.failed_slots <= exclude
                    if trigger and trigger[0] == "wake" and not trigger[1]:
                        assert trigger[2], "a timer hedge the budget refused"
                    event = data.draw(placement(
                        exclude, fail_open, now, not placed, hedging
                    ))
                    if event[1] is not None:
                        placed.append(event[1])
        if terminal:
            break
        if event is None:
            # the driver waits, then sees a reply, a failure or a wake-up;
            # after STEPS of them it waits out the deadline
            now += data.draw(st.floats(0.0, 0.4))
            kind = data.draw(st.sampled_from(KINDS))
            if step >= STEPS:
                now, kind = max(now, state.deadline_at), "wake"
            if kind == "wake":
                event = ("wake", data.draw(st.booleans()),
                         data.draw(st.booleans()))
            elif kind == "replied":
                event = ("replied", data.draw(st.sampled_from(state.legs)),
                         "response")
            else:
                leg = data.draw(st.sampled_from(state.legs))
                error = data.draw(st.sampled_from(ERRORS))("failure")
                event = ("failed", leg, error)
                ended[leg] += 1
        expected = expected_strikes(state, event, now)
        trigger = event
        state, actions = plan(state, event, now)
        strikes = [action[1] for action in actions if action[0] == "strike"]
        assert Counter(strikes) == Counter(expected)
        # the driver waits until min(deadline_at, hedge_at): a timer left
        # pending with no second leg to spend it, or left due after a
        # wake-up, would turn that wait into a spin
        assert state.spare or state.hedge_at == math.inf
        ends = any(action[0] in ("return", "raise") for action in actions)
        if event[0] == "wake" and not ends:
            assert state.hedge_at > now, "a wake-up left the timer due"
    assert len(terminal) == 1, "the request never ended"
    assert len(placed) <= (2 if hedging else 1)
    assert all(ended[leg] == 1 for leg in placed), (placed, ended)
    assert set(ended) <= set(placed)
