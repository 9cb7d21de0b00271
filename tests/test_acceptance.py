"""Acceptance gate: eight release criteria, one verdict line each.

Each test prints CRITERION k: PASS/FAIL with the measured numbers (bypassing
capture so the line shows up in any run) and then asserts. Tolerances and
runtime budgets are part of the criteria, not implementation details.
"""

import math
import random
import time

import numpy as np
import pytest

from dtraj.cli import main
from dtraj.discovery import find_transitions
from dtraj.dynamics import act_sequence, integrate_step, validation_check
from dtraj.lattice import (
    CorridorSpec,
    corridor_count_1d,
    corridor_count_dp,
    corridor_count_nd,
    full_move_set,
    scaling_table,
)
from dtraj.model import (
    ContinuousState,
    QuantizedState,
    quantize,
    representative,
    trajectory_upper_bound,
)
from dtraj.trajectories import (
    DesiredTrajectory,
    count_trajectories,
    enumerate_trajectories,
    plan_action_sequence,
)
from dtraj.transitions import Transition, TransitionTable
from conftest import CONFIG_PATH, DEG, demo_joint

CFG = str(CONFIG_PATH)

# external reference value for the 136^3 corridor instance at 50 steps
REFERENCE_COUNT = 6.15e52
REFERENCE_TOL = 0.02


def report(capsys, k: int, ok: bool, detail: str) -> str:
    line = f"CRITERION {k}: {'PASS' if ok else 'FAIL'} {detail}"
    with capsys.disabled():
        print("\n" + line)
    return line


def test_criterion_1_headline_instance(capsys):
    argv = ["count", "ndim", "--d", "136,136,136", "--from", "68,68,68",
            "--to", "88,58,108", "--steps", "50"]
    t0 = time.monotonic()
    rc = main(argv)
    fast_s = time.monotonic() - t0
    out = capsys.readouterr().out.strip()
    assert rc == 0
    value = float(out)

    t0 = time.monotonic()
    rc = main(argv + ["--direct"])
    direct_s = time.monotonic() - t0
    capsys.readouterr()
    assert rc == 0

    dev = abs(value / REFERENCE_COUNT - 1.0)
    ok = dev <= REFERENCE_TOL and fast_s <= 1.0 and direct_s <= 600.0
    line = report(
        capsys, 1, ok,
        f"value {out}, reference {REFERENCE_COUNT:.2e}, deviation {dev:.1%} "
        f"(limit {REFERENCE_TOL:.0%}); fast path {fast_s:.2f}s (limit 1s), "
        f"direct {direct_s:.1f}s (limit 600s)",
    )
    assert ok, line


def test_criterion_2_oracle_equivalence_sweep(capsys):
    t0 = time.monotonic()
    checked = 0
    worst = 0.0
    for d in range(3, 13):
        ms = full_move_set(1)
        spec = CorridorSpec(d=(d,), move_set=ms)
        for a in range(1, d):
            for b in range(1, d):
                for m in range(0, 13):
                    closed = corridor_count_1d(d, a, b, m)
                    dp = corridor_count_dp(spec, (a,), (b,), m)
                    assert closed.exact == dp.exact, (d, a, b, m)
                    if dp.exact:
                        rel = closed.rel_err
                        worst = max(worst, rel)
                        assert rel <= 1e-6, (d, a, b, m, rel)
                    checked += 1
    elapsed = time.monotonic() - t0
    ok = elapsed <= 30.0
    line = report(
        capsys, 2, ok,
        f"{checked} instances, closed form == DP everywhere, worst residual "
        f"bound {worst:.2e} (limit 1e-6); {elapsed:.1f}s (limit 30s)",
    )
    assert ok, line


def test_criterion_3_factorization_property(capsys):
    rng = random.Random(20260819)
    t0 = time.monotonic()
    for case in range(50):
        n = rng.choice((2, 3))
        d = tuple(rng.randint(3, 12) for _ in range(n))
        a = tuple(rng.randint(1, dj - 1) for dj in d)
        b = tuple(rng.randint(1, dj - 1) for dj in d)
        m = rng.randint(0, 12)
        spec = CorridorSpec(d=d, move_set=full_move_set(n))
        direct = corridor_count_nd(spec, a, b, m, method="direct")
        fact = corridor_count_nd(spec, a, b, m, method="factorized")
        dp = corridor_count_dp(spec, a, b, m)
        assert fact.exact == dp.exact, (case, d, a, b, m)
        assert direct.exact == dp.exact, (case, d, a, b, m)
    elapsed = time.monotonic() - t0
    ok = elapsed <= 60.0
    line = report(
        capsys, 3, ok,
        f"50 random instances (n in 2..3, walls <= 12, steps <= 12): direct sum, "
        f"per-axis product, and DP agree; {elapsed:.1f}s (limit 60s)",
    )
    assert ok, line


def test_criterion_4_scaling_table(capsys):
    t0 = time.monotonic()
    rows = scaling_table(demo_joint(), [1, 2, 3, 4, 5, 6], 100, 20 * DEG)
    by_n = {}
    for r in rows:
        by_n.setdefault(r.n, {})[r.m] = (r.log10_count, r.method)

    # (a) no paths below the 10-step minimum, exactly one forced path at it
    for n in map(str, range(1, 7)):
        for m in range(1, 10):
            val, _ = by_n[n][str(m)]
            assert val is None, (n, m, val)
        val, method = by_n[n]["10"]
        assert val == 0.0 and method == "exact", (n, val, method)

    # (b) slope of the n=6 column over m in [50,100]: fit out the known
    # logarithmic correction and read the linear coefficient
    def fitted_slope(tag):
        nodes = (50, 75, 100)
        A = np.array([[m, math.log10(2 * m + 1), 1.0] for m in nodes])
        y = np.array([by_n[tag][str(m)][0] for m in nodes])
        return float(np.linalg.solve(A, y)[0])

    r6 = fitted_slope("6")
    rgo = fitted_slope("go")
    target = 6 * math.log10(3)
    elapsed = time.monotonic() - t0
    ok = abs(r6 - target) <= 0.01 and r6 > rgo and elapsed <= 30.0
    line = report(
        capsys, 4, ok,
        f"zero paths below 10 steps, single path at 10; n=6 slope {r6:.6f} vs "
        f"{target:.6f} (tol 0.01), go slope {rgo:.6f}, faster-than-go "
        f"{r6 > rgo}; {elapsed:.1f}s (limit 30s)",
    )
    assert ok, line


def test_criterion_5_transition_table_soundness(capsys, pendulum):
    t0 = time.monotonic()
    table = find_transitions(pendulum, nal=25)
    zero = QuantizedState((0,) * pendulum.n_joints, (0,) * pendulum.n_joints)
    statics = 0
    for t in table.transitions:
        end, trace = act_sequence(t.from_state, t.actions, pendulum)
        assert end == t.to_state, t
        assert validation_check(trace, pendulum), t
        if t.is_static():
            statics += 1
            assert t.duration == pytest.approx(25 * pendulum.delta_t)
        else:
            for mid in trace[:-1]:
                assert quantize(mid, pendulum).pos_idx == t.from_state.pos_idx, t
    has_zero_loop = any(
        t.is_static() and t.from_state == zero for t in table.transitions
    )
    elapsed = time.monotonic() - t0
    ok = has_zero_loop and elapsed <= 300.0
    line = report(
        capsys, 5, ok,
        f"{len(table.transitions)} transitions replay to their endpoints, pass "
        f"validation, and are prefix-atomic; {statics} static loop(s) incl. "
        f"rest state {has_zero_loop}; {elapsed:.1f}s (limit 300s)",
    )
    assert ok, line


def _random_table(rng: random.Random) -> TransitionTable:
    n_states = rng.randint(1, 8)
    states = tuple(QuantizedState((i,), (0,)) for i in range(n_states))
    n_edges = rng.randint(0, 30)
    trans = []
    for k in range(n_edges):
        a = rng.randrange(n_states)
        b = rng.randrange(n_states)
        trans.append(Transition(states[a], ((k % 5,),), 0.04, states[b]))
    return TransitionTable("sha256:random", states, tuple(trans))


def test_criterion_6_enumeration_matches_counting(capsys, pendulum, pendulum_table):
    rng = random.Random(987654321)
    t0 = time.monotonic()
    for _ in range(100):
        table = _random_table(rng)
        for n in range(0, 5):
            counts = count_trajectories(table, n)
            for s in table.states:
                got = sum(1 for _ in enumerate_trajectories(table, [s], n))
                assert got == counts[s], (table, s, n)

    sub = pendulum_table.restrict_to_first(20)
    bounded = True
    for n in range(0, 5):
        counts = count_trajectories(sub, n)
        total = sum(counts.values())
        got = sum(1 for _ in enumerate_trajectories(sub, list(sub.states), n))
        assert got == total, n
        assert total <= trajectory_upper_bound(pendulum, n), (n, total)
    elapsed = time.monotonic() - t0
    ok = elapsed <= 60.0
    line = report(
        capsys, 6, ok,
        f"100 random graphs and the first-20-states table: streamed walks == "
        f"exact counts for 0..4 hops, totals within the state-action bound; "
        f"{elapsed:.1f}s (limit 60s)",
    )
    assert ok, line


def _planner_fixture_table() -> TransitionTable:
    """Line of 11 positions with jump edges of every length 1..5."""
    states = tuple(QuantizedState((i,), (0,)) for i in range(11))
    trans = []
    for i in range(11):
        for k in range(1, 6):
            for sgn, tq in ((1, k), (-1, 10 + k)):
                j = i + sgn * k
                if 0 <= j <= 10:
                    trans.append(
                        Transition(states[i], ((tq,),) * k, 0.04 * k, states[j])
                    )
    return TransitionTable("sha256:planner", states, tuple(trans))


def _check_plan(table, desired, robot, result) -> None:
    """Replay the greedy walk and re-derive every commitment independently."""
    def offset(pos_idx, target):
        return max(
            abs(pos_idx[i] * robot.joints[i].delta_q - target[i])
            / robot.joints[i].delta_q
            for i in range(len(target))
        )

    current = result.visited[0]
    window = 1
    taken = 0
    for step in range(1, len(desired.waypoints)):
        target = desired.waypoints[step][0]
        if offset(current.pos_idx, target) < 1.0 - 1e-9:
            window += 1
            continue
        candidates = [
            t for t in table.outgoing(current) if len(t.actions) == window
        ]
        assert candidates, "planner claimed a commit where none is possible"
        best_off = min(offset(t.to_state.pos_idx, target) for t in candidates)
        chosen_seq = result.sequences[taken]
        chosen = next(
            t for t in candidates
            if t.actions == chosen_seq and t.to_state == result.visited[taken + 1]
        )
        assert offset(chosen.to_state.pos_idx, target) == pytest.approx(best_off)
        first_best = next(
            t for t in candidates
            if offset(t.to_state.pos_idx, target) == pytest.approx(best_off)
        )
        assert chosen is first_best, "tie must break to the first listed"
        current = chosen.to_state
        taken += 1
        window = 1
    assert taken == len(result.sequences)
    assert current == result.final_state


def test_criterion_7_planner_agreement(capsys, pendulum):
    table = _planner_fixture_table()
    rng = random.Random(424242)
    t0 = time.monotonic()

    ramp = DesiredTrajectory(
        tuple(((2 * k * DEG,), 0.04 * k) for k in range(6))
    )
    res = plan_action_sequence(table, ramp, pendulum)
    assert res.final_state.pos_idx == (5,)
    assert res.miss_deg == pytest.approx((0.0,))
    _check_plan(table, ramp, pendulum, res)

    for _ in range(20):
        pos_deg = 10.0
        targets = [(pos_deg * DEG,)]
        for _ in range(6):
            pos_deg += rng.choice((-4.0, -2.0, 0.0, 2.0, 4.0))
            pos_deg = min(max(pos_deg, 0.0), 20.0)
            targets.append((pos_deg * DEG,))
        desired = DesiredTrajectory(
            tuple((q, 0.04 * k) for k, q in enumerate(targets))
        )
        res = plan_action_sequence(table, desired, pendulum)
        _check_plan(table, desired, pendulum, res)
    elapsed = time.monotonic() - t0
    ok = elapsed <= 10.0
    line = report(
        capsys, 7, ok,
        f"synthetic ramp + 20 random targets: replayed endpoints match claimed "
        f"final states, every commit offset-minimal; {elapsed:.1f}s (limit 10s)",
    )
    assert ok, line


def test_criterion_8_dynamics_numerics(capsys, pendulum):
    t0 = time.monotonic()
    j = pendulum.joints[0]
    null = (2,)  # zero-torque action index

    def energy(s: ContinuousState) -> float:
        q, v = s.q[0], s.v[0]
        return 0.5 * j.mass * (j.length * v) ** 2 - \
            j.mass * pendulum.gravity * j.length * math.cos(q)

    state = representative(quantize(ContinuousState((40 * DEG,), (0.0,)), pendulum), pendulum)
    e0 = energy(state)
    for _ in range(25):  # 1 s
        state = integrate_step(state, null, pendulum)
    drift = abs(energy(state) - e0) / abs(e0)

    # small-angle period from interpolated upward zero crossings
    state = ContinuousState((2 * DEG,), (0.0,))
    samples = [state.q[0]]
    for _ in range(250):  # 10 s
        state = integrate_step(state, null, pendulum)
        samples.append(state.q[0])
    crossings = []
    for i in range(len(samples) - 1):
        if samples[i] < 0.0 <= samples[i + 1]:
            frac = -samples[i] / (samples[i + 1] - samples[i])
            crossings.append((i + frac) * pendulum.delta_t)
    period = (crossings[-1] - crossings[0]) / (len(crossings) - 1)
    ideal = 2 * math.pi * math.sqrt(j.length / pendulum.gravity)
    period_err = abs(period - ideal) / ideal

    elapsed = time.monotonic() - t0
    ok = drift <= 1e-6 and period_err <= 1e-3 and elapsed <= 5.0
    line = report(
        capsys, 8, ok,
        f"zero-torque energy drift {drift:.2e} over 1 s (limit 1e-6); period "
        f"{period:.6f}s vs {ideal:.6f}s, error {period_err:.2e} (limit 1e-3); "
        f"{elapsed:.1f}s (limit 5s)",
    )
    assert ok, line
