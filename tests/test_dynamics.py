import math
from operator import itemgetter
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtraj.dynamics import (
    SUBSTEPS,
    Workspace,
    act_sequence,
    integrate_frontier,
    integrate_step,
    validation_check,
)
from dtraj.errors import NumericalOverflow
from dtraj.model import (
    ContinuousState,
    JointSpec,
    QuantizedState,
    RobotSpec,
    quantize,
    representative,
)
from conftest import DEG, demo_joint


class Pendulum(NamedTuple):
    """One joint's constants as floats, or every joint's as per-joint arrays: the oracle's."""

    mass: float | np.ndarray
    length: float | np.ndarray
    gravity: float


P = Pendulum(mass=1.0, length=1.0, gravity=9.81)


def robot_of(p: Pendulum, menus=None, dt: float = 0.04) -> RobotSpec:
    """A robot of demo joints at p's masses and lengths under its gravity, joint i's
    torque menu being menus[i] (the demo's when none is given)."""
    mass, length = np.atleast_1d(p.mass).tolist(), np.atleast_1d(p.length).tolist()
    menus = menus or [demo_joint().torques] * len(mass)
    joints = tuple(demo_joint()._replace(name=f"j{i + 1}", mass=m, length=l, torques=tuple(t))
                   for i, (m, l, t) in enumerate(zip(mass, length, menus)))
    return RobotSpec(joints=joints, delta_t=dt, gravity=p.gravity)


def step_joint(q: float, v: float, u: float, p: Pendulum, dt: float = 0.04):
    """`integrate_step` of one joint at p's constants whose menu holds the torque u."""
    end = integrate_step(ContinuousState((q,), (v,)), (0,), robot_of(p, [(u,)], dt))
    return end.q[0], end.v[0]


def pendulum_accel(q, u, p: Pendulum, sin=math.sin):
    """Gravity's restoring term plus torque, as the integrators once took it per stage."""
    gravity, inertia = -(p.gravity / p.length), p.mass * p.length * p.length
    return gravity * sin(q) + u / inertia


def reference_integrate_joint(q, v, u, p: Pendulum, dt: float, substeps: int = SUBSTEPS,
                              sin=math.sin):
    """The RK4 loop with one `pendulum_accel` call per stage, kept as the kernel's oracle."""
    h = dt / substeps
    for _ in range(substeps):
        k1q = v
        k1v = pendulum_accel(q, u, p, sin)
        k2q = v + 0.5 * h * k1v
        k2v = pendulum_accel(q + 0.5 * h * k1q, u, p, sin)
        k3q = v + 0.5 * h * k2v
        k3v = pendulum_accel(q + 0.5 * h * k2q, u, p, sin)
        k4q = v + h * k3v
        k4v = pendulum_accel(q + h * k3q, u, p, sin)
        q, v = (q + h / 6 * (k1q + 2 * k2q + 2 * k3q + k4q),
                v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v))
    return q, v


def bits(x) -> list[int]:
    return np.asarray(x, dtype=np.float64).view(np.int64).ravel().tolist()


def bits_any_nan(x) -> list[int]:
    """bits(x) with every NaN as one NaN: IEEE 754 leaves a NaN result's sign open,
    and CPython's float operations give the other sign under a trace hook."""
    x = np.asarray(x, dtype=np.float64)
    return bits(np.where(np.isnan(x), np.nan, x))


def near_limit_states(rng, rows: int, joints: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, joints) states of the demo joint: half seeded inside its limits,
    half within 1e-9 of a limit or a cell past it."""
    q = rng.uniform(-135 * DEG, 135 * DEG, (rows, joints))
    v = rng.uniform(-180 * DEG, 180 * DEG, (rows, joints))
    edge = rng.choice([-1.0, 1.0], (rows // 2, joints))
    q[: rows // 2] = edge * (135 * DEG + rng.choice([-1e-9, 0.0, 1e-9, 2 * DEG], edge.shape))
    v[: rows // 2] = -edge * (180 * DEG + rng.choice([-1e-9, 0.0, 1e-9, 50 * DEG], edge.shape))
    return q, v


def with_non_finite(rng, *arrays: np.ndarray) -> None:
    """Put seeded infs and nans, of either sign, in about one entry in 20 of each array."""
    for x in arrays:
        hit = rng.random(x.shape) < 0.05
        x[hit] = rng.choice([np.inf, -np.inf, np.nan, -np.nan], hit.sum())


def menu_and_off_menu_torques(rng, shape) -> np.ndarray:
    """The demo menu's torques and seeded ones off it, up to twice its range."""
    menu = rng.choice([-50.0, -25.0, 0.0, 25.0, 50.0], shape)
    return np.where(rng.random(shape) < 0.5, menu, rng.uniform(-100.0, 100.0, shape))


def test_acceleration_model():
    # gravity pulls toward the hanging equilibrium, torque adds directly
    assert pendulum_accel(0.0, 0.0, P) == 0.0
    assert pendulum_accel(0.1, 0.0, P) < 0
    assert pendulum_accel(0.0, 5.0, P) == pytest.approx(5.0)
    heavier = Pendulum(mass=2.0, length=1.0, gravity=9.81)
    assert pendulum_accel(0.0, 5.0, heavier) == pytest.approx(2.5)


@pytest.mark.parametrize("params", [
    P, Pendulum(mass=0.35, length=1.7, gravity=9.81),
    Pendulum(mass=4.0, length=0.2, gravity=3.7),
], ids=["demo", "long", "short"])
def test_kernel_is_bitwise_its_oracle_on_floats(params):
    rng = np.random.default_rng(2022)
    q, v = near_limit_states(rng, 300, 1)
    u = menu_and_off_menu_torques(rng, 300)
    for dt in (0.04, 0.03, 0.05):
        for args in zip(q.ravel().tolist(), v.ravel().tolist(), u.tolist()):
            got = step_joint(*args, params, dt)
            want = reference_integrate_joint(*args, params, dt, SUBSTEPS)
            assert bits(got) == bits(want), (args, dt)


@pytest.mark.parametrize("joints", [1, 2, 3])
def test_kernel_is_bitwise_its_oracle_on_arrays(joints):
    # (rows, joints) frontiers as discovery integrates them, per-joint
    # constants, and non-finite entries, which stay in their own element
    rng = np.random.default_rng(joints)
    params = Pendulum(rng.uniform(0.2, 3.0, joints), rng.uniform(0.3, 2.0, joints), 9.81)
    q, v = near_limit_states(rng, 400, joints)
    u = menu_and_off_menu_torques(rng, (400, joints))
    with_non_finite(rng, q, v, u)
    for rows in (slice(None), slice(1)):        # the frontier, then its first row alone
        with np.errstate(all="ignore"):
            got = integrate_frontier(q[rows], v[rows], u[rows], Workspace(robot_of(params)))
            want = reference_integrate_joint(q[rows], v[rows], u[rows], params, 0.04, sin=np.sin)
        assert bits(got[0]) == bits(want[0])
        assert bits(got[1]) == bits(want[1])


@pytest.mark.parametrize("joints", [1, 2, 3])
def test_a_workspace_serves_frontiers_that_widen_and_narrow(joints):
    # one workspace across a search's ticks, as discovery keeps it: each
    # call is bitwise a fresh one-shot call and the oracle, non-finite
    # entries included, and the buffer follows the widest frontier
    rng = np.random.default_rng(24 + joints)
    params = Pendulum(rng.uniform(0.2, 3.0, joints), rng.uniform(0.3, 2.0, joints), 9.81)
    work = Workspace(robot_of(params))
    for rows in (3, 250, 1, 97, 250, 400, 12):
        q, v = near_limit_states(rng, rows, joints)
        u = menu_and_off_menu_torques(rng, (rows, joints))
        with_non_finite(rng, q, v, u)
        with np.errstate(all="ignore"):
            got = integrate_frontier(q, v, u, work)
            fresh = integrate_frontier(q, v, u, Workspace(robot_of(params)))
            want = reference_integrate_joint(q, v, u, params, 0.04, sin=np.sin)
        for k in (0, 1):
            assert bits(got[k]) == bits(fresh[k]) == bits(want[k]), (rows, k)
    assert work.buffer.size == 12 * 400 * joints


@pytest.mark.parametrize("joints", [1, 3])
def test_a_frontier_split_at_any_row_is_bitwise_one_call(joints):
    # a wide tick runs through the kernel in chunks of rows on one
    # workspace: the pieces, integrated in turn, are the whole frontier
    rng = np.random.default_rng(240 + joints)
    params = Pendulum(rng.uniform(0.2, 3.0, joints), rng.uniform(0.3, 2.0, joints), 9.81)
    q, v = near_limit_states(rng, 300, joints)
    u = menu_and_off_menu_torques(rng, (300, joints))
    with_non_finite(rng, q, v, u)
    work = Workspace(robot_of(params))
    with np.errstate(all="ignore"):
        whole = integrate_frontier(q, v, u, Workspace(robot_of(params)))
        for cut in (1, 128, 299):
            parts = [[x.copy() for x in integrate_frontier(q[s], v[s], u[s], work)]
                     for s in (slice(cut), slice(cut, None))]
            for k in (0, 1):
                assert bits(np.concatenate([p[k] for p in parts])) == bits(whole[k]), (cut, k)


def test_integrator_matches_fine_reference():
    # same physics at SUBSTEPS and 10000 substeps must agree to integrator order
    q1, v1 = step_joint(0.5, 0.0, 3.0, P)
    q2, v2 = reference_integrate_joint(0.5, 0.0, 3.0, P, 0.04, substeps=10000)
    assert q1 == pytest.approx(q2, abs=1e-11)
    assert v1 == pytest.approx(v2, abs=1e-10)


def total_energy(q: float, v: float, p: Pendulum) -> float:
    """Kinetic plus potential energy; conserved exactly at zero torque."""
    return 0.5 * p.mass * p.length**2 * v**2 + p.mass * p.gravity * p.length * (1 - math.cos(q))


def test_energy_conservation_zero_torque():
    q, v = 1.0, 0.0
    e0 = total_energy(q, v, P)
    for _ in range(250):  # 10 s
        q, v = step_joint(q, v, 0.0, P)
    assert abs(total_energy(q, v, P) - e0) / e0 < 1e-8


def test_overflow_raises():
    tiny = JointSpec(
        name="j", q_min=-135 * DEG, q_max=135 * DEG, delta_q=2 * DEG,
        v_min=-180 * DEG, v_max=180 * DEG, mass=1e-308, length=1.0,
        torques=(-50.0, 0.0, 50.0),
    )
    robot = RobotSpec(delta_t=0.04, gravity=9.81, joints=(tiny,))
    with pytest.raises(NumericalOverflow):
        integrate_step(ContinuousState((0.0,), (0.0,)), (0,), robot)


def test_overflow_on_the_last_substep_is_caught_after_integration():
    # under a torque of 1e307 the velocity grows every substep, so the
    # smallest start velocity that overflows does so in the last substep's
    # position update, which no math.sin sees: only the result check can
    strong = demo_joint()._replace(torques=(0.0, 1e307))
    robot = RobotSpec(delta_t=0.04, gravity=9.81, joints=(strong,))
    robot.validate()

    def step(v: float) -> ContinuousState:
        return integrate_step(ContinuousState((0.0,), (v,)), (1,), robot)

    lo, hi = 0.0, 1e308      # finite at lo, refused at hi
    step(lo)
    with pytest.raises(NumericalOverflow, match="math domain error"):
        step(hi)
    while math.nextafter(lo, hi) < hi:
        mid = lo + (hi - lo) / 2
        try:
            step(mid)
            lo = mid
        except NumericalOverflow:
            hi = mid
    assert hi == pytest.approx(2.958155224770526e307, rel=1e-12)
    with pytest.raises(NumericalOverflow) as err:
        step(hi)
    assert str(err.value) == "joint joint1: non-finite state after integration"


def test_array_integration_is_bitwise_scalar():
    # seeded states inside the demo limits under torques across its menu
    # range, with infs and nans; one joint at the demo's constants, three
    # at their own. Each element faces `integrate_step` of its joint with
    # its torque on the menu: a NaN must face a NaN, of either sign; every
    # other value, infinities and signed zeros included, bit for bit. Where
    # a non-finite entry makes the step raise, the element faces the oracle
    rng = np.random.default_rng(20201)
    for rows, joints in ((4000, 1), (1, 1), (300, 3)):
        q = rng.uniform(-135 * DEG, 135 * DEG, (rows, joints))
        v = rng.uniform(-180 * DEG, 180 * DEG, (rows, joints))
        size = rows * joints
        u = np.concatenate([rng.choice([-50.0, -25.0, 0.0, 25.0, 50.0], size // 2),
                            rng.uniform(-50.0, 50.0, size - size // 2)]).reshape(rows, joints)
        with_non_finite(rng, q, v, u)
        if joints == 1:
            params, per_joint = P, [P]
        else:
            mass, length = (rng.uniform(0.2, 3.0, joints).tolist(),
                            rng.uniform(0.3, 2.0, joints).tolist())
            params = Pendulum(np.array(mass), np.array(length), 9.81)
            per_joint = [Pendulum(*ml, 9.81) for ml in zip(mass, length)]
        with np.errstate(all="ignore"):
            qa, va = integrate_frontier(q, v, u, Workspace(robot_of(params)))
            oracle = reference_integrate_joint(q, v, u, params, 0.04, sin=np.sin)
        for r, j in np.ndindex(rows, joints):
            got = qa[r, j], va[r, j]
            try:
                want = step_joint(q[r, j].item(), v[r, j].item(), u[r, j].item(), per_joint[j])
            except NumericalOverflow:
                assert not np.isfinite(got).all(), (rows, joints, r, j)
                want = oracle[0][r, j], oracle[1][r, j]
            assert bits_any_nan(got) == bits_any_nan(want), (rows, joints, r, j)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_each_frontier_row_is_bitwise_integrate_step(data):
    # 1-3 joints, each at its own mass, length and torque menu, under a
    # drawn gravity and tick: one kernel call over rows of seeded states and
    # actions gives, row by row, the scalar step of the robot, bit for bit
    joint = st.tuples(st.floats(0.2, 3.0), st.floats(0.3, 2.0),
                      st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=4,
                               unique=True).map(sorted).map(tuple))
    drawn = data.draw(st.lists(joint, min_size=1, max_size=3,
                               unique_by=(itemgetter(0), itemgetter(1), itemgetter(2))))
    mass, length, menus = (list(c) for c in zip(*drawn))
    p = Pendulum(np.array(mass), np.array(length), data.draw(st.sampled_from([9.81, 3.7])))
    robot = robot_of(p, menus, data.draw(st.sampled_from([0.04, 0.03, 0.05])))
    action = st.tuples(*(st.integers(0, len(m) - 1) for m in menus))
    angle, speed = st.floats(-135 * DEG, 135 * DEG), st.floats(-180 * DEG, 180 * DEG)
    rows = data.draw(st.lists(st.tuples(st.lists(angle, min_size=len(mass), max_size=len(mass)),
                                        st.lists(speed, min_size=len(mass), max_size=len(mass)),
                                        action), min_size=1, max_size=12))
    q, v = (np.array([r[k] for r in rows]) for k in (0, 1))
    u = np.array([[m[k] for m, k in zip(menus, a)] for *_, a in rows])
    qa, va = integrate_frontier(q, v, u, Workspace(robot))
    for r, (qs, vs, a) in enumerate(rows):
        want = integrate_step(ContinuousState(tuple(qs), tuple(vs)), a, robot)
        assert bits(qa[r]) == bits(want.q), (r, a)
        assert bits(va[r]) == bits(want.v), (r, a)


def test_act_is_one_step_sequence(pendulum):
    s = QuantizedState((0,), (0,))
    for a in range(5):
        end, trace = act_sequence(s, ((a,),), pendulum)
        step = integrate_step(representative(s, pendulum), (a,), pendulum)
        assert quantize(step, pendulum) == end
        assert len(trace) == 1


def test_act_sequence_rejects_empty(pendulum):
    with pytest.raises(ValueError):
        act_sequence(QuantizedState((0,), (0,)), (), pendulum)


def test_validation_check_limits(pendulum):
    good = ContinuousState((0.0,), (0.0,))
    bad_q = ContinuousState((140 * DEG,), (0.0,))
    bad_v = ContinuousState((0.0,), (200 * DEG,))
    assert validation_check([good], pendulum)
    assert not validation_check([good, bad_q], pendulum)
    assert not validation_check([bad_v], pendulum)


@settings(deadline=None)
@given(st.lists(st.integers(0, 4), min_size=2, max_size=6), st.integers(1, 4))
def test_trace_fold_is_associative(seq, cut):
    """Simulating a+b in one call equals simulating a, then b from a's endpoint."""
    robot = RobotSpec(
        delta_t=0.04, gravity=9.81,
        joints=(JointSpec(
            name="j", q_min=-135 * DEG, q_max=135 * DEG, delta_q=2 * DEG,
            v_min=-180 * DEG, v_max=180 * DEG, mass=1.0, length=1.0,
            torques=(-50.0, -25.0, 0.0, 25.0, 50.0),
        ),),
    )
    cut = min(cut, len(seq) - 1)
    actions = tuple((a,) for a in seq)
    s0 = QuantizedState((0,), (0,))
    state = representative(s0, robot)
    whole = []
    for a in actions:
        state = integrate_step(state, a, robot)
        whole.append(state)

    state2 = representative(s0, robot)
    for a in actions[:cut]:
        state2 = integrate_step(state2, a, robot)
    for a in actions[cut:]:
        state2 = integrate_step(state2, a, robot)

    assert state2 == whole[-1]


def test_quantization_observes_never_perturbs(pendulum):
    """The continuous trace of a sequence is independent of grid snapping."""
    s0 = QuantizedState((3,), (1,))
    seq = ((4,), (4,), (0,), (2,))
    end, trace = act_sequence(s0, seq, pendulum)
    # replay manually without any quantization
    state = representative(s0, pendulum)
    for a in seq:
        state = integrate_step(state, a, pendulum)
    assert trace[-1] == state


def test_integrate_step_takes_gravity_from_the_robot():
    # each joint at its own mass, length and torque, under a gravity other than the default
    joints = (demo_joint(), demo_joint()._replace(name="j2", mass=0.35, length=1.7))
    robot = RobotSpec(delta_t=0.04, gravity=3.7, joints=joints)
    s, action = ContinuousState((0.5, -0.2), (0.1, 0.3)), (4, 1)
    got = integrate_step(s, action, robot)
    for i, j in enumerate(joints):
        want = reference_integrate_joint(s.q[i], s.v[i], j.torques[action[i]],
                                         Pendulum(j.mass, j.length, 3.7), 0.04)
        assert bits((got.q[i], got.v[i])) == bits(want)
    assert got != integrate_step(s, action, robot._replace(gravity=9.81))
