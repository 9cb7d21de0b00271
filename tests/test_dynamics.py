import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtraj.dynamics import (
    SUBSTEPS,
    PendulumParams,
    act_sequence,
    integrate_frontier,
    integrate_joint,
    integrate_step,
    joint_params,
    total_energy,
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
from conftest import DEG


P = PendulumParams(mass=1.0, length=1.0, gravity=9.81)


def pendulum_accel(q, u, p: PendulumParams, sin=math.sin):
    """Gravity's restoring term plus torque, as `integrate_joint` once took it per stage."""
    gravity, inertia = -(p.gravity / p.length), p.mass * p.length * p.length
    return gravity * sin(q) + u / inertia


def reference_integrate_joint(q, v, u, p: PendulumParams, dt: float, substeps: int = SUBSTEPS,
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
    heavier = PendulumParams(mass=2.0, length=1.0, gravity=9.81)
    assert pendulum_accel(0.0, 5.0, heavier) == pytest.approx(2.5)


@pytest.mark.parametrize("params", [
    P, PendulumParams(mass=0.35, length=1.7, gravity=9.81),
    PendulumParams(mass=4.0, length=0.2, gravity=3.7),
], ids=["demo", "long", "short"])
def test_kernel_is_bitwise_its_oracle_on_floats(params):
    rng = np.random.default_rng(2022)
    q, v = near_limit_states(rng, 300, 1)
    u = menu_and_off_menu_torques(rng, 300)
    for dt in (0.04, 0.03, 0.05):
        for args in zip(q.ravel().tolist(), v.ravel().tolist(), u.tolist()):
            got = integrate_joint(*args, params, dt)
            want = reference_integrate_joint(*args, params, dt, SUBSTEPS)
            assert bits(got) == bits(want), (args, dt)


@pytest.mark.parametrize("joints", [1, 2, 3])
def test_kernel_is_bitwise_its_oracle_on_arrays(joints):
    # (rows, joints) frontiers as discovery integrates them, per-joint
    # constants, and non-finite entries, which stay in their own element
    rng = np.random.default_rng(joints)
    params = PendulumParams(rng.uniform(0.2, 3.0, joints), rng.uniform(0.3, 2.0, joints), 9.81)
    q, v = near_limit_states(rng, 400, joints)
    u = menu_and_off_menu_torques(rng, (400, joints))
    with_non_finite(rng, q, v, u)
    for rows in (slice(None), slice(1)):        # the frontier, then its first row alone
        with np.errstate(all="ignore"):
            got = integrate_frontier(q[rows], v[rows], u[rows], params, 0.04)
            want = reference_integrate_joint(q[rows], v[rows], u[rows], params, 0.04, sin=np.sin)
        assert bits(got[0]) == bits(want[0])
        assert bits(got[1]) == bits(want[1])


def test_integrator_matches_fine_reference():
    # same physics at SUBSTEPS and 10000 substeps must agree to integrator order
    q1, v1 = integrate_joint(0.5, 0.0, 3.0, P, 0.04)
    q2, v2 = reference_integrate_joint(0.5, 0.0, 3.0, P, 0.04, substeps=10000)
    assert q1 == pytest.approx(q2, abs=1e-11)
    assert v1 == pytest.approx(v2, abs=1e-10)


def test_energy_conservation_zero_torque():
    q, v = 1.0, 0.0
    e0 = total_energy(q, v, P)
    for _ in range(250):  # 10 s
        q, v = integrate_joint(q, v, 0.0, P, 0.04)
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


def test_array_integration_is_bitwise_scalar():
    # seeded states inside the demo limits under torques across its menu
    # range, with infs and nans; one joint takes the demo's float constants,
    # three take per-joint arrays
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
            params = PendulumParams(np.array(mass), np.array(length), 9.81)
            per_joint = [PendulumParams(*ml, 9.81) for ml in zip(mass, length)]
        with np.errstate(all="ignore"):
            qa, va = integrate_frontier(q, v, u, params, 0.04)
        for r, j in np.ndindex(rows, joints):
            got = qa[r, j], va[r, j]
            try:
                want = integrate_joint(q[r, j].item(), v[r, j].item(), u[r, j].item(),
                                       per_joint[j], 0.04)
            except ValueError:
                # math.sin refuses an infinite angle, where the kernel goes non-finite
                assert not np.isfinite(got).all(), (rows, joints, r, j)
                continue
            assert bits(got) == bits(want), (rows, joints, r, j)


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


def test_joint_params_pulls_gravity_from_robot(pendulum):
    p = joint_params(pendulum, 0)
    assert p.gravity == pytest.approx(9.81)
    assert p.mass == pytest.approx(1.0)
    assert p.length == pytest.approx(1.0)
