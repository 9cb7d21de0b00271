import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtraj.dynamics import (
    PendulumParams,
    act_sequence,
    integrate_joint,
    integrate_step,
    joint_params,
    pendulum_accel,
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


def test_acceleration_model():
    # gravity pulls toward the hanging equilibrium, torque adds directly
    assert pendulum_accel(0.0, 0.0, P) == 0.0
    assert pendulum_accel(0.1, 0.0, P) < 0
    assert pendulum_accel(0.0, 5.0, P) == pytest.approx(5.0)
    heavier = PendulumParams(mass=2.0, length=1.0, gravity=9.81)
    assert pendulum_accel(0.0, 5.0, heavier) == pytest.approx(2.5)


def test_integrator_matches_fine_reference():
    # same physics at 10 and 10000 substeps must agree to integrator order
    q1, v1 = integrate_joint(0.5, 0.0, 3.0, P, 0.04, substeps=10)
    q2, v2 = integrate_joint(0.5, 0.0, 3.0, P, 0.04, substeps=10000)
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
    # seeded states inside the demo limits under torques across its menu range
    rng = np.random.default_rng(20201)
    q = rng.uniform(-135 * DEG, 135 * DEG, 4000)
    v = rng.uniform(-180 * DEG, 180 * DEG, 4000)
    u = np.concatenate([rng.choice([-50.0, -25.0, 0.0, 25.0, 50.0], 2000),
                        rng.uniform(-50.0, 50.0, 2000)])
    qa, va = integrate_joint(q, v, u, P, 0.04, sin=np.sin)
    scalar = [integrate_joint(*args, P, 0.04) for args in zip(q.tolist(), v.tolist(), u.tolist())]
    qs, vs = np.array(scalar).T
    assert qa.view(np.int64).tolist() == qs.view(np.int64).tolist()
    assert va.view(np.int64).tolist() == vs.view(np.int64).tolist()


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
