"""Forward dynamics of independently actuated pendulum joints.

Each joint is a mathematical pendulum (point mass on a rigid massless rod, no
damping) driven by a torque held constant over one clock tick. Joints never
couple. Integration is classical 4th-order Runge-Kutta with a fixed substep
count chosen so the per-tick error stays far below the position resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import NumericalOverflow
from .model import (
    Action,
    ActionSequence,
    ContinuousState,
    QuantizedState,
    RobotSpec,
    quantize,
    representative,
)

# substeps per clock tick; RK4 at dt/10 is orders of magnitude below delta_q
# error for the torque/length regime this package targets
SUBSTEPS = 10


@dataclass(frozen=True)
class PendulumParams:
    mass: float
    length: float
    gravity: float


def pendulum_accel(q, v, u, p: PendulumParams, sin=math.sin):
    """Angular acceleration of the pendulum: gravity restoring term plus torque.

    Floats with `math.sin`, or equal-length float64 arrays with `np.sin`; the
    operations run in the same order either way, so each array element is
    bitwise the scalar result wherever the two sines agree.
    """
    return -(p.gravity / p.length) * sin(q) + u / (p.mass * p.length * p.length)


def _rk4_step(q, v, u, h: float, p: PendulumParams, sin=math.sin):
    k1q = v
    k1v = pendulum_accel(q, v, u, p, sin)
    k2q = v + 0.5 * h * k1v
    k2v = pendulum_accel(q + 0.5 * h * k1q, v + 0.5 * h * k1v, u, p, sin)
    k3q = v + 0.5 * h * k2v
    k3v = pendulum_accel(q + 0.5 * h * k2q, v + 0.5 * h * k2v, u, p, sin)
    k4q = v + h * k3v
    k4v = pendulum_accel(q + h * k3q, v + h * k3v, u, p, sin)
    return (
        q + h / 6 * (k1q + 2 * k2q + 2 * k3q + k4q),
        v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v),
    )


def integrate_joint(q, v, u, p: PendulumParams, dt: float, substeps: int = SUBSTEPS, sin=math.sin):
    """Advance one joint by dt under constant torque u (floats, or arrays with np.sin)."""
    h = dt / substeps
    for _ in range(substeps):
        q, v = _rk4_step(q, v, u, h, p, sin)
    return q, v


def joint_params(robot: RobotSpec, i: int) -> PendulumParams:
    j = robot.joints[i]
    return PendulumParams(mass=j.mass, length=j.length, gravity=robot.gravity)


def integrate_step(s: ContinuousState, a: Action, robot: RobotSpec) -> ContinuousState:
    """Advance every joint independently by one tick under the action's torques."""
    qs = []
    vs = []
    for i, j in enumerate(robot.joints):
        u = j.torques[a[i]]
        try:
            q, v = integrate_joint(s.q[i], s.v[i], u, joint_params(robot, i), robot.delta_t)
        except (ValueError, OverflowError) as exc:
            # math.sin rejects non-finite arguments before the result check can
            raise NumericalOverflow(f"joint {j.name}: {exc}") from None
        if not (math.isfinite(q) and math.isfinite(v)):
            raise NumericalOverflow(f"joint {j.name}: non-finite state after integration")
        qs.append(q)
        vs.append(v)
    return ContinuousState(tuple(qs), tuple(vs))


def act(s: QuantizedState, a: Action, robot: RobotSpec) -> QuantizedState:
    """Grid-level actuation: simulate one tick from the cell center, snap back."""
    return quantize(integrate_step(representative(s, robot), a, robot), robot)


def act_sequence(
    s0: QuantizedState, seq: ActionSequence, robot: RobotSpec
) -> tuple[QuantizedState, list[ContinuousState]]:
    """Apply a torque sequence, carrying the continuous state between ticks.

    Quantization observes the motion, it never perturbs it: the underlying
    trajectory is simulated at full resolution and only the endpoint is
    snapped. Returns the quantized endpoint and the per-tick continuous trace
    (one entry per action, the state after that action).
    """
    if not seq:
        raise ValueError("action sequence must be non-empty")
    state = representative(s0, robot)
    trace: list[ContinuousState] = []
    for a in seq:
        state = integrate_step(state, a, robot)
        trace.append(state)
    return quantize(state, robot), trace


def validation_check(trace: Iterable[ContinuousState], robot: RobotSpec) -> bool:
    """True iff every traced state respects the joint limits at every tick."""
    for st in trace:
        for i, j in enumerate(robot.joints):
            if not (j.q_min <= st.q[i] <= j.q_max):
                return False
            if not (j.v_min <= st.v[i] <= j.v_max):
                return False
    return True


def total_energy(q: float, v: float, p: PendulumParams) -> float:
    """Kinetic plus potential energy; conserved exactly at zero torque."""
    return 0.5 * p.mass * p.length**2 * v**2 + p.mass * p.gravity * p.length * (1 - math.cos(q))
