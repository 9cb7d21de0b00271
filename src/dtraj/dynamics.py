"""Forward dynamics of independently actuated pendulum joints.

Each joint is a mathematical pendulum (point mass on a rigid massless rod, no
damping) driven by a torque held constant over one clock tick. Joints never
couple. Integration is classical 4th-order Runge-Kutta with a fixed substep
count chosen so the per-tick error stays far below the position resolution.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, NamedTuple

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

if TYPE_CHECKING:
    import numpy as np

# substeps per clock tick; RK4 at dt/10 is orders of magnitude below delta_q
# error for the torque/length regime this package targets
SUBSTEPS = 10


class PendulumParams(NamedTuple):
    """One joint's constants as floats, or every joint's as per-joint arrays."""

    mass: float | np.ndarray
    length: float | np.ndarray
    gravity: float


def integrate_joint(q, v, u, p: PendulumParams, dt: float, substeps: int = SUBSTEPS, sin=math.sin):
    """Advance joints by dt under constant torque u by classical RK4 substeps.

    The acceleration is gravity's restoring term plus the torque's; undamped,
    so a stage's acceleration needs only its angle. The torque term u / inertia
    is the same at every stage, so it is taken once per call. Floats with
    `math.sin`, or float64 arrays with `np.sin`: one joint's states, or
    (rows, joints) arrays with `p` holding per-joint arrays. The operations run
    in the same order either way, so each array element is bitwise the scalar
    result wherever the two sines agree.
    """
    gravity, torque = -(p.gravity / p.length), u / (p.mass * p.length * p.length)
    h = dt / substeps
    half, sixth = 0.5 * h, h / 6
    for _ in range(substeps):
        k1v = gravity * sin(q) + torque
        k2q = v + half * k1v
        k2v = gravity * sin(q + half * v) + torque
        k3q = v + half * k2v
        k3v = gravity * sin(q + half * k2q) + torque
        k4q = v + h * k3v
        k4v = gravity * sin(q + h * k3q) + torque
        q, v = (q + sixth * (v + 2 * k2q + 2 * k3q + k4q),
                v + sixth * (k1v + 2 * k2v + 2 * k3v + k4v))
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
    return all(j.within_limits(q, v)
               for st in trace for j, q, v in zip(robot.joints, st.q, st.v))


def total_energy(q: float, v: float, p: PendulumParams) -> float:
    """Kinetic plus potential energy; conserved exactly at zero torque."""
    return 0.5 * p.mass * p.length**2 * v**2 + p.mass * p.gravity * p.length * (1 - math.cos(q))
