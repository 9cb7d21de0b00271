"""Forward dynamics of independently actuated pendulum joints.

Each joint is a mathematical pendulum (point mass on a rigid massless rod, no
damping) driven by a torque held constant over one clock tick. Joints never
couple. Integration is classical 4th-order Runge-Kutta with a fixed substep
count chosen so the per-tick error stays far below the position resolution.

Two integrators take the same RK4 step: `integrate_joint` on floats with
`math.sin`, and `integrate_frontier`, discovery's in-place kernel, on arrays
with `np.sin`. Both run the same IEEE operations on the same operands in the
same order, so each array element is bitwise the scalar result wherever the
two sines agree.
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


def integrate_joint(q: float, v: float, u: float, p: PendulumParams,
                    dt: float) -> tuple[float, float]:
    """Advance one joint by dt under constant torque u by SUBSTEPS classical RK4 substeps.

    The acceleration is gravity's restoring term plus the torque's; undamped,
    so a stage's acceleration needs only its angle. The torque term u / inertia
    is the same at every stage, so it is taken once per call.
    """
    gravity, torque = -(p.gravity / p.length), u / (p.mass * p.length * p.length)
    h = dt / SUBSTEPS
    half, sixth = 0.5 * h, h / 6
    for _ in range(SUBSTEPS):
        k1v = gravity * math.sin(q) + torque
        k2q = v + half * k1v
        k2v = gravity * math.sin(q + half * v) + torque
        k3q = v + half * k2v
        k3v = gravity * math.sin(q + half * k2q) + torque
        k4q = v + h * k3v
        k4v = gravity * math.sin(q + h * k3q) + torque
        q, v = (q + sixth * (v + 2 * k2q + 2 * k3q + k4q),
                v + sixth * (k1v + 2 * k2v + 2 * k3v + k4v))
    return q, v


def integrate_frontier(q: np.ndarray, v: np.ndarray, u: np.ndarray, p: PendulumParams,
                       dt: float) -> tuple[np.ndarray, np.ndarray]:
    """`integrate_joint` over (rows, joints) float64 arrays, `p` holding per-joint arrays.

    It takes SUBSTEPS substeps, as `integrate_joint` does. One
    preallocated buffer per RK4 stage k holds its state Y_k = (q, v)
    stacked over its acceleration, so the stage's slope K_k = (v,
    acceleration) is a view of the buffer's last two planes. Stage 1's
    buffer holds the substep's state X itself. Each later stage is
    Y_k = X + c * K_(k-1) and one acceleration, and the substep ends with
    X += h/6 * (K1 + 2 K2 + 2 K3 + K4), summed left to right: 25 ufunc calls,
    each writing in place. They are `integrate_joint`'s operations on its
    operands in its order (Y_k's v is its k_k q), so each element is bitwise
    its result wherever `np.sin` and `math.sin` agree. A non-finite entry
    raises nothing and stays in its element; numpy's warnings are the
    caller's to silence. Returns views of the buffer.
    """
    import numpy as np

    torque = u / (p.mass * p.length * p.length)
    h = dt / SUBSTEPS
    # constants as arrays, gravity's in the frontier's shape: numpy takes
    # these faster than a Python number or a broadcast, and they hold the
    # same float64 values
    gravity = np.broadcast_to(-(p.gravity / p.length), q.shape).copy()
    h, half, sixth, two = map(np.array, (h, 0.5 * h, h / 6, 2.0))
    stages = np.empty((4, 3, *q.shape))
    x, x_angle, a1 = stages[0, :2], stages[0, 0], stages[0, 2]
    k1, k2, k3, k4 = stages[:, 1:]
    # stages 2 to 4: the (c, K) each steps by, its state, its angle, its acceleration
    stepped = [(c, k, y[:2], y[0], y[2])
               for c, k, y in zip((half, half, h), (k1, k2, k3), stages[1:])]
    x[0], x[1] = q, v
    for _ in range(SUBSTEPS):
        np.sin(x_angle, out=a1)
        np.multiply(gravity, a1, out=a1)
        np.add(a1, torque, out=a1)
        for c, k, y, angle, a in stepped:
            np.multiply(c, k, out=y)
            np.add(x, y, out=y)
            np.sin(angle, out=a)
            np.multiply(gravity, a, out=a)
            np.add(a, torque, out=a)
        np.multiply(two, k2, out=k2)
        np.add(k1, k2, out=k2)
        np.multiply(two, k3, out=k3)
        np.add(k2, k3, out=k2)
        np.add(k2, k4, out=k2)
        np.multiply(sixth, k2, out=k2)
        np.add(x, k2, out=x)
    return x[0], x[1]


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
