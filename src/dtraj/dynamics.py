"""Forward dynamics of independently actuated pendulum joints.

Each joint is a mathematical pendulum (point mass on a rigid massless rod, no
damping) driven by a torque held constant over one clock tick. Joints never
couple. Integration is classical 4th-order Runge-Kutta with a fixed substep
count chosen so the per-tick error stays far below the position resolution.

Two integrators take the same RK4 step: `integrate_step`, joint by joint
on floats with `math.sin`, and its array twin `integrate_frontier`,
discovery's in-place kernel, with `np.sin`. Both read each joint's constants
from the robot spec and run the same IEEE operations on the same operands in
the same order, so each array element is bitwise the scalar result wherever
the two sines agree, but for a NaN's sign, which IEEE 754 leaves open.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable

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


class Workspace:
    """`integrate_frontier`'s constants and stage buffer for one robot, kept across calls.

    Taken once from the robot spec, as `integrate_step` takes them per call:
    each joint's gravity term -(g / length) and inertia, and the 0-d h, h/2,
    h/6 and 2 of its tick. The stage buffer holds 12 floats per row-joint,
    with the gravity term tiled beside it; both are allocated at the first
    call's frontier and grown to a wider one's, never shrunk, so they follow
    the widest frontier integrated with them. A caller bounds them by the
    rows it passes at once.
    """

    def __init__(self, robot: RobotSpec):
        import numpy as np

        mass = np.array([j.mass for j in robot.joints])
        length = np.array([j.length for j in robot.joints])
        self.gravity_row = -(robot.gravity / length)
        self.inertia = mass * length * length
        h = robot.delta_t / SUBSTEPS
        self.h, self.half, self.sixth, self.two = map(np.array, (h, 0.5 * h, h / 6, 2.0))
        self.buffer = self.gravity = np.empty(0)

    def views(self, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """(stages, gravity) for a frontier of this shape: (4, 3, *shape) and shape,
        both C-contiguous prefixes of the workspace's buffers."""
        import numpy as np

        size = math.prod(shape)
        if size > len(self.gravity):
            self.buffer = np.empty(12 * size)
            self.gravity = np.broadcast_to(self.gravity_row, shape).ravel()
        return (self.buffer[:12 * size].reshape(4, 3, *shape),
                self.gravity[:size].reshape(shape))


def integrate_frontier(q: np.ndarray, v: np.ndarray, u: np.ndarray,
                       work: Workspace) -> tuple[np.ndarray, np.ndarray]:
    """`integrate_step`'s array twin: one tick of (rows, joints) float64 arrays by `work`'s robot.

    `work` lends its constants and stage buffer to every call given it; u
    holds each element's torque. It takes SUBSTEPS substeps, as
    `integrate_step` does. The buffer holds one block per RK4 stage k: its
    state Y_k = (q, v) stacked over its acceleration, so the stage's slope
    K_k = (v, acceleration) is a view of the block's last two planes. Stage
    1's block holds the substep's state X itself. Each later stage is
    Y_k = X + c * K_(k-1) and one acceleration, and the substep ends with
    X += h/6 * (K1 + 2 K2 + 2 K3 + K4), summed left to right: 25 ufunc
    calls, each writing in place on contiguous blocks (one call doubling K2
    and K3 over their stacked view, which cannot be contiguous while each
    Y_k and K_k is, ran slower than two). They are `integrate_step`'s
    operations on its operands in its order (Y_k's v is its k_k q), so each
    element is bitwise its result wherever `np.sin` and `math.sin` agree,
    but for a NaN's sign. A non-finite entry raises nothing and stays in
    its element; numpy's warnings are the caller's to silence. Returns
    views of the buffer, which the next call given `work` overwrites.
    """
    import numpy as np

    stages, gravity = work.views(q.shape)
    torque = u / work.inertia
    h, half, sixth, two = work.h, work.half, work.sixth, work.two
    x, x_angle, a1 = stages[0, :2], stages[0, 0], stages[0, 2]
    k1, k2, k3, k4 = stages[:, 1:]
    # stages 2 to 4: the (c, K) each steps by, its state, its angle, its acceleration
    stepped = [(c, k, y[:2], y[0], y[2])
               for c, k, y in zip((half, half, h), (k1, k2, k3), stages[1:])]
    x[0], x[1] = q, v
    sin, mul, add = np.sin, np.multiply, np.add
    for _ in range(SUBSTEPS):
        sin(x_angle, a1)
        mul(gravity, a1, a1)
        add(a1, torque, a1)
        for c, k, y, angle, a in stepped:
            mul(c, k, y)
            add(x, y, y)
            sin(angle, a)
            mul(gravity, a, a)
            add(a, torque, a)
        mul(two, k2, k2)
        add(k1, k2, k2)
        mul(two, k3, k3)
        add(k2, k3, k2)
        add(k2, k4, k2)
        mul(sixth, k2, k2)
        add(x, k2, x)
    return x[0], x[1]


def integrate_step(s: ContinuousState, a: Action, robot: RobotSpec) -> ContinuousState:
    """Advance every joint independently by one tick under the action's torques.

    Each joint takes SUBSTEPS classical RK4 substeps. The acceleration is
    gravity's restoring term plus the torque's; undamped, so a stage's
    acceleration needs only its angle. The torque term u / inertia is the
    same at every stage, so it is taken once per joint.
    """
    h = robot.delta_t / SUBSTEPS
    half, sixth = 0.5 * h, h / 6
    qs = []
    vs = []
    for i, j in enumerate(robot.joints):
        q, v, u = s.q[i], s.v[i], j.torques[a[i]]
        try:
            gravity, torque = -(robot.gravity / j.length), u / (j.mass * j.length * j.length)
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
