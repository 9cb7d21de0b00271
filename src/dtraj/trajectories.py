"""Walk enumeration, exact walk counting, and greedy tracking over a transition table.

Trajectories here are graph walks: each hop is one recorded transition, so a
hop can cover several control ticks. Enumeration streams every walk of an
exact hop count; the counter gets the same numbers, exact at any size, by
repeated adjacency application over the table's integer edge index. The
planner greedily tracks a desired configuration path, matching transition
durations to the time elapsed since it last moved.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import IO, Iterator, Sequence

from .errors import BudgetExceeded, ConfigError, DomainError, NoFeasibleTransition, ResourceLimit
from .model import ActionSequence, ContinuousState, QuantizedState, RobotSpec, quantize
from .transitions import Transition, TransitionTable

DEFAULT_ENUM_BUDGET = 10_000_000
_INT64_MAX = 2 ** 63 - 1
# walk counting's cost cap in hops x edges x 64-bit words of the largest
# count; 1,734 hops on the demo table reach it, in about 1.7 s
_COUNT_WORK_BUDGET = 2 * 10 ** 9
# a target counts as reached while the offset is below one resolution unit;
# the epsilon absorbs float noise in degree -> radian -> grid arithmetic
_MOVE_THRESHOLD = 1.0 - 1e-9


@dataclass(frozen=True)
class Trajectory:
    """Walk through the table: (state, hop index) pairs, hop 0 at the start."""

    waypoints: tuple[tuple[QuantizedState, int], ...]

    def states(self) -> tuple[QuantizedState, ...]:
        return tuple(s for s, _ in self.waypoints)


def count_trajectories(table: TransitionTable, n_steps: int) -> dict[QuantizedState, int]:
    """Exact number of n_steps-hop walks out of every state (multi-edges counted).

    Each hop sums, per state, the counts at the destinations of its outgoing
    transitions. The sums run in int64 while max(count) * max out-degree
    cannot overflow it, and in Python integers from the first hop where it
    could, so counts stay exact at any size. Work past _COUNT_WORK_BUDGET is
    refused before it starts, bounding each count by max out-degree ** n_steps.
    """
    import numpy as np

    if n_steps < 0:
        raise DomainError("n_steps must be >= 0")
    edges = table.edge_index()
    hops = min(n_steps, _COUNT_WORK_BUDGET + 1)    # past the budget either way
    words = 1 + hops * math.log2(max(edges.max_out_degree, 1)) / 64
    if hops * max(len(edges.dst), 1) * words > _COUNT_WORK_BUDGET:
        raise ResourceLimit(
            f"counting {n_steps}-hop walks over {len(edges.dst)} transitions exceeds the "
            f"work budget of {_COUNT_WORK_BUDGET} edge-hop words"
        )
    counts = np.ones(len(table.states), dtype=np.int64)
    # a row's segment of dst starts at its row start; reduceat needs the
    # nonempty rows only, and rows without transitions stay 0
    rows = np.flatnonzero(np.diff(edges.row_start))
    starts = edges.row_start[rows]
    for _ in range(n_steps):
        if counts.dtype == np.int64 and (
            int(counts.max(initial=0)) * edges.max_out_degree > _INT64_MAX
        ):
            counts = counts.astype(object)
        nxt = np.zeros_like(counts)
        nxt[rows] = np.add.reduceat(counts[edges.dst], starts)
        counts = nxt
    return dict(zip(table.states, counts.tolist()))


def enumerate_trajectories(
    table: TransitionTable,
    starts: Sequence[QuantizedState],
    n_steps: int,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> Iterator[Trajectory]:
    """Stream every exactly-n_steps-hop walk from each start.

    Order is canonical: starts in the given order, hops in table transition
    order (depth-first, first transition first). The total count is checked
    against the budget up front via the exact counter, so a caller never
    receives a truncated stream.
    """
    if n_steps < 0:
        raise DomainError("n_steps must be >= 0")
    for s in starts:
        table.state_index(s)
    totals = count_trajectories(table, n_steps)
    planned = sum(totals[s] for s in starts)
    if planned > budget:
        raise BudgetExceeded(
            f"enumeration would yield {planned} trajectories, budget is {budget}"
        )

    def walk(state: QuantizedState, prefix: list) -> Iterator[Trajectory]:
        if len(prefix) == n_steps + 1:
            yield Trajectory(tuple((s, i) for i, s in enumerate(prefix)))
            return
        for t in table.outgoing(state):
            prefix.append(t.to_state)
            yield from walk(t.to_state, prefix)
            prefix.pop()

    for s in starts:
        yield from walk(s, [s])


# ---------------------------------------------------------------------------
# desired trajectories and the greedy planner


@dataclass(frozen=True)
class DesiredTrajectory:
    """Configuration targets over time; radians, seconds, strictly increasing from 0."""

    waypoints: tuple[tuple[tuple[float, ...], float], ...]

    def __post_init__(self):
        if not self.waypoints:
            raise DomainError("desired trajectory is empty")
        if abs(self.waypoints[0][1]) > 1e-12:
            raise DomainError("desired trajectory must start at t = 0")
        last = -1.0
        width = len(self.waypoints[0][0])
        for q, t in self.waypoints:
            if len(q) != width:
                raise DomainError("inconsistent joint count in desired trajectory")
            if t <= last:
                raise DomainError("desired trajectory times must strictly increase")
            last = t


def load_desired_csv(fh: IO[str]) -> DesiredTrajectory:
    """Read `t_s,q1_deg[,q2_deg,...]` rows; angles converted to radians."""
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise ConfigError("empty desired-trajectory file") from None
    header = [h.strip() for h in header]
    if not header or header[0] != "t_s":
        raise ConfigError("desired-trajectory header must start with t_s")
    for k, name in enumerate(header[1:], start=1):
        if name != f"q{k}_deg":
            raise ConfigError(f"column {k + 1} must be named q{k}_deg, got {name!r}")
    if len(header) < 2:
        raise ConfigError("desired trajectory needs at least one joint column")
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise ConfigError(f"line {lineno}: expected {len(header)} fields")
        try:
            t = float(row[0])
            q = tuple(math.radians(float(c)) for c in row[1:])
        except ValueError as e:
            raise ConfigError(f"line {lineno}: {e}") from None
        rows.append((q, t))
    return DesiredTrajectory(tuple(rows))


@dataclass(frozen=True)
class PlanResult:
    sequences: tuple[ActionSequence, ...]
    visited: tuple[QuantizedState, ...]
    final_state: QuantizedState
    miss_deg: tuple[float, ...]
    warnings: tuple[str, ...]


def _offset_units(
    pos_idx: Sequence[int], target: Sequence[float], robot: RobotSpec
) -> float:
    # worst joint's distance to target, in units of that joint's resolution
    worst = 0.0
    for i, j in enumerate(robot.joints):
        worst = max(worst, abs(pos_idx[i] * j.delta_q - target[i]) / j.delta_q)
    return worst


def plan_action_sequence(
    table: TransitionTable, desired: DesiredTrajectory, robot: RobotSpec
) -> PlanResult:
    """Greedy tracking of a desired configuration path.

    Waypoints must sit on consecutive control ticks. While the upcoming target
    is within one resolution unit of the current configuration, the planner
    waits and lets its duration window grow; once the target is farther away,
    it picks, among the outgoing transitions whose step count equals the
    window, the one whose endpoint is nearest the target (ties: first in table
    order), commits it, and resets the window. Missing candidates raise
    NoFeasibleTransition with the waypoint index; a final configuration more
    than one resolution unit from the last target is reported as a warning,
    not an error.
    """
    robot.validate()
    n = robot.n_joints
    if len(desired.waypoints[0][0]) != n:
        raise DomainError("desired trajectory joint count does not match robot")
    for k, (_, t) in enumerate(desired.waypoints):
        if abs(t - k * robot.delta_t) > 1e-6:
            raise DomainError(
                f"waypoint {k} at t={t}, expected consecutive ticks of {robot.delta_t}"
            )

    start_q = desired.waypoints[0][0]
    start = quantize(ContinuousState(start_q, (0.0,) * n), robot)
    table.state_index(start)

    current = start
    pass_counter = 1
    chosen: list[ActionSequence] = []
    visited: list[QuantizedState] = [start]

    for step in range(1, len(desired.waypoints)):
        target = desired.waypoints[step][0]
        if _offset_units(current.pos_idx, target, robot) < _MOVE_THRESHOLD:
            pass_counter += 1
            continue
        best: Transition | None = None
        best_offset = math.inf
        for t in table.outgoing(current):
            if len(t.actions) != pass_counter:
                continue
            off = _offset_units(t.to_state.pos_idx, target, robot)
            if off < best_offset:
                best = t
                best_offset = off
        if best is None:
            raise NoFeasibleTransition(
                f"no outgoing transition of {pass_counter} steps at waypoint {step}",
                step=step,
            )
        chosen.append(best.actions)
        visited.append(best.to_state)
        current = best.to_state
        pass_counter = 1

    final_target = desired.waypoints[-1][0]
    miss = tuple(
        math.degrees(current.pos_idx[i] * robot.joints[i].delta_q - final_target[i])
        for i in range(n)
    )
    warnings = []
    for i, j in enumerate(robot.joints):
        if abs(current.pos_idx[i] * j.delta_q - final_target[i]) > j.delta_q:
            warnings.append(
                f"joint {j.name}: final target missed by {miss[i]:.3f} deg"
            )
    return PlanResult(
        sequences=tuple(chosen),
        visited=tuple(visited),
        final_state=current,
        miss_deg=miss,
        warnings=tuple(warnings),
    )


def write_plan_json(result: PlanResult, fh: IO[str]) -> None:
    obj = {
        "sequences": [[list(a) for a in seq] for seq in result.sequences],
        "final_state": {
            "pos": list(result.final_state.pos_idx),
            "vel": list(result.final_state.vel_idx),
        },
        "miss_deg": list(result.miss_deg),
    }
    if result.warnings:
        obj["warnings"] = list(result.warnings)
    fh.write(json.dumps(obj, indent=2) + "\n")
