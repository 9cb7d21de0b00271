"""Walk enumeration, exact walk counting, and greedy tracking over a transition table.

Trajectories here are graph walks: each hop is one recorded transition, so a
hop can cover several control ticks. Enumeration streams every walk of an
exact hop count, after counting them exactly, in pure Python, forward from
its starts. The counter gets the same numbers for every state, exact at
any size, by repeated adjacency application over the table's integer edge
index in numpy. The planner greedily tracks a desired configuration path,
matching transition durations to the time elapsed since it last moved.
"""

from __future__ import annotations

import csv
import json
import math
from typing import IO, Iterator, NamedTuple, Sequence

from .errors import BudgetExceeded, ConfigError, DomainError, NoFeasibleTransition
from .model import (
    DEFAULT_ENUM_BUDGET,
    ActionSequence,
    ContinuousState,
    QuantizedState,
    RobotSpec,
    check_count_work,
    format_count,
    quantize,
)
from .transitions import TransitionTable, _state_to_json

# a target counts as reached while the offset is below one resolution unit;
# the epsilon absorbs float noise in degree -> radian -> grid arithmetic
_MOVE_THRESHOLD = 1.0 - 1e-9


class Trajectory(tuple):
    """Walk through the table: the states it visits, the start first."""

    def states(self) -> tuple[QuantizedState, ...]:
        return self


def count_trajectories(table: TransitionTable, n_steps: int) -> dict[QuantizedState, int]:
    """Exact number of n_steps-hop walks out of every state (multi-edges counted).

    Each hop sums, per state, the counts at the destinations of its outgoing
    transitions: in int64 while max(counts) * max out-degree, the most a sum
    can reach, fits, then in Python integers, so counts stay exact at any
    size. Work past model.check_count_work's budget, pricing each count at
    max out-degree ** n_steps, is refused before it starts.
    """
    import numpy as np

    if n_steps < 0:
        raise DomainError("n_steps must be >= 0")
    dst, row_start = table.edge_index()
    max_degree = table.max_out_degree
    check_count_work(f"counting {n_steps}-hop walks over {len(dst)} transitions",
                     n_steps, len(dst), max_degree)
    counts = np.ones(len(table.states), dtype=np.int64)
    # a row's segment of dst starts at its row start; reduceat needs the
    # nonempty rows only, and rows without transitions stay 0
    rows = np.flatnonzero(np.diff(row_start))
    starts = row_start[rows]
    for _ in range(n_steps):
        if counts.dtype != object and int(counts.max(initial=0)) * max_degree > 2 ** 63 - 1:
            counts = counts.astype(object)
        nxt = np.zeros_like(counts)
        nxt[rows] = np.add.reduceat(counts[dst], starts)
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
    against the budget up front, exactly, pushed forward from the starts
    (see _count_walks), so a caller never receives a truncated stream.
    `starts` is read once, so an iterator serves as well as a list.

    How a walk is built: the search steps over the table's destination ids
    (`destinations()`) and keeps its path as a list of states, so it builds
    no transition. Once the path is one hop short, its states become one
    prefix tuple, and each destination of its last state extends that prefix
    by one state: one prefix per batch of at most max out-degree walks.
    Shorter paths build no tuple, which would copy the path at every hop.
    """
    starts = tuple(starts)
    if n_steps < 0:
        raise DomainError("n_steps must be >= 0")
    ids = [table.state_index(s) for s in starts]
    planned = _count_walks(table, ids, n_steps)
    if planned > budget:
        raise BudgetExceeded(
            f"enumeration would yield {format_count(planned)} trajectories, budget is {budget}"
        )

    if n_steps == 0:
        yield from (Trajectory((s,)) for s in starts)
        return
    dests, states = table.destinations(), table.states
    for s, i in zip(starts, ids):
        # depth-first with an explicit stack, as a walk may outgrow the recursion
        # limit: branches[k] holds the destination ids out of path[k] not yet taken
        path, branches = [s], [iter(dests[i])]
        while branches:
            if len(path) < n_steps:
                d = next(branches[-1], None)
                if d is not None:
                    path.append(states[d])
                    branches.append(iter(dests[d]))
                    continue
            else:
                prefix = tuple(path)
                yield from [Trajectory(prefix + (states[d],)) for d in branches[-1]]
            path.pop()
            branches.pop()


def _count_walks(table: TransitionTable, ids: Sequence[int], n_steps: int) -> int:
    """Exact number of n_steps-hop walks out of the state ids `ids`; a repeated id counts again.

    Pure Python, pushed forward from the starts: counts[i] walks so far end
    at state i, one of the `live` states. Each hop but the last adds each
    live count to its state's destinations, the last sums count * out-degree,
    and the push stops once no walk is left. model.check_count_work admits
    the work as it does for count_trajectories.
    """
    dests = table.destinations()
    check_count_work(f"counting {n_steps}-hop walks over {len(table)} transitions",
                     n_steps, len(table), table.max_out_degree)
    if n_steps == 0:
        return len(ids)
    counts, nxt = [0] * len(dests), [0] * len(dests)
    for i in ids:
        counts[i] += 1
    live = set(ids)
    for _ in range(n_steps - 1):
        if not live:
            break
        reached = []
        for i in live:
            # a count leaves its state, so counts is all 0 again when it becomes nxt
            c, counts[i] = counts[i], 0
            for d in dests[i]:
                if not nxt[d]:
                    reached.append(d)
                nxt[d] += c
        counts, nxt, live = nxt, counts, reached
    return sum(counts[i] * len(dests[i]) for i in live)


# ---------------------------------------------------------------------------
# desired trajectories and the greedy planner


class DesiredTrajectory:
    """Configuration targets over time; radians, seconds, strictly increasing from 0."""

    def __init__(self, waypoints: tuple[tuple[tuple[float, ...], float], ...]):
        if not waypoints:
            raise DomainError("desired trajectory is empty")
        if abs(waypoints[0][1]) > 1e-12:
            raise DomainError("desired trajectory must start at t = 0")
        if any(len(q) != len(waypoints[0][0]) for q, _ in waypoints):
            raise DomainError("inconsistent joint count in desired trajectory")
        if any(t1 <= t0 for (_, t0), (_, t1) in zip(waypoints, waypoints[1:])):
            raise DomainError("desired trajectory times must strictly increase")
        self.waypoints = waypoints


def load_desired_csv(fh: IO[str]) -> DesiredTrajectory:
    """Read `t_s,q1_deg[,q2_deg,...]` rows of finite numbers; angles converted to radians."""
    reader = csv.reader(fh)
    try:
        lines = list(reader)
    except csv.Error as e:    # a field past csv's size limit, say
        raise ConfigError(f"line {reader.line_num}: {e}") from None
    if not lines:
        raise ConfigError("empty desired-trajectory file")
    header = [h.strip() for h in lines[0]]
    if not header or header[0] != "t_s":
        raise ConfigError("desired-trajectory header must start with t_s")
    for k, name in enumerate(header[1:], start=1):
        if name != f"q{k}_deg":
            raise ConfigError(f"column {k + 1} must be named q{k}_deg, got {name!r}")
    if len(header) < 2:
        raise ConfigError("desired trajectory needs at least one joint column")
    rows = []
    for lineno, row in enumerate(lines[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise ConfigError(f"line {lineno}: expected {len(header)} fields")
        try:
            t, *q_deg = map(float, row)
        except ValueError as e:
            raise ConfigError(f"line {lineno}: {e}") from None
        if not all(map(math.isfinite, (t, *q_deg))):
            raise ConfigError(f"line {lineno}: t_s and every angle must be finite")
        rows.append((tuple(map(math.radians, q_deg)), t))
    return DesiredTrajectory(tuple(rows))


class PlanResult(NamedTuple):
    sequences: tuple[ActionSequence, ...]
    visited: tuple[QuantizedState, ...]
    final_state: QuantizedState
    miss_deg: tuple[float, ...]
    warnings: tuple[str, ...]


def _offset_units(
    pos_idx: Sequence[int], target: Sequence[float], robot: RobotSpec
) -> float:
    # worst joint's distance to target, in units of that joint's resolution
    return max(abs(p * j.delta_q - q) / j.delta_q
               for p, j, q in zip(pos_idx, robot.joints, target))


def plan_action_sequence(
    table: TransitionTable, desired: DesiredTrajectory, robot: RobotSpec
) -> PlanResult:
    """Greedy tracking of a desired configuration path.

    Waypoints must sit on consecutive control ticks, each to within a
    millionth of a tick. While the upcoming target is within one resolution
    unit of the current configuration, the planner waits and lets its
    duration window grow; once the target is farther away, it picks, among
    the outgoing transitions whose step count equals the window, the one
    whose endpoint is nearest the target (ties: first in table order),
    commits it, and resets the window. Missing candidates raise
    NoFeasibleTransition with the waypoint index; a final configuration more
    than one resolution unit from the last target is reported as a warning,
    not an error.
    """
    robot.validate()
    n = robot.n_joints
    if len(desired.waypoints[0][0]) != n:
        raise DomainError("desired trajectory joint count does not match robot")
    for k, (_, t) in enumerate(desired.waypoints):
        if abs(t - k * robot.delta_t) > 1e-6 * robot.delta_t:
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
        window = [t for t in table.outgoing(current) if len(t.actions) == pass_counter]
        if not window:
            raise NoFeasibleTransition(
                f"no outgoing transition of {pass_counter} steps at waypoint {step}",
                step=step,
            )
        # the nearest endpoint; min keeps the first in table order on a tie
        best = min(window, key=lambda t: _offset_units(t.to_state.pos_idx, target, robot))
        chosen.append(best.actions)
        visited.append(best.to_state)
        current = best.to_state
        pass_counter = 1

    offsets = [p * j.delta_q - q
               for p, j, q in zip(current.pos_idx, robot.joints, desired.waypoints[-1][0])]
    miss = tuple(map(math.degrees, offsets))
    warnings = tuple(f"joint {j.name}: final target missed by {m:.3f} deg"
                     for j, off, m in zip(robot.joints, offsets, miss) if abs(off) > j.delta_q)
    return PlanResult(tuple(chosen), tuple(visited), current, miss, warnings)


def write_plan_json(result: PlanResult, fh: IO[str]) -> None:
    obj = {
        "sequences": [[list(a) for a in seq] for seq in result.sequences],
        "final_state": _state_to_json(result.final_state),
        "miss_deg": list(result.miss_deg),
    }
    if result.warnings:
        obj["warnings"] = list(result.warnings)
    fh.write(json.dumps(obj, indent=2) + "\n")
