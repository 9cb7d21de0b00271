"""Breadth-first discovery of atomic transitions over the quantized state grid.

A transition is the shortest torque sequence that moves the robot from one
grid state to a different one, plus "static" self-loops for sequences that
sit still for the full exploration horizon and keep sitting still when
replayed. Discovery is a work-list over states: each state is expanded
exactly once, and sequences grow breadth-first so the first recording per
outcome is the shortest.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import deque
from dataclasses import dataclass, field
from typing import IO, Iterable

import numpy as np

from .errors import BudgetExceeded, ConfigError, OutOfRange, UnknownState
from .dynamics import integrate_step
from .model import (
    Action,
    ActionSequence,
    ContinuousState,
    QuantizedState,
    RobotSpec,
    representative,
    quantize,
)

DEFAULT_NAL = 25
DEFAULT_MAX_STATES = 1_000_000
DEFAULT_MAX_SEQUENCES = 10_000_000
# total replays a static candidate must survive before it is recorded
STATIC_HOLD_REPS = 5

JSONL_FORMAT = "dtraj-transitions"
JSONL_VERSION = 1


@dataclass(frozen=True)
class Transition:
    from_state: QuantizedState
    actions: ActionSequence
    duration: float
    to_state: QuantizedState

    def is_static(self) -> bool:
        return self.from_state == self.to_state


@dataclass(frozen=True)
class EdgeIndex:
    """The transition graph over state indices, in compressed-row form.

    Row i holds the transitions out of state i in table order, so
    dst[row_start[i]:row_start[i + 1]] are their destination state indices.
    """

    dst: np.ndarray
    row_start: np.ndarray
    max_out_degree: int


@dataclass
class TransitionTable:
    """States in discovery order plus their outgoing transitions.

    The ordering is canonical: states appear in the order the search first
    reached them, transitions in the order the search recorded them. Two runs
    over the same robot produce byte-identical tables.
    """

    robot_hash: str
    states: tuple[QuantizedState, ...]
    transitions: tuple[Transition, ...]
    _index: dict = field(default_factory=dict, repr=False, compare=False)
    _out: dict = field(default_factory=dict, repr=False, compare=False)
    _edges: EdgeIndex | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self._index = {s.key(): i for i, s in enumerate(self.states)}
        self._out = {s.key(): [] for s in self.states}
        for t in self.transitions:
            self._out[t.from_state.key()].append(t)

    def state_index(self, state: QuantizedState) -> int:
        try:
            return self._index[state.key()]
        except KeyError:
            raise UnknownState(f"state {state} not in table") from None

    def outgoing(self, state: QuantizedState) -> list[Transition]:
        self.state_index(state)
        return self._out[state.key()]

    def edge_index(self) -> EdgeIndex:
        """The integer edge index, built on first use (discovery never needs it)."""
        if self._edges is None:
            n = len(self.states)
            src = np.fromiter((self._index[t.from_state.key()] for t in self.transitions),
                              dtype=np.int64, count=len(self.transitions))
            dst = np.fromiter((self._index[t.to_state.key()] for t in self.transitions),
                              dtype=np.int64, count=len(self.transitions))
            degree = np.bincount(src, minlength=n)
            row_start = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(degree, out=row_start[1:])
            self._edges = EdgeIndex(
                dst=dst[np.argsort(src, kind="stable")],
                row_start=row_start,
                max_out_degree=int(degree.max(initial=0)),
            )
        return self._edges

    def restrict_to_first(self, k: int) -> "TransitionTable":
        """Subtable over the first k states; only edges staying inside survive."""
        keep = self.states[:k]
        keys = {s.key() for s in keep}
        kept = tuple(
            t for t in self.transitions
            if t.from_state.key() in keys and t.to_state.key() in keys
        )
        return TransitionTable(self.robot_hash, keep, kept)


def _action_space(robot: RobotSpec) -> list[Action]:
    ranges = [range(len(j.torques)) for j in robot.joints]
    return [tuple(a) for a in itertools.product(*ranges)]


def _static_hold(
    s: QuantizedState, seq: ActionSequence, cont: ContinuousState, robot: RobotSpec
) -> bool:
    """Decide whether a horizon-surviving sequence really holds its state.

    A sequence can pin the quantized state for one pass yet creep within the
    cell and escape when repeated, so surviving the horizon once is not
    enough. `cont` is the continuous state after the first pass; the sequence
    is replayed until STATIC_HOLD_REPS total passes, and after every pass each
    joint must sit within one resolution cell of its starting angle.
    """
    anchor = representative(s, robot)
    state = cont
    for _ in range(STATIC_HOLD_REPS - 1):
        for a in seq:
            state = integrate_step(state, a, robot)
            for k, j in enumerate(robot.joints):
                if not (j.q_min <= state.q[k] <= j.q_max):
                    return False
                if not (j.v_min <= state.v[k] <= j.v_max):
                    return False
        for k, j in enumerate(robot.joints):
            if abs(state.q[k] - anchor.q[k]) >= j.delta_q:
                return False
    return True


def find_transitions(
    robot: RobotSpec,
    start: QuantizedState | None = None,
    nal: int = DEFAULT_NAL,
    dedup: str = "all",
    max_states: int = DEFAULT_MAX_STATES,
    max_sequences: int = DEFAULT_MAX_SEQUENCES,
) -> TransitionTable:
    """Discover every atomic transition reachable from `start`.

    From each state, candidate torque sequences grow breadth-first, torque
    vectors in lexicographic index order. A simulated tick that leaves the
    continuous limits kills its sequence. A changed quantized endpoint records
    a transition and stops growing; an unchanged endpoint keeps growing until
    `nal` ticks, at which point the sequence is recorded as a static self-loop
    provided it also holds under repetition (see _static_hold). Equality is on
    the full kinematic state, so a velocity-only change also terminates a
    sequence as a transition.

    dedup: "all" records every sequence per (from, to) outcome; "shortest"
    keeps only the first (breadth-first order makes it a shortest one).
    """
    robot.validate()
    if nal < 1:
        raise ConfigError("nal must be >= 1")
    if dedup not in ("all", "shortest"):
        raise ConfigError(f"unknown dedup mode {dedup!r}")
    if start is None:
        z = (0,) * robot.n_joints
        start = QuantizedState(z, z)
    # reject starts off the grid
    quantize(representative(start, robot), robot)

    actions = _action_space(robot)
    states: list[QuantizedState] = [start]
    seen: set = {start.key()}
    transitions: list[Transition] = []
    seen_pairs: set = set()
    simulated = 0

    def record(frm: QuantizedState, seq: ActionSequence, to: QuantizedState) -> None:
        if dedup == "shortest":
            pair = (frm.key(), to.key())
            if pair in seen_pairs:
                return
            seen_pairs.add(pair)
        transitions.append(
            Transition(frm, seq, len(seq) * robot.delta_t, to)
        )

    i = 0
    while i < len(states):
        s = states[i]
        i += 1
        root = representative(s, robot)
        # queue entries: (sequence so far, continuous state before its last action)
        queue: deque[tuple[ActionSequence, ContinuousState]] = deque(
            ((a,), root) for a in actions
        )
        while queue:
            seq, prev = queue.popleft()
            simulated += 1
            if simulated > max_sequences:
                raise BudgetExceeded(
                    f"simulated sequences exceeded budget {max_sequences}"
                )
            cont = integrate_step(prev, seq[-1], robot)
            ok = True
            for k, j in enumerate(robot.joints):
                if not (j.q_min <= cont.q[k] <= j.q_max):
                    ok = False
                    break
                if not (j.v_min <= cont.v[k] <= j.v_max):
                    ok = False
                    break
            if not ok:
                continue
            try:
                q = quantize(cont, robot)
            except OutOfRange:
                continue
            if q != s:
                record(s, seq, q)
                if q.key() not in seen:
                    if len(states) + 1 > max_states:
                        raise BudgetExceeded(
                            f"discovered states exceeded budget {max_states}"
                        )
                    seen.add(q.key())
                    states.append(q)
            elif len(seq) < nal:
                for a in actions:
                    queue.append((seq + (a,), cont))
            elif _static_hold(s, seq, cont, robot):
                record(s, seq, s)

    return TransitionTable(robot.content_hash(), tuple(states), tuple(transitions))


def atomic_action_count(table: TransitionTable, state: QuantizedState) -> int:
    """Outgoing-transition count; measures how state-dependent the action set is."""
    return len(table.outgoing(state))


# ---------------------------------------------------------------------------
# serialization


def _state_to_json(s: QuantizedState) -> dict:
    return {"pos": list(s.pos_idx), "vel": list(s.vel_idx)}


def _state_from_json(obj: dict) -> QuantizedState:
    pos, vel = tuple(obj["pos"]), tuple(obj["vel"])
    if len(pos) != len(vel):
        raise ValueError(f"state has {len(pos)} pos and {len(vel)} vel entries")
    return QuantizedState(pos, vel)


def _transition_from_json(obj: dict, n_joints: int | None) -> Transition:
    """One JSONL line as a transition; ValueError says what is malformed.

    n_joints is the joint count every state and action must have, or None
    to take it from this line's from-state.
    """
    frm = _state_from_json(obj["from"])
    to = _state_from_json(obj["to"])
    n = len(frm.pos_idx) if n_joints is None else n_joints
    if n < 1:
        raise ValueError("state has no joints")
    if len(frm.pos_idx) != n or len(to.pos_idx) != n:
        raise ValueError(
            f"states have {len(frm.pos_idx)} and {len(to.pos_idx)} joints, expected {n}"
        )
    seq = tuple(tuple(int(x) for x in a) for a in obj["torque_idx_seq"])
    if not seq:
        raise ValueError("torque_idx_seq is empty")
    for a in seq:
        if len(a) != n:
            raise ValueError(f"action {list(a)} has {len(a)} torque indices for {n} joints")
        if min(a) < 0:
            raise ValueError(f"action {list(a)} has a negative torque index")
    dur = float(obj["duration_s"])
    if not (math.isfinite(dur) and dur > 0):
        raise ValueError(f"duration_s must be positive and finite, got {dur}")
    return Transition(frm, seq, dur, to)


def write_jsonl(table: TransitionTable, fh: IO[str]) -> None:
    header = {
        "format": JSONL_FORMAT,
        "version": JSONL_VERSION,
        "robot_hash": table.robot_hash,
    }
    fh.write(json.dumps(header, sort_keys=True) + "\n")
    for t in table.transitions:
        line = {
            "from": _state_to_json(t.from_state),
            "torque_idx_seq": [list(a) for a in t.actions],
            "duration_s": t.duration,
            "to": _state_to_json(t.to_state),
        }
        fh.write(json.dumps(line) + "\n")


def read_jsonl(fh: IO[str]) -> TransitionTable:
    """Rebuild a table from its line format.

    State order is first appearance in the stream (from before to per line),
    which coincides with discovery order for tables written by this module.
    Every line must have a nonempty torque sequence of nonnegative indices,
    one per joint, a positive finite duration, and states with the first
    line's joint count; anything else is a ConfigError naming the line.
    """
    first = fh.readline()
    if not first:
        raise ConfigError("empty transitions file")
    try:
        header = json.loads(first)
    except json.JSONDecodeError as e:
        raise ConfigError(f"bad transitions header: {e}") from None
    if not isinstance(header, dict) or header.get("format") != JSONL_FORMAT:
        raise ConfigError("not a transitions file (missing format header)")
    if header.get("version") != JSONL_VERSION:
        raise ConfigError(f"unsupported transitions version {header.get('version')!r}")
    robot_hash = header.get("robot_hash", "")

    states: list[QuantizedState] = []
    seen: set = set()
    transitions: list[Transition] = []

    def register(s: QuantizedState) -> None:
        if s.key() not in seen:
            seen.add(s.key())
            states.append(s)

    n_joints = None
    for lineno, raw in enumerate(fh, start=2):
        raw = raw.strip()
        if not raw:
            continue
        try:
            t = _transition_from_json(json.loads(raw), n_joints)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"bad transition on line {lineno}: {e}") from None
        n_joints = len(t.from_state.pos_idx)
        register(t.from_state)
        register(t.to_state)
        transitions.append(t)
    return TransitionTable(robot_hash, tuple(states), tuple(transitions))


# ---------------------------------------------------------------------------
# DOT export


def state_label(s: QuantizedState) -> str:
    return " ".join(str(p) for p in s.pos_idx) + "," + " ".join(str(v) for v in s.vel_idx)


def _rle_actions(seq: ActionSequence) -> str:
    # run-length summary, e.g. torque-index vector (2,) held 25 ticks -> "2*25"
    parts = []
    for a, group in itertools.groupby(seq):
        k = len(list(group))
        name = "/".join(str(x) for x in a)
        parts.append(name if k == 1 else f"{name}*{k}")
    return " ".join(parts)


def export_dot(table: TransitionTable) -> str:
    lines = ["digraph transitions {"]
    for i, s in enumerate(table.states):
        lines.append(f'  n{i} [label="{state_label(s)}"];')
    for t in table.transitions:
        a = table.state_index(t.from_state)
        b = table.state_index(t.to_state)
        lines.append(f'  n{a} -> n{b} [label="{_rle_actions(t.actions)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
