"""Breadth-first discovery of atomic transitions over the quantized state grid.

A transition is the shortest torque sequence that moves the robot from one
grid state to a different one, plus "static" self-loops for sequences that
sit still for the full exploration horizon and keep sitting still when
replayed. Each state's sequences grow breadth-first, so the first recording
per outcome is the shortest. Discovery runs every state's sequence tree at
once as one frontier of numpy arrays, one tick per step, then orders the
table as a state-by-state search would, so tables and their bytes do not
depend on how the search was scheduled.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import IO, Iterable

import numpy as np

from .errors import BudgetExceeded, ConfigError, NumericalOverflow, UnknownState
from .dynamics import integrate_joint, integrate_step, joint_params
from .model import (
    _GRID_FIT_TOL,
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


def _quantize_columns(qs: list, vs: list, robot: RobotSpec) -> tuple[np.ndarray, np.ndarray]:
    """`quantize` over the states held as per-joint columns qs[i], vs[i].

    Returns (on_grid, cells): the mask of states whose grid point lies within
    the limits, and a (states, 2 * joints) float array of their position then
    velocity indices (meaningless off the grid). Rounding and tolerance are
    `quantize`'s, elementwise.
    """
    n = robot.n_joints
    on_grid = np.ones(len(qs[0]), dtype=bool)
    cells = np.empty((len(qs[0]), 2 * n))
    for i, j in enumerate(robot.joints):
        for col, x, step, lo, hi in ((i, qs[i], j.delta_q, j.q_min, j.q_max),
                                     (n + i, vs[i], robot.delta_v(i), j.v_min, j.v_max)):
            x = x / step
            idx = np.where(x >= 0, np.floor(x + 0.5), np.ceil(x - 0.5))
            on_grid &= (lo - _GRID_FIT_TOL <= idx * step) & (idx * step <= hi + _GRID_FIT_TOL)
            cells[:, col] = idx
    return on_grid, cells


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

    Every state's sequence tree grows at once: one frontier holds the pending
    sequences of every state found so far, and each tick integrates all of
    them as arrays through `integrate_joint`, one joint column at a time. A
    state's tree starts on the tick after the state is first reached. The
    table is then put in the order a state-by-state search would give: states
    in order of first discovery when each state's tree is searched in turn,
    each state's transitions by sequence length, then breadth-first position.

    dedup: "all" records every sequence per (from, to) outcome; "shortest"
    keeps only the first (breadth-first order makes it a shortest one).
    max_sequences bounds the sequences simulated (each tick of each one
    counts once) and is checked before a tick runs; max_states bounds the
    states found. Either raises BudgetExceeded with the progress so far.
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

    n = robot.n_joints
    actions = _action_space(robot)
    n_act = len(actions)
    torque = [np.array(j.torques)[[a[i] for a in actions]] for i, j in enumerate(robot.joints)]
    params = [joint_params(robot, i) for i in range(n)]

    # states by id in the order the frontier first reached them
    states: list[QuantizedState] = []
    ids: dict = {}
    records: list[list] = []     # per state id: (sequence, destination id), per-tree BFS order
    seen_pairs: set = set()
    simulated = 0

    def progress() -> str:
        return f"{simulated} sequences simulated, {len(states)} states found so far"

    def add_state(s: QuantizedState) -> int:
        if len(states) + 1 > max_states:
            raise BudgetExceeded(f"discovered states exceeded budget {max_states} ({progress()})")
        ids[s.key()] = len(states)
        states.append(s)
        records.append([])
        return len(states) - 1

    # the frontier: one row per pending sequence, holding its tree (state id),
    # length, last action, the continuous state before that action, and the
    # index of its prefix in `prefixes` (the last entry is the empty prefix)
    new_ids = [add_state(start)]
    tree = depth = act = parent = np.empty(0, dtype=np.int64)
    q0 = [np.empty(0)] * n
    v0 = [np.empty(0)] * n
    prefixes: list[ActionSequence] = [()]
    while True:
        if new_ids:
            roots = [representative(states[k], robot) for k in new_ids]
            k_new = len(new_ids) * n_act
            tree = np.concatenate([tree, np.repeat(new_ids, n_act)])
            depth = np.concatenate([depth, np.ones(k_new, dtype=np.int64)])
            act = np.concatenate([act, np.tile(np.arange(n_act), len(new_ids))])
            parent = np.concatenate([parent, np.full(k_new, len(prefixes) - 1)])
            q0 = [np.concatenate([q0[i], np.repeat([r.q[i] for r in roots], n_act)]) for i in range(n)]
            v0 = [np.concatenate([v0[i], np.repeat([r.v[i] for r in roots], n_act)]) for i in range(n)]
            home = np.array([s.pos_idx + s.vel_idx for s in states], dtype=np.float64)
        if len(tree) == 0:
            break
        if simulated + len(tree) > max_sequences:
            raise BudgetExceeded(
                f"simulated sequences would exceed budget {max_sequences} ({progress()})"
            )
        simulated += len(tree)

        qs, vs = [], []
        with np.errstate(all="ignore"):
            for i, j in enumerate(robot.joints):
                q, v = integrate_joint(q0[i], v0[i], torque[i][act], params[i], robot.delta_t,
                                       sin=np.sin)
                if not (np.isfinite(q).all() and np.isfinite(v).all()):
                    raise NumericalOverflow(f"joint {j.name}: non-finite state after integration")
                qs.append(q)
                vs.append(v)
        ok = np.ones(len(tree), dtype=bool)
        for i, j in enumerate(robot.joints):
            ok &= (j.q_min <= qs[i]) & (qs[i] <= j.q_max) & (j.v_min <= vs[i]) & (vs[i] <= j.v_max)
        on_grid, cells = _quantize_columns(qs, vs, robot)
        ok &= on_grid
        moved = ok & (cells != home[tree]).any(axis=1)
        grow = ok & ~moved & (depth < nal)
        settled = np.flatnonzero(moved | (ok & (depth >= nal)))

        par, last = parent.tolist(), act.tolist()

        def sequence(p: int) -> ActionSequence:
            return prefixes[par[p]] + (actions[last[p]],)

        new_ids = []
        trees, moves = tree[settled].tolist(), moved[settled].tolist()
        for p, frm, is_move, cell in zip(settled.tolist(), trees, moves,
                                         cells[settled].astype(np.int64).tolist()):
            seq = sequence(p)
            if is_move:
                key = (tuple(cell[:n]), tuple(cell[n:]))
                to = ids.get(key)
                if to is None:
                    to = add_state(QuantizedState(*key))
                    new_ids.append(to)
            else:
                cont = ContinuousState(tuple(float(q[p]) for q in qs),
                                       tuple(float(v[p]) for v in vs))
                if not _static_hold(states[frm], seq, cont, robot):
                    continue
                to = frm
            if dedup == "shortest":
                if (frm, to) in seen_pairs:
                    continue
                seen_pairs.add((frm, to))
            records[frm].append((seq, to))

        kept = np.flatnonzero(grow)
        prefixes = [sequence(p) for p in kept.tolist()] + [()]
        tree = np.repeat(tree[kept], n_act)
        depth = np.repeat(depth[kept] + 1, n_act)
        act = np.tile(np.arange(n_act), len(kept))
        parent = np.repeat(np.arange(len(kept)), n_act)
        q0 = [np.repeat(q[kept], n_act) for q in qs]
        v0 = [np.repeat(v[kept], n_act) for v in vs]

    # replay the state-by-state order: searching the trees in turn, a state
    # joins the table when it is first reached
    order = [0]
    placed = [False] * len(states)
    placed[0] = True
    for frm in order:
        for _, to in records[frm]:
            if not placed[to]:
                placed[to] = True
                order.append(to)
    ordered = tuple(states[k] for k in order)
    transitions = tuple(
        Transition(states[frm], seq, len(seq) * robot.delta_t, states[to])
        for frm in order for seq, to in records[frm]
    )
    return TransitionTable(robot.content_hash(), ordered, transitions)


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


def _transition_from_json(obj: dict, n_joints: int | None, tick: float | None) -> Transition:
    """One JSONL line as a transition; ValueError says what is malformed.

    n_joints is the joint count every state and action must have, and tick
    the duration of one action, or None to take them from this line.
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
    if tick is not None and abs(dur - len(seq) * tick) > 1e-9 * len(seq) * tick:
        raise ValueError(f"duration_s {dur} is not {len(seq)} ticks of {tick} s")
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
    one per joint, a positive finite duration that is its length times the
    first line's per-action duration (to a relative 1e-9), and states with the
    first line's joint count; anything else is a ConfigError naming the line.
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

    n_joints = tick = None
    for lineno, raw in enumerate(fh, start=2):
        raw = raw.strip()
        if not raw:
            continue
        try:
            t = _transition_from_json(json.loads(raw), n_joints, tick)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"bad transition on line {lineno}: {e}") from None
        if tick is None:
            n_joints, tick = len(t.from_state.pos_idx), t.duration / len(t.actions)
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
