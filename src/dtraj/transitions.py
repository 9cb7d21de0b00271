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
import re
from typing import IO, TYPE_CHECKING, NamedTuple

from .errors import BudgetExceeded, ConfigError, NumericalOverflow, UnknownState
from .dynamics import PendulumParams, integrate_frontier, integrate_step
from .model import (
    DEFAULT_MAX_SEQUENCES,
    DEFAULT_MAX_STATES,
    DEFAULT_NAL,
    Action,
    ActionSequence,
    ContinuousState,
    QuantizedState,
    RobotSpec,
    _JSON_ERRORS,
    _is_finite_number,
    _json_message,
    check_on_grid,
    grid_range,
    representative,
)

if TYPE_CHECKING:
    import numpy as np

# total replays a static candidate must survive before it is recorded
STATIC_HOLD_REPS = 5

JSONL_FORMAT = "dtraj-transitions"
JSONL_VERSION = 1


class Transition(NamedTuple):
    """A torque sequence moving `from_state` to `to_state`; a named tuple, built in C."""

    from_state: QuantizedState
    actions: ActionSequence
    duration: float
    to_state: QuantizedState

    def is_static(self) -> bool:
        return self.from_state == self.to_state


class TransitionTable:
    """States in discovery order plus their outgoing transitions.

    The ordering is canonical: states appear in the order the search first
    reached them, transitions in the order the search recorded them. Two runs
    over the same robot produce byte-identical tables, and tables are equal
    when their robot_hash, states and transitions are. A transition from or to
    a state outside `states` raises UnknownState when the table is built.
    """

    def __init__(self, robot_hash: str, states: tuple[QuantizedState, ...],
                 transitions: tuple[Transition, ...]):
        self.robot_hash, self.states, self.transitions = robot_hash, states, transitions
        index = self._index = {s: i for i, s in enumerate(states)}
        # per state id, its transitions and their destination ids, in table order
        out = self._out = [[] for _ in states]
        dst = self._dst = [[] for _ in states]
        self._edges = None
        for k, t in enumerate(transitions):
            try:
                i = index[t.from_state]
                dst[i].append(index[t.to_state])
            except KeyError:
                lost = t.to_state if t.from_state in index else t.from_state
                raise UnknownState(f"transition {k}: state {lost} not in table") from None
            out[i].append(t)
        # the most transitions out of one state, which prices a walk count
        self.max_out_degree = max(map(len, dst), default=0)

    def __eq__(self, other):
        if not isinstance(other, TransitionTable):
            return NotImplemented
        return ((self.robot_hash, self.states, self.transitions)
                == (other.robot_hash, other.states, other.transitions))

    def state_index(self, state: QuantizedState) -> int:
        try:
            return self._index[state]
        except KeyError:
            raise UnknownState(f"state {state} not in table") from None

    def outgoing(self, state: QuantizedState) -> list[Transition]:
        return self._out[self.state_index(state)]

    def destinations(self) -> list[list[int]]:
        """Per state id, the destination ids of its transitions, in table order.

        The rows are the table's own, to be read and not changed.
        """
        return self._dst

    def edge_index(self) -> tuple[np.ndarray, np.ndarray]:
        """The graph over state ids in compressed-row form, built on first use.

        (dst, row_start): dst[row_start[i]:row_start[i + 1]] are the
        destination ids of state i's transitions, in table order.
        """
        if self._edges is None:
            import numpy as np

            dst = np.array(list(itertools.chain.from_iterable(self._dst)), dtype=np.int64)
            row_start = np.array([0, *itertools.accumulate(map(len, self._dst))], dtype=np.int64)
            self._edges = dst, row_start
        return self._edges

    def restrict_to_first(self, k: int) -> "TransitionTable":
        """Subtable over the first k >= 0 states; only edges staying inside survive."""
        index = self._index    # the first k states are ids 0..k-1
        kept = tuple(t for t in self.transitions
                     if index[t.from_state] < k and index[t.to_state] < k)
        return TransitionTable(self.robot_hash, self.states[:k], kept)


def _action_space(robot: RobotSpec) -> list[Action]:
    return list(itertools.product(*(range(len(j.torques)) for j in robot.joints)))


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
            if not all(j.within_limits(q, v) for j, q, v in zip(robot.joints, state.q, state.v)):
                return False
        for k, j in enumerate(robot.joints):
            if abs(state.q[k] - anchor.q[k]) >= j.delta_q:
                return False
    return True


def _quantize_columns(ends: np.ndarray, robot: RobotSpec) -> tuple[np.ndarray, np.ndarray]:
    """`quantize` over a (states, 2 * joints) array of positions then velocities.

    Returns (on_grid, cells): the mask of states whose grid point lies within
    `grid_range`, and the same-shape float array of their position then
    velocity indices (meaningless off the grid). Rounding and the grid are
    `quantize`'s, elementwise.
    """
    import numpy as np

    grids = [robot.grids(i)[k] for k in (0, 1) for i in range(robot.n_joints)]
    x = ends / np.array([step for _, _, step in grids])
    cells = np.where(x >= 0, np.floor(x + 0.5), np.ceil(x - 0.5))
    first, last = np.array([grid_range(*g) for g in grids], dtype=np.float64).T
    return ((first <= cells) & (cells <= last)).all(axis=1), cells


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
    sequences of every state found so far, a (rows, 2 * joints) array, and
    each tick integrates all of them in one call of `integrate_frontier`,
    the array kernel that is bitwise the scalar RK4 of `integrate_joint`
    wherever `np.sin` and `math.sin` agree. A state's tree starts on the
    tick after the state is first reached, from its cell centre: its index
    row times the grid steps, appended to the rows of the states found
    before it. A settled sequence becomes its state's next `Transition` on
    the tick it settles. The table is then put in the order a state-by-state
    search would give: states in order of first discovery when each state's
    tree is searched in turn, each state's transitions by sequence length,
    then breadth-first position.

    dedup: "all" records every sequence per (from, to) outcome; "shortest"
    keeps only the first (breadth-first order makes it a shortest one).
    max_sequences bounds the sequences simulated (each tick of each one
    counts once) and is checked before a tick runs; max_states bounds the
    states found. Either raises BudgetExceeded with the progress so far.
    """
    import numpy as np

    robot.validate()
    if nal < 1:
        raise ConfigError("nal must be >= 1")
    if dedup not in ("all", "shortest"):
        raise ConfigError(f"unknown dedup mode {dedup!r}")
    if start is None:
        z = (0,) * robot.n_joints
        start = QuantizedState(z, z)
    check_on_grid(start, robot)

    n = robot.n_joints
    actions = _action_space(robot)
    n_act = len(actions)
    torque = np.array([[j.torques[k] for j, k in zip(robot.joints, a)] for a in actions])
    params = PendulumParams(np.array([j.mass for j in robot.joints]),
                            np.array([j.length for j in robot.joints]), robot.gravity)

    # grid steps per column: a cell's index row times these is its centre,
    # bitwise `representative`'s, as every index is below 2^53 in size
    steps = np.array([robot.grids(i)[k][2] for k in (0, 1) for i in range(n)])
    durations = [k * robot.delta_t for k in range(nal + 1)]     # by sequence length

    # states by id in the order the frontier first reached them; ids by index row
    states: list[QuantizedState] = []
    ids: dict = {}
    records: list[list] = []     # per state id: its transitions, in per-tree BFS order
    dests: list[list] = []       # per state id: their destination ids
    seen_pairs: set = set()
    simulated = 0

    def progress() -> str:
        return f"{simulated} sequences simulated, {len(states)} states found so far"

    def add_state(row: tuple) -> int:
        if len(states) + 1 > max_states:
            raise BudgetExceeded(f"discovered states exceeded budget {max_states} ({progress()})")
        ids[row] = len(states)
        states.append(QuantizedState(row[:n], row[n:]))
        records.append([])
        dests.append([])
        return len(states) - 1

    # a tick's parents: the tree (state id) of each pending sequence, the
    # sequence so far and the continuous state it ends in; the states found on
    # a tick join the next tick's parents with the empty sequence at their
    # cell centres, after the growing sequences. One row per parent and action.
    add_state(start.pos_idx + start.vel_idx)
    prefixes: list[ActionSequence] = []
    p_tree = np.empty(0, dtype=np.int64)
    p_ends = np.empty((0, 2 * n))      # end states: joint positions, then velocities
    home = np.empty((0, 2 * n))        # index rows of the states by id
    while True:
        if len(states) > len(home):
            new = np.array([s.pos_idx + s.vel_idx for s in states[len(home):]], dtype=np.float64)
            prefixes += [()] * len(new)
            p_tree = np.concatenate([p_tree, np.arange(len(home), len(states))])
            p_ends = np.concatenate([p_ends, new * steps])
            home = np.concatenate([home, new])
        if not prefixes:
            break
        rows = len(prefixes) * n_act
        if simulated + rows > max_sequences:
            raise BudgetExceeded(f"simulated sequences would exceed budget {max_sequences} "
                                 f"({progress()})")
        simulated += rows
        tree = np.repeat(p_tree, n_act)
        act = np.tile(np.arange(n_act), len(prefixes))
        depth = np.repeat([len(seq) + 1 for seq in prefixes], n_act)

        with np.errstate(all="ignore"):
            ends = np.hstack(integrate_frontier(
                np.repeat(p_ends[:, :n], n_act, axis=0), np.repeat(p_ends[:, n:], n_act, axis=0),
                torque[act], params, robot.delta_t))
        if not (finite := np.isfinite(ends).all(axis=0)).all():
            j = robot.joints[int(np.argmin(finite[:n] & finite[n:]))]
            raise NumericalOverflow(f"joint {j.name}: non-finite state after integration")
        ok, cells = _quantize_columns(ends, robot)
        for i, j in enumerate(robot.joints):
            ok &= j.within_limits(ends[:, i], ends[:, n + i])
        moved = ok & (cells != home[tree]).any(axis=1)
        grow = ok & ~moved & (depth < nal)
        settled = np.flatnonzero(moved | (ok & (depth >= nal)))

        def sequence(p: int) -> ActionSequence:
            return prefixes[p // n_act] + (actions[p % n_act],)

        trees, moves = tree[settled].tolist(), moved[settled].tolist()
        for p, frm, is_move, row in zip(settled.tolist(), trees, moves,
                                        map(tuple, cells[settled].astype(np.int64).tolist())):
            seq = sequence(p)
            if is_move:
                to = ids.get(row)
                if to is None:
                    to = add_state(row)
            else:
                cont = ContinuousState(tuple(ends[p, :n].tolist()), tuple(ends[p, n:].tolist()))
                if not _static_hold(states[frm], seq, cont, robot):
                    continue
                to = frm
            if dedup == "shortest":
                if (frm, to) in seen_pairs:
                    continue
                seen_pairs.add((frm, to))
            records[frm].append(Transition(states[frm], seq, durations[len(seq)], states[to]))
            dests[frm].append(to)

        kept = np.flatnonzero(grow)
        prefixes = [sequence(p) for p in kept.tolist()]
        p_tree = tree[kept]
        p_ends = ends[kept]

    # replay the state-by-state order: searching the trees in turn, a state
    # joins the table when it is first reached
    order = [0]
    placed = [False] * len(states)
    placed[0] = True
    for frm in order:
        for to in dests[frm]:
            if not placed[to]:
                placed[to] = True
                order.append(to)
    return TransitionTable(robot.content_hash(), tuple(states[k] for k in order),
                           tuple(itertools.chain.from_iterable(records[k] for k in order)))


# ---------------------------------------------------------------------------
# serialization


def _state_to_json(s: QuantizedState) -> dict:
    return {"pos": list(s.pos_idx), "vel": list(s.vel_idx)}


def _require_ints(values: tuple, what: str) -> None:
    """ValueError naming the first entry of `values` that is not an int."""
    if not set(map(type, values)) <= {int}:
        bad = next(x for x in values if type(x) is not int)
        raise ValueError(f"{what} {bad!r} is not an integer")


def _state_from_json(obj: dict) -> QuantizedState:
    pos, vel = tuple(obj["pos"]), tuple(obj["vel"])
    _require_ints(pos + vel, "state index")
    if len(pos) != len(vel):
        raise ValueError(f"state has {len(pos)} pos and {len(vel)} vel entries")
    return QuantizedState(pos, vel)


def _sequence_from_json(obj: list, n: int) -> ActionSequence:
    seq = tuple(map(tuple, obj))
    _require_ints(tuple(itertools.chain.from_iterable(seq)), "torque index")
    if not seq:
        raise ValueError("torque_idx_seq is empty")
    for a in seq:
        if len(a) != n:
            raise ValueError(f"action {list(a)} has {len(a)} torque indices for {n} joints")
        if min(a) < 0:
            raise ValueError(f"action {list(a)} has a negative torque index")
    return seq


def _duration_from_json(dur, ticks: int, tick: float | None) -> float:
    """`dur` as seconds; with a tick, it must be `ticks` of them to a relative 1e-9."""
    if not (_is_finite_number(dur) and dur > 0):
        raise ValueError(f"duration_s must be a positive finite number, got {dur!r}")
    dur = float(dur)
    if tick is not None and abs(dur - ticks * tick) > 1e-9 * ticks * tick:
        raise ValueError(f"duration_s {dur} is not {ticks} ticks of {tick} s")
    return dur


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
    seq = _sequence_from_json(obj["torque_idx_seq"], n)
    return Transition(frm, seq, _duration_from_json(obj["duration_s"], len(seq), tick), to)


# what a malformed line raises
_LINE_ERRORS = (KeyError, TypeError, OverflowError, *_JSON_ERRORS)

# a line in write_jsonl's spacing and key order, split into its from-state,
# torque-sequence, duration and to-state texts; states and sequences hold
# integer lists only. It only finds the texts: the checks above decide.
_INTS = r"\[[-0-9, ]*\]"
_STATE = rf'(\{{"pos": {_INTS}, "vel": {_INTS}\}})'
_LINE = re.compile(
    rf'\{{"from": {_STATE}, "torque_idx_seq": (\[(?:{_INTS}(?:, {_INTS})*)?\]), '
    rf'"duration_s": (-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?), "to": {_STATE}\}}')


class _Rendered(dict):
    """The value of each key, made by `render` on its first lookup."""

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, key):
        text = self[key] = self.render(key)
        return text


def write_jsonl(table: TransitionTable, fh: IO[str]) -> None:
    """Write the header line, then one line per transition in table order.

    The header lists the table's states, in order, when some state is on no
    line (a start without transitions, say), and only then, so that state
    is kept and every other table's bytes stay as they were.

    A line is json.dumps of the transition's dict. Each state, distinct torque
    sequence and duration is rendered by json.dumps once per call, and a line
    joins those fragments with json.dumps's default separators. A state is its
    own key, so a line's states are written as the table's equal states, and
    sequences are keyed by value: the same texts, as their indices are ints in
    every table this package builds. A duration is keyed with its type, so 1
    and 1.0 keep their own texts, and a zero (where 0.0 and -0.0 differ) is
    not cached.
    """
    header = {
        "format": JSONL_FORMAT,
        "version": JSONL_VERSION,
        "robot_hash": table.robot_hash,
    }
    # a state is on a line when it has a transition or one arrives at it
    dests = table.destinations()
    reached = set(itertools.chain.from_iterable(dests))
    if not all(row or i in reached for i, row in enumerate(dests)):
        header["states"] = [_state_to_json(s) for s in table.states]
    fh.write(json.dumps(header, sort_keys=True) + "\n")
    states = {s: json.dumps(_state_to_json(s)) for s in table.states}
    seqs = _Rendered(lambda seq: json.dumps([list(a) for a in seq]))
    durations = _Rendered(lambda key: json.dumps(key[1]))
    for frm, seq, d, to in table.transitions:
        dur = durations[type(d), d] if d else json.dumps(d)
        fh.write(f'{{"from": {states[frm]}, "torque_idx_seq": {seqs[seq]}, '
                 f'"duration_s": {dur}, "to": {states[to]}}}\n')


def read_jsonl(fh: IO[str]) -> TransitionTable:
    """Rebuild a table from its line format; any JSON spacing and key order reads.

    State order is the header's `states` list where there is one, and any
    line with a state not in it is refused; otherwise it is first appearance
    in the stream (from before to per line), which coincides with discovery
    order for tables written by this module. The header's version must be
    the JSON integer 1, its robot_hash a string and its states distinct, of
    one width of at least one joint. A line needs a nonempty torque sequence
    of nonnegative indices, one per joint, a positive finite JSON number of
    seconds, its length times the first line's per-action duration (to a
    relative 1e-9), and states of the first line's width; every index is a
    JSON integer. A ConfigError names the line or the header that breaks a
    rule.

    A line after the first in write_jsonl's spacing and key order is read by
    its state, sequence and duration texts: each distinct text (a duration's
    with its tick count) is parsed and checked once, by the checks a whole
    line gets. Any other line, or one with a text that fails a check, is
    parsed whole and checked field by field, which names what is wrong. Equal
    states and equal sequences are one object each across the table.
    """
    first = fh.readline()
    if not first:
        raise ConfigError("empty transitions file")
    try:
        header = json.loads(first)
    except _JSON_ERRORS as e:
        raise ConfigError(f"bad transitions header: {_json_message(e)}") from None
    if not isinstance(header, dict) or header.get("format") != JSONL_FORMAT:
        raise ConfigError("not a transitions file (missing format header)")
    version, robot_hash = header.get("version"), header.get("robot_hash", "")
    if type(version) is not int or version != JSONL_VERSION:
        raise ConfigError(f"unsupported transitions version {version!r}")
    if not isinstance(robot_hash, str):
        raise ConfigError(f"transitions header: robot_hash {robot_hash!r} is not a string")
    listed = None
    if "states" in header:
        try:
            listed = [_state_from_json(obj) for obj in header["states"]]
        except _LINE_ERRORS as e:
            raise ConfigError(f"transitions header: bad state: {e}") from None
        if len(set(listed)) < len(listed):
            raise ConfigError("transitions header: a state is listed twice")
        widths = {len(s.pos_idx) for s in listed}
        if len(widths) > 1 or 0 in widths:
            raise ConfigError(f"transitions header: states of {sorted(widths)} joints")

    transitions: list[Transition] = []
    # each distinct state, in the header's order or else in order of first appearance
    states: dict = dict(zip(listed, listed)) if listed is not None else {}

    def intern(s: QuantizedState) -> QuantizedState | None:
        """The table's state equal to s, or None where the header lists no such state."""
        return states.setdefault(s, s) if listed is None else states.get(s)

    seqs: dict = {}        # each distinct torque sequence
    n_joints = tick = None

    def checked(make):
        """`make` of each text on its first lookup, or None where a check refuses it."""
        def made(key):
            try:
                return make(key)
            except _LINE_ERRORS:
                return None
        return _Rendered(made)

    def state(text: str) -> QuantizedState | None:
        s = _state_from_json(json.loads(text))
        return intern(s) if len(s.pos_idx) == n_joints else None

    def sequence(text: str) -> ActionSequence:
        seq = _sequence_from_json(json.loads(text), n_joints)
        return seqs.setdefault(seq, seq)

    state_of, seq_of = checked(state), checked(sequence)
    dur_of = checked(lambda key: _duration_from_json(json.loads(key[0]), key[1], tick))
    for lineno, raw in enumerate(fh, start=2):
        raw = raw.strip()
        if not raw:
            continue
        # the first line fixes n_joints and tick, which the texts' checks use
        if tick is not None and (m := _LINE.fullmatch(raw)):
            frm_text, seq_text, dur_text, to_text = m.groups()
            frm, to, seq = state_of[frm_text], state_of[to_text], seq_of[seq_text]
            dur = seq and dur_of[dur_text, len(seq)]
            if frm and to and dur:
                transitions.append(Transition(frm, seq, dur, to))
                continue
        try:
            t = _transition_from_json(json.loads(raw), n_joints, tick)
        except _LINE_ERRORS as e:
            raise ConfigError(f"bad transition on line {lineno}: {_json_message(e)}") from None
        if tick is None:
            n_joints, tick = len(t.from_state.pos_idx), t.duration / len(t.actions)
        frm, to = intern(t.from_state), intern(t.to_state)
        if frm is None or to is None:
            lost = t.from_state if frm is None else t.to_state
            raise ConfigError(f"bad transition on line {lineno}: state {lost} is not in the header")
        transitions.append(Transition(frm, seqs.setdefault(t.actions, t.actions), t.duration, to))
    return TransitionTable(robot_hash, tuple(states), tuple(transitions))


def check_torque_menu(table: TransitionTable, robot: RobotSpec) -> None:
    """ConfigError if a transition uses a torque index past its joint's menu."""
    used = {a for t in table.transitions for a in t.actions}
    for j, column in zip(robot.joints, zip(*used)):
        top = max(column)
        if top >= len(j.torques):
            raise ConfigError(
                f"joint {j.name}: torque index {top} is outside its menu of "
                f"{len(j.torques)} torques"
            )


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
    """The table as a DOT digraph: node n<i> is table.states[i], one edge per transition.

    Each distinct torque sequence's label is rendered once per call.
    """
    nodes = {s: f"n{i}" for i, s in enumerate(table.states)}
    labels = _Rendered(_rle_actions)
    lines = ["digraph transitions {"]
    for i, s in enumerate(table.states):
        lines.append(f'  n{i} [label="{state_label(s)}"];')
    for t in table.transitions:
        a, b = nodes[t.from_state], nodes[t.to_state]
        lines.append(f'  {a} -> {b} [label="{labels[t.actions]}"];')
    lines.append("}\n")  # ends the text with a newline without copying it
    return "\n".join(lines)
