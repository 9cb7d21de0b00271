"""Breadth-first discovery of atomic transitions over the quantized state grid.

A transition is the shortest torque sequence that moves the robot from one
grid state to a different one, plus "static" self-loops for sequences that
sit still for the full exploration horizon and keep sitting still when
replayed. Each state's sequences grow breadth-first, so the first recording
per outcome is the shortest. Discovery runs every state's sequence tree at
once as one frontier of numpy arrays, one tick per step, then orders the
table as a state-by-state search would, so tables and their bytes do not
depend on how the search was scheduled.

A table holds its transitions as id columns over its states and labels:
discovery and the reader hand it ids, and the writers join each line from
per-state and per-label texts.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
from array import array
from typing import IO, TYPE_CHECKING, NamedTuple, Sequence

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


class _Rendered(dict):
    """The value of each key, made by `render` on its first lookup."""

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, key):
        text = self[key] = self.render(key)
        return text


class TransitionTable:
    """States in discovery order plus their outgoing transitions.

    The ordering is canonical: states appear in the order the search first
    reached them, transitions in the order the search recorded them. Two runs
    over the same robot produce byte-identical tables, and tables are equal
    when their robot_hash, states and transitions are. A transition from or to
    a state outside `states` raises UnknownState when the table is built.

    A table holds its transitions as three id columns, one entry per
    transition: the index in `states` of its from-state and of its to-state,
    and the index in `labels` of its (torque sequence, duration) pair, each
    distinct pair held once. `transitions`, `destinations()` and the
    `outgoing()` rows are built from the columns on first use and kept.
    """

    def __init__(self, robot_hash: str, states: tuple[QuantizedState, ...],
                 transitions: tuple[Transition, ...]):
        index = {s: i for i, s in enumerate(states)}
        # a label's key tells apart durations that are equal but written
        # apart, such as 1 and 1.0, or 0.0 and -0.0
        keys: dict = {}    # by label key: the label's id and the label
        src, label, dst = [], [], []
        for k, t in enumerate(transitions):
            try:
                src.append(index[t.from_state])
                dst.append(index[t.to_state])
            except KeyError:
                lost = t.to_state if t.from_state in index else t.from_state
                raise UnknownState(f"transition {k}: state {lost} not in table") from None
            key = (t.actions, type(t.duration), repr(t.duration))
            label.append(keys.setdefault(key, (len(keys), (t.actions, t.duration)))[0])
        labels = tuple(pair for _, pair in keys.values())
        self._adopt(robot_hash, tuple(states), labels, src, label, dst)
        self._index = index

    @classmethod
    def _from_ids(cls, robot_hash: str, states: tuple[QuantizedState, ...],
                  labels: tuple[tuple[ActionSequence, float], ...],
                  src: Sequence[int], label: Sequence[int],
                  dst: Sequence[int]) -> "TransitionTable":
        """A table over id columns, as `__init__` derives them; every id is range-checked."""
        table = cls.__new__(cls)
        table._adopt(robot_hash, states, labels, src, label, dst)
        return table

    def _adopt(self, robot_hash, states, labels, src, label, dst) -> None:
        """Take the columns, each id checked against its range, and no view of them yet."""
        if not len(src) == len(label) == len(dst):
            raise ValueError("id columns of unequal lengths")
        for column, bound in ((src, len(states)), (label, len(labels)), (dst, len(states))):
            if column and not (min(column) >= 0 and max(column) < bound):
                raise ValueError(f"an id outside 0..{bound - 1}")
        self.robot_hash, self.states, self.labels = robot_hash, states, labels
        # 8 bytes an id, where a list would hold an int object per entry;
        # discovery hands over such arrays, and they are kept, not copied
        self._src, self._label, self._dst = (
            c if isinstance(c, array) else array("q", c) for c in (src, label, dst))
        self._index = self._transitions = self._rows = self._dests = self._edges = None

    def __eq__(self, other):
        if not isinstance(other, TransitionTable):
            return NotImplemented
        return ((self.robot_hash, self.states, self.transitions)
                == (other.robot_hash, other.states, other.transitions))

    @property
    def transitions(self) -> tuple[Transition, ...]:
        """Every transition in table order, built on first use."""
        if self._transitions is None:
            s, lab = self.states, self.labels
            self._transitions = tuple(Transition(s[a], *lab[k], s[b])
                                      for a, k, b in zip(self._src, self._label, self._dst))
        return self._transitions

    def state_index(self, state: QuantizedState) -> int:
        if self._index is None:
            self._index = {s: i for i, s in enumerate(self.states)}
        try:
            return self._index[state]
        except KeyError:
            raise UnknownState(f"state {state} not in table") from None

    def __len__(self) -> int:
        """The number of transitions, counted without building them."""
        return len(self._src)

    def outgoing(self, state: QuantizedState) -> list[Transition]:
        """The state's transitions in table order, sorted out of `transitions` on first use."""
        i = self.state_index(state)
        if self._rows is None:
            self._rows = [[] for _ in self.states]
            for t, j in zip(self.transitions, self._src):
                self._rows[j].append(t)
        return self._rows[i]

    def destinations(self) -> list[list[int]]:
        """Per state id, the destination ids of its transitions, in table order.

        The rows are the table's own, to be read and not changed.
        """
        if self._dests is None:
            ids = list(range(len(self.states)))    # one int object per state id, shared
            dests = self._dests = [[] for _ in ids]
            for i, d in zip(self._src, self._dst):
                dests[i].append(ids[d])
        return self._dests

    @functools.cached_property
    def max_out_degree(self) -> int:
        """The most transitions out of one state, which prices a walk count."""
        return max(map(len, self.destinations()), default=0)

    def edge_index(self) -> tuple[np.ndarray, np.ndarray]:
        """The graph over state ids in compressed-row form, built on first use.

        (dst, row_start): dst[row_start[i]:row_start[i + 1]] are the
        destination ids of state i's transitions, in table order.
        """
        if self._edges is None:
            import numpy as np

            dests = self.destinations()
            dst = np.array(list(itertools.chain.from_iterable(dests)), dtype=np.int64)
            row_start = np.array([0, *itertools.accumulate(map(len, dests))], dtype=np.int64)
            self._edges = dst, row_start
        return self._edges

    def restrict_to_first(self, k: int) -> "TransitionTable":
        """Subtable over the first k >= 0 states; only edges staying inside survive."""
        kept = tuple(t for t, a, b in zip(self.transitions, self._src, self._dst)
                     if a < k and b < k)
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
    before it. A pending sequence is a node of one prefix trie shared by
    every tree: its parent node and its last action, two integers however
    many rows hold it. The rows a tick settles are kept as its (tree, key,
    destination id) columns, a key being the parent node and last action
    of the row's sequence, and a sequence becomes a tuple only where a
    static candidate is replayed or a label of the table needs it. The
    table is then put in the order a state-by-state search would give:
    states in order of first discovery when each state's tree is searched
    in turn, each state's transitions by sequence length, then
    breadth-first position.

    dedup: "all" records every sequence per (from, to) outcome; "shortest"
    keeps only the first (breadth-first order makes it a shortest one),
    dropping each tick's rows whose pair a row before them already has.
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

    # states by id in the order the frontier first reached them
    states: list[QuantizedState] = []
    simulated = 0

    def progress() -> str:
        return f"{simulated} sequences simulated, {len(states)} states found so far"

    def add_state(row: tuple) -> int:
        if len(states) + 1 > max_states:
            raise BudgetExceeded(f"discovered states exceeded budget {max_states} ({progress()})")
        states.append(QuantizedState(row[:n], row[n:]))
        return len(states) - 1

    state_ids = _Rendered(add_state)    # by index row
    state_ids[start.pos_idx + start.vel_idx]

    # the prefix trie of the sequences that grow: node 0 is the empty
    # sequence, and a sequence's key is its parent node * n_act plus the
    # index of its last action. links[k] is node k's key, and `nodes` finds
    # a node by its key, making it if it is new. A settled sequence, which
    # never grows, is its key alone.
    links = [0]

    def add_node(key: int) -> int:
        links.append(key)
        return len(links) - 1

    nodes = _Rendered(add_node)

    def sequences(keys: list[int]) -> list[ActionSequence]:
        """The torque sequence of each key: one tuple per key or ancestor node."""
        found: dict[int, ActionSequence] = {0: ()}    # by node
        out = []
        for key in keys:
            chain, node = [], key // n_act
            while node not in found:
                chain.append(node)
                node = links[node] // n_act
            for k in reversed(chain):
                found[k] = found[links[k] // n_act] + (actions[links[k] % n_act],)
            out.append(found[key // n_act] + (actions[key % n_act],))
        return out

    # a tick's parents: the tree (state id) of each pending sequence, its trie
    # node and length, and the continuous state it ends in; the states found
    # on a tick join the next tick's parents with the empty sequence at their
    # cell centres, after the growing sequences. One row per parent and action.
    # The rows a tick settles are kept as its (tree, key, destination) columns.
    p_tree = p_node = p_depth = np.empty(0, dtype=np.int64)
    p_ends = np.empty((0, 2 * n))      # end states: joint positions, then velocities
    home = np.empty((0, 2 * n))        # index rows of the states by id
    settled_cols: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    pairs: set[tuple[int, int]] = set()     # the (from, to) pairs kept, in shortest mode
    while True:
        if len(states) > len(home):
            new = np.array([s.pos_idx + s.vel_idx for s in states[len(home):]], dtype=np.float64)
            fresh = np.zeros(len(new), dtype=np.int64)
            p_tree = np.concatenate([p_tree, np.arange(len(home), len(states))])
            p_node, p_depth = np.concatenate([p_node, fresh]), np.concatenate([p_depth, fresh])
            p_ends = np.concatenate([p_ends, new * steps])
            home = np.concatenate([home, new])
        if not len(p_tree):
            break
        rows = len(p_tree) * n_act
        if simulated + rows > max_sequences:
            raise BudgetExceeded(f"simulated sequences would exceed budget {max_sequences} "
                                 f"({progress()})")
        simulated += rows
        tree = np.repeat(p_tree, n_act)
        key = np.repeat(p_node * n_act, n_act) + np.tile(np.arange(n_act), len(p_tree))
        depth = np.repeat(p_depth + 1, n_act)

        with np.errstate(all="ignore"):
            ends = np.hstack(integrate_frontier(
                np.repeat(p_ends[:, :n], n_act, axis=0), np.repeat(p_ends[:, n:], n_act, axis=0),
                torque[key % n_act], params, robot.delta_t))
        if not (finite := np.isfinite(ends).all(axis=0)).all():
            j = robot.joints[int(np.argmin(finite[:n] & finite[n:]))]
            raise NumericalOverflow(f"joint {j.name}: non-finite state after integration")
        ok, cells = _quantize_columns(ends, robot)
        for i, j in enumerate(robot.joints):
            ok &= j.within_limits(ends[:, i], ends[:, n + i])
        moved = ok & (cells != home[tree]).any(axis=1)
        grow = ok & ~moved & (depth < nal)
        settled = np.flatnonzero(moved | (ok & (depth >= nal)))

        # a moved row ends in its cell's state; a static candidate stays
        # where it is if it holds, and is dropped if it does not. A search
        # row by row meets them in settled order: the static rows before
        # the move that breaks the state budget are replayed, and an
        # overflow in one of them is raised instead.
        frm, to, is_move = tree[settled], tree[settled], moved[settled]
        arrivals = cells[settled[is_move]].astype(np.int64)
        busted, stop = None, len(settled)
        try:
            to[is_move] = list(map(state_ids.__getitem__, map(tuple, arrivals.tolist())))
        except BudgetExceeded as e:
            busted = e
            stop = np.flatnonzero(is_move)[
                [tuple(r) in state_ids for r in arrivals.tolist()].index(False)]
        held = is_move.copy()
        static = np.flatnonzero(~is_move[:stop])
        for k, seq in zip(static.tolist(), sequences(key[settled[static]].tolist())):
            p = settled[k]
            cont = ContinuousState(tuple(ends[p, :n].tolist()), tuple(ends[p, n:].tolist()))
            held[k] = _static_hold(states[frm[k]], seq, cont, robot)
        if busted:
            raise busted
        frm, row_key, to = frm[held], key[settled[held]], to[held]
        if dedup == "shortest":
            # per tree, rows settle breadth-first, so the first row of each
            # (from, to) pair is a shortest: keep it unless a tick before had the pair
            first = np.unique(frm * len(states) + to, return_index=True)[1]
            first = np.sort(first[[pair not in pairs for pair in zip(frm[first].tolist(),
                                                                      to[first].tolist())]])
            frm, row_key, to = frm[first], row_key[first], to[first]
            pairs.update(zip(frm.tolist(), to.tolist()))
        settled_cols.append((frm, row_key, to))

        kept = np.flatnonzero(grow)
        p_tree, p_depth, p_ends = tree[kept], depth[kept], ends[kept]
        p_node = np.array(list(map(nodes.__getitem__, key[kept].tolist())), dtype=np.int64)

    frm, key, to = (np.concatenate(c) for c in zip(*settled_cols))
    order = _search_order(frm, to, len(states))
    rank = np.empty(len(states), dtype=np.int64)
    rank[order] = np.arange(len(states))
    # the table's rows: grouped by from-state in table order, each tree's in its
    # own. The columns are made, and the search's arrays let go, before the
    # labels are built: they are most of the table's memory.
    by_rank = np.argsort(rank[frm], kind="stable")
    used, label = np.unique(key[by_rank], return_inverse=True)
    columns = [array("q", c.astype(np.int64).tobytes())
               for c in (rank[frm[by_rank]], label, rank[to[by_rank]])]
    del settled_cols, nodes, frm, key, to, by_rank, label
    labels = tuple((seq, durations[len(seq)]) for seq in sequences(used.tolist()))
    return TransitionTable._from_ids(robot.content_hash(), tuple(states[k] for k in order),
                                     labels, *columns)


def _search_order(frm: np.ndarray, to: np.ndarray, n_states: int) -> list[int]:
    """State ids in the order a state-by-state search reaches them.

    (frm[k], to[k]) are the settled rows, each tree's in its own order.
    Searching the trees in turn from state 0, a state joins when it is
    first reached.
    """
    import numpy as np

    by_tree = np.argsort(frm, kind="stable")
    row_start = np.searchsorted(frm[by_tree], np.arange(n_states + 1)).tolist()
    dests = to[by_tree].tolist()
    order = [0]
    placed = [False] * n_states
    placed[0] = True
    for f in order:
        for t in dests[row_start[f]:row_start[f + 1]]:
            if not placed[t]:
                placed[t] = True
                order.append(t)
    return order


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


class _FieldTexts:
    """A parsed line's field texts by `_LINE` group number, each rendered on its lookup."""

    def __init__(self, line):
        self.line = line

    def __getitem__(self, k: int) -> str:
        return json.dumps(self.line[("from", "torque_idx_seq", "duration_s", "to")[k - 1]])


def write_jsonl(table: TransitionTable, fh: IO[str]) -> None:
    """Write the header line, then one line per transition in table order.

    The header lists the table's states, in order, when some state is on no
    line (a start without transitions, say), and only then, so that state
    is kept and every other table's bytes stay as they were.

    A line is json.dumps of the transition's dict. Each state and each label
    (torque sequence and duration) is rendered by json.dumps once per call,
    and a line joins the texts of its from-state, label and to-state ids with
    json.dumps's default separators.
    """
    header = {
        "format": JSONL_FORMAT,
        "version": JSONL_VERSION,
        "robot_hash": table.robot_hash,
    }
    # a state is on a line when it has a transition or one arrives at it
    if len(set(table._src).union(table._dst)) < len(table.states):
        header["states"] = [_state_to_json(s) for s in table.states]
    fh.write(json.dumps(header, sort_keys=True) + "\n")
    states = [json.dumps(_state_to_json(s)) for s in table.states]
    labels = [f'"torque_idx_seq": {json.dumps([list(a) for a in seq])}, '
              f'"duration_s": {json.dumps(d)}' for seq, d in table.labels]
    fh.writelines(f'{{"from": {states[a]}, {labels[k]}, "to": {states[b]}}}\n'
                  for a, k, b in zip(table._src, table._label, table._dst))


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

    A line's from-state, to-state, sequence and duration texts are checked in
    that order, each distinct one (a duration's with its tick count) once:
    `_LINE` finds them in write_jsonl's shape, and json.dumps renders any
    other line's fields back. Each distinct state text maps to a state id and
    each distinct (sequence, duration) text pair to a label id, and the table
    is built from those ids. Equal states and sequences are one object each.
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
    states: list[QuantizedState] = []
    if "states" in header:
        try:
            states = [_state_from_json(obj) for obj in header["states"]]
        except _LINE_ERRORS as e:
            raise ConfigError(f"transitions header: bad state: {e}") from None
        if len(set(states)) < len(states):
            raise ConfigError("transitions header: a state is listed twice")
        widths = {len(s.pos_idx) for s in states}
        if len(widths) > 1 or 0 in widths:
            raise ConfigError(f"transitions header: states of {sorted(widths)} joints")
    # ids below `listed` are the table's states: the header's, or else every
    # state in order of first appearance. A state the header does not list
    # gets an id past them, and its line is refused.
    listed = len(states) if "states" in header else math.inf
    index = {s: i for i, s in enumerate(states)}
    seqs: dict = {}        # each distinct torque sequence
    labels: dict = {}      # each distinct (sequence, duration), by value
    src: list[int] = []
    label: list[int] = []
    dst: list[int] = []
    n_joints = tick = None

    def state(text: str) -> int:
        s = _state_from_json(json.loads(text))
        i = index.setdefault(s, len(index))
        if i == len(states):
            states.append(s)
        return i

    def sequence(text: str) -> ActionSequence:
        seq = _sequence_from_json(json.loads(text), n_joints)
        return seqs.setdefault(seq, seq)

    def label_id(texts: tuple[str, str]) -> int:
        seq = seq_of[texts[0]]
        pair = (seq, dur_of[texts[1], len(seq)])
        return labels.setdefault(pair, len(labels))

    # each text parsed and checked on its first lookup; a refusal ends the read
    state_of, seq_of, label_of = _Rendered(state), _Rendered(sequence), _Rendered(label_id)
    dur_of = _Rendered(lambda key: _duration_from_json(json.loads(key[0]), key[1], tick))
    for lineno, raw in enumerate(fh, start=2):
        raw = raw.strip()
        if not raw:
            continue
        try:
            text = _LINE.fullmatch(raw) or _FieldTexts(json.loads(raw))
            frm, to = state_of[text[1]], state_of[text[4]]
            frm_width, to_width = len(states[frm].pos_idx), len(states[to].pos_idx)
            n_joints = n_joints or frm_width
            if n_joints < 1:
                raise ValueError("state has no joints")
            if frm_width != n_joints or to_width != n_joints:
                raise ValueError(f"states have {frm_width} and {to_width} "
                                 f"joints, expected {n_joints}")
            seq_text = text[2]
            seq_of[seq_text]    # the sequence is checked before the duration is read
            k = label_of[seq_text, text[3]]
            if max(frm, to) >= listed:
                raise ValueError(f"state {states[to if frm < listed else frm]} "
                                 "is not in the header")
        except _LINE_ERRORS as e:
            # _LINE admits texts that are not JSON, such as 01: the line's JSON error wins
            try:
                json.loads(raw)
            except _JSON_ERRORS as whole:
                e = whole
            raise ConfigError(f"bad transition on line {lineno}: {_json_message(e)}") from None
        if tick is None:
            seq, dur = next(iter(labels))    # the first line's, the one label so far
            tick = dur / len(seq)
            if dur != len(seq) * tick:    # checked with no tick: recheck it where it recurs
                dur_of.clear()
                label_of.clear()
        src.append(frm)
        label.append(k)
        dst.append(to)
    return TransitionTable._from_ids(robot_hash, tuple(states), tuple(labels), src, label, dst)


def check_torque_menu(table: TransitionTable, robot: RobotSpec) -> None:
    """ConfigError if a label uses a torque index past its joint's menu."""
    used = {a for seq, _ in table.labels for a in seq}
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
        name = "/".join(map(str, a))
        parts.append(name if k == 1 else f"{name}*{k}")
    return " ".join(parts)


def export_dot(table: TransitionTable) -> str:
    """The table as a DOT digraph: node n<i> is table.states[i], one edge per transition.

    Each label's run-length text is rendered once per call.
    """
    labels = [_rle_actions(seq) for seq, _ in table.labels]
    lines = ["digraph transitions {"]
    lines += [f'  n{i} [label="{state_label(s)}"];' for i, s in enumerate(table.states)]
    lines += [f'  n{a} -> n{b} [label="{labels[k]}"];'
              for a, k, b in zip(table._src, table._label, table._dst)]
    lines.append("}\n")  # ends the text with a newline without copying it
    return "\n".join(lines)
