"""Breadth-first discovery of atomic transitions over the quantized state grid.

A transition is the shortest torque sequence that moves the robot from one
grid state to a different one, plus "static" self-loops for sequences that
sit still for the full exploration horizon and keep sitting still when
replayed. Each state's sequences grow breadth-first, so the first recording
per outcome is the shortest. Discovery runs every state's sequence tree at
once as one frontier of numpy arrays, one tick per step, then orders the
table as a state-by-state search would, so tables and their bytes do not
depend on how the search was scheduled. It hands the table id columns.
It is the one module that loads the dynamics, and calls them through the
module, so a name patched there, as a tracer does, is the one called.
"""

from __future__ import annotations

import itertools
from array import array
from typing import TYPE_CHECKING

from . import dynamics
from .errors import BudgetExceeded, ConfigError, NumericalOverflow
from .model import (DEFAULT_MAX_SEQUENCES, DEFAULT_MAX_STATES, DEFAULT_NAL, ActionSequence,
                    ContinuousState, QuantizedState, RobotSpec, check_on_grid, grid_range,
                    representative)
from .transitions import TransitionTable, _Rendered

if TYPE_CHECKING:
    import numpy as np

# total replays a static candidate must survive before it is recorded
STATIC_HOLD_REPS = 5


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
            state = dynamics.integrate_step(state, a, robot)
            if not all(j.within_limits(q, v) for j, q, v in zip(robot.joints, state.q, state.v)):
                return False
        for k, j in enumerate(robot.joints):
            if abs(state.q[k] - anchor.q[k]) >= j.delta_q:
                return False
    return True


def _tick(robot: RobotSpec, nal: int, starts: np.ndarray, torque: np.ndarray,
          home: np.ndarray, depth: np.ndarray) -> tuple[np.ndarray, ...]:
    """One tick of every frontier row: (ends, cells, moved, static, growing).

    Row k starts at starts[k] (joint positions, then velocities), is held at
    torque[k] for one tick by `dynamics.integrate_frontier`, and is a sequence
    of depth[k] ticks from the state of index row home[k]; a non-finite end
    raises NumericalOverflow. Its cell is its end's index row as floats,
    `quantize`'s elementwise and meaningless off the grid. The masks sort the
    rows: moved to another state, static at home at depth `nal`, growing at
    home short of it; a row in none ends off the grid or past a limit.
    """
    import numpy as np

    n = robot.n_joints
    params = dynamics.PendulumParams(np.array([j.mass for j in robot.joints]),
                                     np.array([j.length for j in robot.joints]), robot.gravity)
    with np.errstate(all="ignore"):
        ends = np.hstack(dynamics.integrate_frontier(starts[:, :n], starts[:, n:], torque,
                                                     params, robot.delta_t))
    if not (finite := np.isfinite(ends).all(axis=0)).all():
        j = robot.joints[int(np.argmin(finite[:n] & finite[n:]))]
        raise NumericalOverflow(f"joint {j.name}: non-finite state after integration")
    grids = [robot.grids(i)[k] for k in (0, 1) for i in range(n)]
    x = ends / np.array([step for _, _, step in grids])
    cells = np.where(x >= 0, np.floor(x + 0.5), np.ceil(x - 0.5))
    first, last = np.array([grid_range(*g) for g in grids], dtype=np.float64).T
    ok = ((first <= cells) & (cells <= last)).all(axis=1)
    for i, j in enumerate(robot.joints):
        ok &= j.within_limits(ends[:, i], ends[:, n + i])
    moved = ok & (cells != home).any(axis=1)
    stay, short = ok & ~moved, depth < nal
    return ends, cells, moved, stay & ~short, stay & short


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
    each tick runs all of them through `_tick`. A state's tree starts on the
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
    actions = list(itertools.product(*(range(len(j.torques)) for j in robot.joints)))
    n_act = len(actions)
    torque = np.array([[j.torques[k] for j, k in zip(robot.joints, a)] for a in actions])

    # grid steps per column: a cell's index row times these is its centre,
    # bitwise `representative`'s, as every index is below 2^53 in size
    steps = np.array([robot.grids(i)[k][2] for k in (0, 1) for i in range(n)])

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
        ends, cells, moved, static, grow = _tick(robot, nal, np.repeat(p_ends, n_act, axis=0),
                                                 torque[key % n_act], home[tree], depth)
        settled = np.flatnonzero(moved | static)

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
        replays = np.flatnonzero(~is_move[:stop])
        for k, seq in zip(replays.tolist(), sequences(key[settled[replays]].tolist())):
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
    labels = tuple((seq, len(seq) * robot.delta_t) for seq in sequences(used.tolist()))
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
