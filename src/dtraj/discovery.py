"""Breadth-first discovery of atomic transitions over the quantized state grid.

A transition is the shortest torque sequence that moves the robot from one
grid state to a different one, plus "static" self-loops for sequences that
sit still for the full exploration horizon and keep sitting still when
replayed. Each state's sequences grow breadth-first, so the first recording
per outcome is the shortest. Discovery runs every state's sequence tree at
once as one frontier of numpy arrays, one tick per step, then orders the
table as a state-by-state search would, so tables and their bytes do not
depend on how the search was scheduled. Where the grid is small, every
grid state's tree starts on the first tick and the trees the start does
not reach are left out of the table (the seeded schedule); elsewhere, and
where a seeded attempt is refused, a state's tree starts once the search
reaches it (the reached schedule). It hands the table id columns.
It is the one module that loads the dynamics, and calls them through the
module, so a name patched there, as a tracer does, is the one called.
"""

from __future__ import annotations

import itertools
import math
from array import array
from operator import itemgetter

import numpy as np

from . import dynamics
from .errors import BudgetExceeded, ConfigError, NumericalOverflow
from .model import (DEFAULT_MAX_SEQUENCES, DEFAULT_MAX_STATES, DEFAULT_NAL, ActionSequence,
                    ContinuousState, QuantizedState, RobotSpec, check_on_grid, grid_range,
                    representative)
from .transitions import TransitionTable, _Rendered

# total replays a static candidate must survive before it is recorded
STATIC_HOLD_REPS = 5

# the most actions the kept transitions' torque sequences may hold, summed
# over transitions, which bounds the JSONL to about 10^7 * (3 * joints + 2)
# bytes. Labels grow as about 6 nal^2 actions: the demo admits --nal 1,250
# (9.4e6 actions, a 49 MB JSONL, a 160 MB peak as a command) and refuses 1,290.
MAX_TABLE_ACTIONS = 10_000_000

# the most frontier rows `_tick` runs through the kernel, rounding and masks
# at once, which bounds the kernel workspace to 104 bytes a row-joint of this
# (12 stage floats and a gravity term); 8,192 to 16,384-row chunks ran
# fastest on wide ticks
TICK_CHUNK_ROWS = 8_192


class _Frontier(dynamics.Workspace):
    """One find_transitions call's record of its robot, read by the gate, both schedules
    and `_tick`: the kernel's workspace, the robot, its actions in lexicographic index
    order and each one's torques, and per frontier column, joint positions then
    velocities, the grid step, `grid_range`'s first and last index as floats and the limits.
    """

    def __init__(self, robot: RobotSpec):
        super().__init__(robot)
        self.robot = robot
        self.actions = list(itertools.product(*(range(len(j.torques)) for j in robot.joints)))
        self.torque = np.array([[j.torques[k] for j, k in zip(robot.joints, a)]
                                for a in self.actions])
        grids = [robot.grids(i)[k] for k in (0, 1) for i in range(robot.n_joints)]
        self.lo, self.hi, self.steps = np.array(grids).T
        self.first, self.last = np.array([grid_range(*g) for g in grids], dtype=np.float64).T


def _static_hold(
    s: QuantizedState, seq: ActionSequence, cont: ContinuousState, robot: RobotSpec
) -> bool:
    """Decide whether a horizon-surviving sequence really holds its state.

    A sequence can pin the quantized state for one pass yet creep within the
    cell and escape when repeated, so surviving the horizon once is not
    enough. `cont` is the continuous state after the first pass; the sequence
    is replayed until STATIC_HOLD_REPS total passes, and after every pass each
    joint must sit within one resolution cell of its starting angle. A first
    pass that ends bitwise on the cell centre it started from holds without
    a replay: every later pass would start where it did and repeat it exactly.
    """
    anchor = representative(s, robot)
    if array("d", cont.q + cont.v).tobytes() == array("d", anchor.q + anchor.v).tobytes():
        return True
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


def _tick(cols: _Frontier, starts: np.ndarray, torque: np.ndarray,
          home: np.ndarray) -> tuple[np.ndarray, ...]:
    """One tick of every frontier row: (ends, cells, moved, stay).

    Row k starts at starts[k] (joint positions, then velocities) and is held
    at torque[k] for one tick by `dynamics.integrate_frontier`; home[k] is
    the index row of the state whose tree it grows. The rows run through the
    kernel, the rounding and the masks TICK_CHUNK_ROWS at a time, with
    `cols` as the kernel's workspace; every step is elementwise, so the chunks
    change no value. A non-finite end raises NumericalOverflow once every
    chunk has run: one check covers the whole tick, and only a failed one
    reduces the columns, to name the joint. A row's cell is its end's index
    row as floats, `quantize`'s elementwise and meaningless off the grid:
    trunc(x + copysign(0.5, x)) of each quotient x has `_round_half_away`'s
    value, a -0.0 standing for its 0. The masks sort the rows: moved to
    another state, or staying at home; a row in neither ends off the grid
    or past a limit. The search splits the staying rows by depth: static at
    `nal`, growing short of it.
    """
    n = cols.robot.n_joints
    ends, cells = np.empty_like(starts), np.empty_like(starts)
    moved, stay = np.empty(len(starts), dtype=bool), np.empty(len(starts), dtype=bool)
    with np.errstate(all="ignore"):
        for lo in range(0, len(starts), TICK_CHUNK_ROWS):
            part = slice(lo, lo + TICK_CHUNK_ROWS)
            start, end, cell = starts[part], ends[part], cells[part]
            end[:, :n], end[:, n:] = dynamics.integrate_frontier(
                start[:, :n], start[:, n:], torque[part], cols)
            np.divide(end, cols.steps, cell)
            np.add(cell, np.copysign(0.5, cell), cell)
            np.trunc(cell, cell)
            ok = ((cols.first <= cell) & (cell <= cols.last)
                  & (cols.lo <= end) & (end <= cols.hi)).all(axis=1)
            np.logical_and(ok, (cell != home[part]).any(axis=1), moved[part])
            np.greater(ok, moved[part], stay[part])
    if not np.isfinite(ends).all():
        finite = np.isfinite(ends).all(axis=0)
        j = cols.robot.joints[int(np.argmin(finite[:n] & finite[n:]))]
        raise NumericalOverflow(f"joint {j.name}: non-finite state after integration")
    return ends, cells, moved, stay


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
    each tick runs all of them through `_tick`. The robot's column
    constants, its actions and the kernel's workspace are taken once per
    call, in one `_Frontier` that the gate and both schedules share, the
    fall-back too. A tick whose pending sequences are
    bitwise the last tick's (the same trees, the same end states) would
    repeat it, so it takes the last tick's outcome and splits it by depth
    alone, and a tick that does not lets go of it before it runs. A state's
    tree starts from its cell centre, its index row times the grid steps,
    on one of two schedules that differ only in when a tree starts:

    - seeded: every grid state's tree, the start's first, on the first
      tick, so the search takes about `nal` ticks; the trees the start
      does not reach are left out of the table.
      It runs where the first tick, grid states times actions rows, fits
      one TICK_CHUNK_ROWS chunk (the grid's size is a product of
      `grid_range` sizes, so a grid too large to list is never listed),
      the grid fits max_states, and max_sequences is at least grid states
      times actions times `nal`. It grows every reachable tree in full and
      its totals are at least the reached schedule's, so a seeded search
      that finishes gives the reached schedule's table. If it exceeds a
      budget or overflows, even in a tree the start never reaches, the
      search runs again on the reached schedule, whose verdict and text
      are returned: a refusal pays for both searches, in memory too, as
      the attempt's freed arrays raise glibc's dynamic mmap threshold (at
      20 ms the demo's reached search peaks at 468 MiB after it, 431 alone).
    - reached: a state's tree starts on the tick after the state is first
      reached, its rows appended to those of the states found before it.
      The demo takes 47 ticks at `nal` 25 this way, and 25 seeded.

    A pending sequence is a node of one prefix trie shared by
    every tree: its parent node and its last action, two integers however
    many rows hold it. The rows a tick settles are kept as its (tree, key,
    destination id) columns, a key being the parent node and last action
    of the row's sequence, and a sequence becomes a tuple only where a
    static candidate is replayed or a label of the table needs it. A moved
    row's destination id is found by its cell's index row, read as int
    tuples off the cell columns; a state is held as that row until the
    table is built. The table is then put in the order a state-by-state
    search would give: states in order of first discovery when each
    state's tree is searched in turn, each state's transitions by sequence
    length, then breadth-first position.

    dedup: "all" records every sequence per (from, to) outcome; "shortest"
    keeps only the first (breadth-first order makes it a shortest one),
    dropping each tick's rows whose pair a row before them already has.
    max_sequences bounds the sequences simulated (each tick of each one
    counts once, a repeated tick's too) by each schedule, and is checked
    before a tick runs, so a search whose seeded attempt is given up
    simulates at most twice it in all; max_states bounds the states found;
    MAX_TABLE_ACTIONS bounds the kept transitions' lengths, summed after
    each tick, before any label is built. Each raises BudgetExceeded with
    the reached schedule's progress so far.
    """
    robot.validate()
    if nal < 1:
        raise ConfigError("nal must be >= 1")
    if dedup not in ("all", "shortest"):
        raise ConfigError(f"unknown dedup mode {dedup!r}")
    if start is None:
        z = (0,) * robot.n_joints
        start = QuantizedState(z, z)
    check_on_grid(start, robot)
    cols = _Frontier(robot)
    search = (cols, start, nal, dedup, max_states, max_sequences)
    if _seeded(cols, nal, max_states, max_sequences):
        try:
            return _search(*search, seeded=True)
        except (BudgetExceeded, NumericalOverflow):
            pass    # the attempt's arrays and traceback go before the reached schedule runs
    return _search(*search, seeded=False)


def _seeded(cols: _Frontier, nal: int, max_states: int, max_sequences: int) -> bool:
    """Whether a search seeds every grid state's tree on its first tick (see find_transitions)."""
    size = math.prod(int(b) - int(a) + 1 for a, b in zip(cols.first, cols.last))
    rows = size * len(cols.actions)
    return rows <= TICK_CHUNK_ROWS and size <= max_states and rows * nal <= max_sequences


def _search(cols: _Frontier, start: QuantizedState, nal: int, dedup: str, max_states: int,
            max_sequences: int, seeded: bool) -> TransitionTable:
    """find_transitions' search on one schedule, its arguments checked. A cell's index row
    times the grid steps is its centre, bitwise `representative`'s (every index is below 2^53)."""
    robot, actions = cols.robot, cols.actions
    n, n_act = robot.n_joints, len(actions)

    # states by id, as their index rows: the start, the grid's if seeded, then
    # each other in the order the frontier first reached it
    states: list[tuple[int, ...]] = []
    simulated = kept_actions = 0

    def progress() -> str:
        return f"{simulated} sequences simulated, {len(states)} states found so far"

    def add_state(row: tuple) -> int:
        if len(states) + 1 > max_states:
            raise BudgetExceeded(f"discovered states exceeded budget {max_states} ({progress()})")
        states.append(row)
        return len(states) - 1

    state_ids = _Rendered(add_state)    # by index row
    state_ids[start.pos_idx + start.vel_idx]
    if seeded:    # every grid state, after the start, in index-row order
        for row in itertools.product(*map(range, map(int, cols.first), map(int, cols.last + 1))):
            state_ids[row]

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
    act = np.arange(n_act)
    p_tree = p_node = p_depth = np.empty(0, dtype=np.int64)
    p_ends = np.empty((0, 2 * n))      # end states: joint positions, then velocities
    home = np.empty((0, 2 * n))        # index rows of the states by id
    settled_cols: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    pairs: set[tuple[int, int]] = set()     # the (from, to) pairs kept, in shortest mode
    # the last tick's parents as (tree, end state) bytes, and its _tick
    last_parents, last_tick = None, None
    while True:
        if len(states) > len(home):
            new = np.array(states[len(home):], dtype=np.float64)
            fresh = np.zeros(len(new), dtype=np.int64)
            p_tree = np.concatenate([p_tree, np.arange(len(home), len(states))])
            p_node, p_depth = np.concatenate([p_node, fresh]), np.concatenate([p_depth, fresh])
            p_ends = np.concatenate([p_ends, new * cols.steps])
            home = np.concatenate([home, new])
        if not len(p_tree):
            break
        rows = len(p_tree) * n_act
        if simulated + rows > max_sequences:
            raise BudgetExceeded(f"simulated sequences would exceed budget {max_sequences} "
                                 f"({progress()})")
        simulated += rows
        tree = np.repeat(p_tree, n_act)
        key = ((p_node * n_act)[:, None] + act).ravel()
        depth = np.repeat(p_depth + 1, n_act)
        # parents bitwise the last tick's have its starts, torques and homes,
        # so the tick would repeat it: its outcome is taken as it stands
        parents = (p_tree.tobytes(), p_ends.tobytes())
        if parents != last_parents:
            # the last tick's outcome goes before this tick's is made
            last_tick = ends = cells = moved = stay = grow = settles = None
            last_parents = parents
            last_tick = _tick(cols, np.repeat(p_ends, n_act, axis=0), cols.torque[key % n_act],
                              home[tree])
        ends, cells, moved, stay = last_tick

        # a moved row ends in its cell's state; a static candidate (a row
        # staying at home at `nal`) stays where it is if it holds, and is
        # dropped if it does not. Depths fall along the rows, so a tick has
        # none while its first row is short of `nal`, and skips the split
        # and the replays. A search row by row meets them in settled order:
        # the static rows before the move that breaks the state budget are
        # replayed, and an overflow in one of them is raised instead.
        static = depth[0] >= nal
        grow, settles = stay, moved
        if static:
            short = depth < nal
            grow, settles = stay & short, moved | (stay & ~short)
        settled = settles.nonzero()[0]
        frm, is_move = tree[settled], moved[settled]
        to = frm.copy()
        arrivals = cells[settled[is_move]].astype(np.int64)
        busted, stop = None, len(settled)
        try:
            to[is_move] = list(map(state_ids.__getitem__, zip(*arrivals.T.tolist())))
        except BudgetExceeded as e:
            busted = e
            stop = is_move.nonzero()[0][
                [r in state_ids for r in zip(*arrivals.T.tolist())].index(False)]
        if static:
            held = is_move.copy()
            replays = (~is_move[:stop]).nonzero()[0]
            for k, seq in zip(replays.tolist(), sequences(key[settled[replays]].tolist())):
                p = settled[k]
                cont = ContinuousState(tuple(ends[p, :n].tolist()), tuple(ends[p, n:].tolist()))
                row = states[frm[k]]
                held[k] = _static_hold(QuantizedState(row[:n], row[n:]), seq, cont, robot)
            settled, frm, to = settled[held], frm[held], to[held]
        if busted:
            raise busted
        row_key, length = key[settled], depth[settled]
        if dedup == "shortest":
            # per tree, rows settle breadth-first, so the first row of each
            # (from, to) pair is a shortest: keep it unless a tick before had the pair
            first = np.unique(frm * len(states) + to, return_index=True)[1]
            first = np.sort(first[[pair not in pairs for pair in zip(frm[first].tolist(),
                                                                      to[first].tolist())]])
            frm, row_key, to, length = frm[first], row_key[first], to[first], length[first]
            pairs.update(zip(frm.tolist(), to.tolist()))
        kept_actions += int(length.sum())
        if kept_actions > MAX_TABLE_ACTIONS:
            raise BudgetExceeded(f"kept transitions' actions exceeded budget {MAX_TABLE_ACTIONS} "
                                 f"({kept_actions} actions kept, {progress()})")
        settled_cols.append((frm, row_key, to))

        kept = grow.nonzero()[0]
        p_tree, p_depth, p_ends = tree[kept], depth[kept], ends[kept]
        p_node = np.fromiter(map(nodes.__getitem__, key[kept].tolist()), np.int64, len(kept))

    frm, key, to = (np.concatenate(c) for c in zip(*settled_cols))
    order, rows = _search_order(frm, to, len(states))
    rank = np.empty(len(states), dtype=np.int64)    # table id by state id, where reached
    rank[order] = np.arange(len(order))
    # the columns are made, and the search's arrays let go, before the labels
    # are built: they are most of the table's memory
    used, label = np.unique(key[rows], return_inverse=True)
    columns = [array("q", c.astype(np.int64).tobytes())
               for c in (rank[frm[rows]], label, rank[to[rows]])]
    del settled_cols, nodes, frm, key, to, rows, label
    labels = tuple((seq, len(seq) * robot.delta_t) for seq in sequences(used.tolist()))
    # each state a QuantizedState built in C: tuple.__new__ on its (positions,
    # velocities), sliced off its index row
    ordered = [states[k] for k in order]
    found = tuple(map(tuple.__new__, itertools.repeat(QuantizedState),
                      zip(map(itemgetter(slice(n)), ordered),
                          map(itemgetter(slice(n, None)), ordered))))
    # every state is on a line of a table with a transition: each but the start
    # is reached by a kept one, and a start without any reaches no state
    return TransitionTable._from_ids(robot.content_hash(), found, labels, *columns,
                                     on_lines=len(columns[0]) > 0)


def _search_order(frm: np.ndarray, to: np.ndarray, n_states: int) -> tuple[list, np.ndarray]:
    """State ids in the order a state-by-state search reaches them; the rows in table order.

    (frm[k], to[k]) are the settled rows, each tree's in its own order.
    Searching the trees in turn from state 0, a state joins when it is
    first reached. The table's rows go tree by tree in that order, each
    tree's in its own; a tree the search never reaches has none there.
    """
    by_tree = np.argsort(frm, kind="stable")
    row_start = np.searchsorted(frm[by_tree], np.arange(n_states + 1))
    bounds, dests = row_start.tolist(), to[by_tree].tolist()
    order, placed = [0], [True] + [False] * (n_states - 1)
    for f in order:
        for t in dests[bounds[f]:bounds[f + 1]]:
            if not placed[t]:
                placed[t] = True
                order.append(t)
    # each reached tree's run of by_tree, laid end to end in search order
    lens = np.diff(row_start)[order]
    ends = np.cumsum(lens)
    return order, by_tree[np.arange(ends[-1]) + np.repeat(row_start[order] - ends + lens, lens)]
