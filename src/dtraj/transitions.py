"""The transition table, its JSONL and DOT forms, and its torque-menu check.

A table holds its transitions as id columns over its states and labels:
discovery (`dtraj.discovery`) and the reader hand it ids, and the writers
join each line from per-state and per-label texts, themselves joined from
`str` of each integer. This module loads neither the dynamics nor
discovery, so the commands that read a table do not either.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
from array import array
from typing import IO, TYPE_CHECKING, NamedTuple, Sequence

from .errors import ConfigError, UnknownState
from .model import (
    ActionSequence,
    QuantizedState,
    RobotSpec,
    _JSON_ERRORS,
    _is_finite_number,
    _json_message,
)

if TYPE_CHECKING:
    import numpy as np


def __getattr__(name: str):
    """The three discovery names bench/ reads from this module, loaded on first use.
    No other name loads discovery, not even the `__path__` every import from here asks for."""
    if name not in ("find_transitions", "STATIC_HOLD_REPS", "DEFAULT_NAL"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import discovery
    return getattr(discovery, name)


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
    a state outside `states` raises UnknownState when the table is built. A
    duration the reader would refuse on a table's first line raises its
    ValueError: each label is checked against its own tick, not the table's.

    A table holds its transitions as three id columns, one entry per
    transition: the index in `states` of its from-state and of its to-state,
    and the index in `labels` of its (torque sequence, float duration) pair,
    each distinct pair held once. `transitions`, `destinations()` and the
    `outgoing()` rows are built from the columns on first use and kept.
    """

    def __init__(self, robot_hash: str, states: tuple[QuantizedState, ...],
                 transitions: tuple[Transition, ...]):
        index = {s: i for i, s in enumerate(states)}
        labels: dict = {}    # each distinct (sequence, duration), by value: its id
        src, label, dst = [], [], []
        for k, t in enumerate(transitions):
            try:
                src.append(index[t.from_state])
                dst.append(index[t.to_state])
            except KeyError:
                lost = t.to_state if t.from_state in index else t.from_state
                raise UnknownState(f"transition {k}: state {lost} not in table") from None
            pair = (t.actions, _duration_from_json(t.duration, len(t.actions), None))
            label.append(labels.setdefault(pair, len(labels)))
        self._adopt(robot_hash, tuple(states), tuple(labels), src, label, dst)
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
    """`dur` as seconds, `ticks` ticks of `tick` to a relative 1e-9; with no tick,
    of its own duration per tick, the tick a table's first label sets."""
    if not (_is_finite_number(dur) and dur > 0):
        raise ValueError(f"duration_s must be a positive finite number, got {dur!r}")
    dur = float(dur)
    tick = dur / ticks if tick is None else tick
    if abs(dur - ticks * tick) > 1e-9 * ticks * tick:
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

    A line holds the bytes json.dumps gives the transition's dict, but only
    the header and each label's duration go through json.dumps. Each state's
    text and each distinct action's is joined from `str` of its integers, and
    each label's torque sequence from its actions' texts, once per call; a
    line joins the texts of its ids. The lines are streamed to `fh`, not joined.
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
    states = [f'{{"pos": [{", ".join(map(str, s.pos_idx))}], '
              f'"vel": [{", ".join(map(str, s.vel_idx))}]}}' for s in table.states]
    actions = _Rendered(lambda a: f'[{", ".join(map(str, a))}]')
    labels = [f'"torque_idx_seq": [{", ".join(map(actions.__getitem__, seq))}], '
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
    seconds, its length in ticks (to a relative 1e-9), and states of the
    first line's width; every index is a JSON integer. The first line's
    duration per action sets the tick, and that line meets it too. A
    ConfigError names the line or the header that breaks a rule.

    A line's from-state, to-state, sequence and duration texts are checked in
    that order, each distinct state text, (sequence, duration) text pair and
    (duration, tick count) once: `_LINE` finds them in write_jsonl's shape,
    and json.dumps renders any other line's fields back. The table is built
    from the ids those texts map to, a label's by value: equal states are one
    object, as is each distinct label.
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

    def label_id(texts: tuple[str, str]) -> int:
        # the sequence is checked before the duration is read
        seq = _sequence_from_json(json.loads(texts[0]), n_joints)
        return labels.setdefault((seq, dur_of[texts[1], len(seq)]), len(labels))

    # each text parsed and checked on its first lookup; a refusal ends the read
    state_of, label_of = _Rendered(state), _Rendered(label_id)
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
            k = label_of[text[2], text[3]]
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
        tick = tick or next(d / len(s) for s, d in labels)    # the first line's label sets it
        src.append(frm)
        label.append(k)
        dst.append(to)
    return TransitionTable._from_ids(robot_hash, tuple(states), tuple(labels), src, label, dst)


def check_torque_menu(table: TransitionTable, robot: RobotSpec) -> None:
    """ConfigError if the table's joint count (its actions' width, or else its states')
    is not the robot's, or a label uses a torque index past its joint's menu."""
    width = (len(table.labels[0][0][0]) if table.labels
             else len(table.states[0].pos_idx) if table.states else robot.n_joints)
    if width != robot.n_joints:
        raise ConfigError(f"the transition table's joint count {width} is not "
                          f"the robot config's {robot.n_joints}")
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
    return " ".join(map(str, s.pos_idx)) + "," + " ".join(map(str, s.vel_idx))


def _rle_actions(seq: ActionSequence, names: dict) -> str:
    # run-length text from the actions' a/b names: (2,) held 25 ticks -> "2*25"
    parts = []
    for a, run in itertools.groupby(seq):
        k = len(list(run))
        parts.append(names[a] if k == 1 else f"{names[a]}*{k}")
    return " ".join(parts)


def export_dot(table: TransitionTable) -> str:
    """The table as a DOT digraph: node n<i> is table.states[i], one edge per transition.

    An edge's label is its torque sequence's run-length text. Each distinct
    action's a/b name, each label's text and each node's name are joined
    once per call.
    """
    names = _Rendered(lambda a: "/".join(map(str, a)))
    labels = [_rle_actions(seq, names) for seq, _ in table.labels]
    nodes = [f"n{i}" for i in range(len(table.states))]
    lines = ["digraph transitions {"]
    lines += [f'  {n} [label="{state_label(s)}"];' for n, s in zip(nodes, table.states)]
    lines += [f'  {nodes[a]} -> {nodes[b]} [label="{labels[k]}"];'
              for a, k, b in zip(table._src, table._label, table._dst)]
    lines.append("}\n")  # ends the text with a newline without copying it
    return "\n".join(lines)
