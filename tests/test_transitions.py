import contextlib
import hashlib
import io
import itertools
import json
import math
import re
import struct
import sys
import tracemalloc
import warnings
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dtraj.discovery as discovery
import dtraj.dynamics as dynamics
import dtraj.model as model
import dtraj.transitions as trn
from dtraj.discovery import find_transitions
from dtraj.dynamics import act_sequence, integrate_step, validation_check
from dtraj.errors import (
    BudgetExceeded,
    ConfigError,
    DomainError,
    NumericalOverflow,
    OutOfRange,
    UnknownState,
)
from dtraj.model import (
    DEFAULT_MAX_SEQUENCES,
    DEFAULT_MAX_STATES,
    DEFAULT_NAL,
    ActionSequence,
    ContinuousState,
    JointSpec,
    QuantizedState,
    RobotSpec,
    grid_range,
    quantize,
    representative,
    robot_from_dict,
    state_space_size,
)
from dtraj.transitions import (
    Transition,
    TransitionTable,
    export_dot,
    read_jsonl,
    state_label,
    write_jsonl,
)
from conftest import (DEG, THREE_STATE_TABLE, TWO_JOINT, TWO_JOINT_TABLE, bench_robot,
                      demo_joint, one_field_mutation, table_text)


ZERO = QuantizedState((0,), (0,))


def null_only_robot() -> RobotSpec:
    j = JointSpec(
        name="j", q_min=-135 * DEG, q_max=135 * DEG, delta_q=2 * DEG,
        v_min=-180 * DEG, v_max=180 * DEG, mass=1.0, length=1.0,
        torques=(0.0,),
    )
    return RobotSpec(delta_t=0.04, gravity=9.81, joints=(j,))


def reference_find_transitions(
    robot: RobotSpec,
    start: QuantizedState | None = None,
    nal: int = DEFAULT_NAL,
    dedup: str = "all",
    max_states: int = DEFAULT_MAX_STATES,
    max_sequences: int = DEFAULT_MAX_SEQUENCES,
    stats: dict | None = None,
) -> TransitionTable:
    """The state-by-state search `find_transitions` replaced, kept as its oracle.

    One state at a time in discovery order, one sequence at a time off a
    breadth-first queue, through the scalar `integrate_step`. If given, `stats`
    receives the number of sequences simulated.
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

    actions = list(itertools.product(*(range(len(j.torques)) for j in robot.joints)))
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
            elif reference_static_hold(s, seq, robot):
                record(s, seq, s)

    if stats is not None:
        stats["simulated"] = simulated
    return TransitionTable(robot.content_hash(), tuple(states), tuple(transitions))


def reference_static_hold(s: QuantizedState, seq: ActionSequence, robot: RobotSpec) -> bool:
    """The static-hold rule, replayed on its own for the oracle.

    From the cell centre, STATIC_HOLD_REPS passes of the sequence stay within
    the limits at every tick and within one cell of the start angle after
    every pass.
    """
    start = representative(s, robot)
    state = start
    for _ in range(discovery.STATIC_HOLD_REPS):
        for a in seq:
            state = integrate_step(state, a, robot)
            if not all(j.q_min <= q <= j.q_max and j.v_min <= v <= j.v_max
                       for j, q, v in zip(robot.joints, state.q, state.v)):
                return False
        if any(abs(q - q0) >= j.delta_q for j, q, q0 in zip(robot.joints, state.q, start.q)):
            return False
    return True


def reference_write_jsonl(table: TransitionTable, fh) -> None:
    """The per-line json.dumps writer `write_jsonl` replaced, kept as its oracle."""
    header = {
        "format": trn.JSONL_FORMAT,
        "version": trn.JSONL_VERSION,
        "robot_hash": table.robot_hash,
    }
    on_lines = [s for t in table.transitions for s in (t.from_state, t.to_state)]
    if any(s not in on_lines for s in table.states):
        header["states"] = [trn._state_to_json(s) for s in table.states]
    fh.write(json.dumps(header, sort_keys=True) + "\n")
    for t in table.transitions:
        line = {
            "from": trn._state_to_json(t.from_state),
            "torque_idx_seq": [list(a) for a in t.actions],
            "duration_s": t.duration,
            "to": trn._state_to_json(t.to_state),
        }
        fh.write(json.dumps(line) + "\n")


def reference_export_dot(table: TransitionTable) -> str:
    """The per-edge DOT writer `export_dot` replaced, kept as its oracle.

    It spells its own state label and run-length coding, so it shares no
    rendering with the writer it checks.
    """
    def label(s: QuantizedState) -> str:
        return ",".join(" ".join(str(x) for x in idx) for idx in (s.pos_idx, s.vel_idx))

    def runs(seq: ActionSequence) -> str:
        held = []    # [action, ticks] per maximal run of one action
        for a in seq:
            if held and held[-1][0] == a:
                held[-1][1] += 1
            else:
                held.append([a, 1])
        return " ".join("/".join(str(x) for x in a) + (f"*{k}" if k > 1 else "")
                        for a, k in held)

    lines = ["digraph transitions {"]
    for i, s in enumerate(table.states):
        lines.append(f'  n{i} [label="{label(s)}"];')
    for t in table.transitions:
        a = table.state_index(t.from_state)
        b = table.state_index(t.to_state)
        lines.append(f'  n{a} -> n{b} [label="{runs(t.actions)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_state_from_json(obj: dict) -> QuantizedState:
    pos, vel = tuple(obj["pos"]), tuple(obj["vel"])
    bad = [x for x in pos + vel if type(x) is not int]
    if bad:
        raise ValueError(f"state index {bad[0]!r} is not an integer")
    if len(pos) != len(vel):
        raise ValueError(f"state has {len(pos)} pos and {len(vel)} vel entries")
    return QuantizedState(pos, vel)


def reference_transition_from_json(obj: dict, n_joints, tick) -> Transition:
    frm = reference_state_from_json(obj["from"])
    to = reference_state_from_json(obj["to"])
    n = len(frm.pos_idx) if n_joints is None else n_joints
    if n < 1:
        raise ValueError("state has no joints")
    if len(frm.pos_idx) != n or len(to.pos_idx) != n:
        raise ValueError(
            f"states have {len(frm.pos_idx)} and {len(to.pos_idx)} joints, expected {n}"
        )
    seq = tuple(map(tuple, obj["torque_idx_seq"]))
    bad = [x for a in seq for x in a if type(x) is not int]
    if bad:
        raise ValueError(f"torque index {bad[0]!r} is not an integer")
    if not seq:
        raise ValueError("torque_idx_seq is empty")
    for a in seq:
        if len(a) != n:
            raise ValueError(f"action {list(a)} has {len(a)} torque indices for {n} joints")
        if min(a) < 0:
            raise ValueError(f"action {list(a)} has a negative torque index")
    dur = obj["duration_s"]
    if not (type(dur) in (int, float) and abs(dur) <= sys.float_info.max and dur > 0):
        raise ValueError(f"duration_s must be a positive finite number, got {dur!r}")
    dur = float(dur)
    tick = dur / len(seq) if tick is None else tick
    if abs(dur - len(seq) * tick) > 1e-9 * len(seq) * tick:
        raise ValueError(f"duration_s {dur} is not {len(seq)} ticks of {tick} s")
    return Transition(frm, seq, dur, to)


def reference_read_jsonl(fh) -> TransitionTable:
    """The per-line reader `read_jsonl` replaced, checks and all, kept as its oracle."""
    first = fh.readline()
    if not first:
        raise ConfigError("empty transitions file")
    try:
        header = json.loads(first)
    except (ValueError, RecursionError) as e:
        raise ConfigError(f"bad transitions header: {e}") from None
    if not isinstance(header, dict) or header.get("format") != trn.JSONL_FORMAT:
        raise ConfigError("not a transitions file (missing format header)")
    version, robot_hash = header.get("version"), header.get("robot_hash", "")
    if type(version) is not int or version != trn.JSONL_VERSION:
        raise ConfigError(f"unsupported transitions version {version!r}")
    if not isinstance(robot_hash, str):
        raise ConfigError(f"transitions header: robot_hash {robot_hash!r} is not a string")
    listed = None
    if "states" in header:
        try:
            listed = [reference_state_from_json(obj) for obj in header["states"]]
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as e:
            raise ConfigError(f"transitions header: bad state: {e}") from None
        if len(set(listed)) < len(listed):
            raise ConfigError("transitions header: a state is listed twice")
        widths = sorted({len(s.pos_idx) for s in listed})
        if len(widths) > 1 or 0 in widths:
            raise ConfigError(f"transitions header: states of {widths} joints")
    transitions = []
    n_joints = tick = None
    for lineno, raw in enumerate(fh, start=2):
        raw = raw.strip()
        if not raw:
            continue
        try:
            t = reference_transition_from_json(json.loads(raw), n_joints, tick)
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as e:
            raise ConfigError(f"bad transition on line {lineno}: {e}") from None
        if tick is None:
            n_joints, tick = len(t.from_state.pos_idx), t.duration / len(t.actions)
        for s in (t.from_state, t.to_state):
            if listed is not None and s not in listed:
                raise ConfigError(f"bad transition on line {lineno}: state {s} is not in the header")
        transitions.append(t)
    if listed is None:
        listed = dict.fromkeys(s for t in transitions for s in (t.from_state, t.to_state))
    return TransitionTable(robot_hash, tuple(listed), tuple(transitions))


def serialised(table: TransitionTable) -> tuple[str, str]:
    buf = io.StringIO()
    write_jsonl(table, buf)
    return buf.getvalue(), export_dot(table)


def assert_id_columns(table: TransitionTable) -> None:
    """The id columns are of one length, each id names one of the table's states or
    labels, and every label is used: what each maker builds, as the table takes them."""
    assert len(table._src) == len(table._label) == len(table._dst)
    states = set(range(len(table.states)))
    assert set(table._src) <= states and set(table._dst) <= states
    assert set(table._label) == set(range(len(table.labels)))


def outcome(search, robot, **kw):
    """The table and its JSONL and DOT bytes, or BudgetExceeded if one was raised."""
    try:
        table = search(robot, **kw)
    except BudgetExceeded:
        return BudgetExceeded
    return table, serialised(table)


def read_outcome(reader, text: str):
    """The table `reader` makes of text, or the ConfigError text it raises."""
    try:
        return reader(io.StringIO(text))
    except ConfigError as e:
        return str(e)


def reads_as_reference(text: str):
    """read_jsonl's outcome, asserted to be the reference's, durations bitwise."""
    got, want = read_outcome(read_jsonl, text), read_outcome(reference_read_jsonl, text)
    assert got == want
    if isinstance(got, TransitionTable):
        assert all(type(t.duration) is float for t in got.transitions)
        assert [t.duration.hex() for t in got.transitions] == [
            t.duration.hex() for t in want.transitions]
    return got


# a header and lines in write_jsonl's spacing and key order
HEAD = '{"format": "dtraj-transitions", "robot_hash": "", "version": 1}\n'


def jsonl_line(frm=("0", "0"), seq="[[2]]", dur="0.04", to=("1", "0")) -> str:
    """A line from the texts of its states' pos and vel entries, sequence and duration."""
    (p, v), (q, w) = frm, to
    return (f'{{"from": {{"pos": [{p}], "vel": [{v}]}}, "torque_idx_seq": {seq}, '
            f'"duration_s": {dur}, "to": {{"pos": [{q}], "vel": [{w}]}}}}\n')


def bench_table(pendulum, pendulum_table, robot: str, dedup: str) -> TransitionTable:
    """The demo, two-joint, three-joint or 32 ms demo table, in dedup mode `dedup`."""
    if (robot, dedup) == ("demo", "all"):
        return pendulum_table
    return find_transitions({"demo": pendulum, "two-joint": robot_from_dict(TWO_JOINT),
                             "three-joint": bench_robot(3),
                             "demo-32ms": pendulum._replace(delta_t=0.032)}[robot],
                            dedup=dedup)


class TestSearchGauge:
    """Structure of the full demo-pendulum table, locked against re-derivation."""

    def test_state_count(self, pendulum_table):
        assert len(pendulum_table.states) == 943

    def test_transition_count(self, pendulum_table):
        assert len(pendulum_table.transitions) == 6353

    def test_static_loops(self, pendulum_table):
        # the all-null hold at rest is the only sequence that survives the
        # repetition probe; dithering holds at tilted states do not
        statics = [t for t in pendulum_table.transitions if t.is_static()]
        assert len(statics) == 1
        loop = statics[0]
        assert loop.from_state == ZERO
        assert loop.actions == ((2,),) * 25  # torque index 2 is 0 Nm
        assert loop.duration == pytest.approx(1.0)

    def test_out_degree_at_equilibrium(self, pendulum_table):
        assert len(pendulum_table.outgoing(ZERO)) == 101

    def test_sequence_length_range(self, pendulum_table):
        lens = [len(t.actions) for t in pendulum_table.transitions]
        assert min(lens) == 1
        assert max(lens) == 25

    def test_durations_consistent(self, pendulum_table, pendulum):
        for t in pendulum_table.transitions:
            assert t.duration == pytest.approx(len(t.actions) * pendulum.delta_t)

    def test_closure_and_partition(self, pendulum_table):
        keys = {s.key() for s in pendulum_table.states}
        assert all(t.to_state.key() in keys for t in pendulum_table.transitions)
        assert all(t.from_state.key() in keys for t in pendulum_table.transitions)
        total = sum(len(pendulum_table.outgoing(s)) for s in pendulum_table.states)
        assert total == len(pendulum_table.transitions)


class TestSoundness:
    def test_replay_sample(self, pendulum_table, pendulum):
        # full-table replay lives in the acceptance suite; spot-check here
        sample = pendulum_table.transitions[::13]
        for t in sample:
            end, trace = act_sequence(t.from_state, t.actions, pendulum)
            assert end == t.to_state
            assert validation_check(trace, pendulum)

    def test_prefix_atomicity_sample(self, pendulum_table, pendulum):
        for t in pendulum_table.transitions[::17]:
            if t.is_static():
                continue
            _, trace = act_sequence(t.from_state, t.actions, pendulum)
            for mid in trace[:-1]:
                assert quantize(mid, pendulum) == t.from_state

    def test_static_repetitions_stay_put(self, pendulum_table, pendulum):
        for t in pendulum_table.transitions:
            if not t.is_static():
                continue
            anchor = representative(t.from_state, pendulum)
            state = anchor
            for _ in range(5):
                for a in t.actions:
                    state = integrate_step(state, a, pendulum)
                for k, j in enumerate(pendulum.joints):
                    assert abs(state.q[k] - anchor.q[k]) < j.delta_q

    def test_dithering_holds_rejected(self, pendulum_table):
        # these states admit sequences that stay in-cell for one pass but
        # creep out when replayed; none may appear as self-loops
        loop_origins = {
            t.from_state.pos_idx for t in pendulum_table.transitions if t.is_static()
        }
        for p in (-29, 29, -61, 61):
            assert (p,) not in loop_origins


class TestDegenerateRobots:
    def test_null_torque_only(self):
        table = find_transitions(null_only_robot(), nal=25)
        assert len(table.states) == 1
        assert len(table.transitions) == 1
        t = table.transitions[0]
        assert t.is_static()
        assert t.duration == pytest.approx(25 * 0.04)
        assert len(table.outgoing(ZERO)) == 1

    def test_custom_nal(self):
        table = find_transitions(null_only_robot(), nal=3)
        assert table.transitions[0].actions == ((0,),) * 3

    def test_bad_nal(self):
        with pytest.raises(ConfigError):
            find_transitions(null_only_robot(), nal=0)

    def test_start_off_grid(self, pendulum):
        with pytest.raises(OutOfRange):
            find_transitions(pendulum, start=QuantizedState((500,), (0,)))

    @pytest.mark.parametrize("robot", ["demo", "two-joint"])
    def test_start_of_another_width(self, pendulum, robot):
        robot = pendulum if robot == "demo" else robot_from_dict(TWO_JOINT)
        n = robot.n_joints
        for pos, vel in (((0,) * (n - 1),) * 2, ((0,) * (n + 1),) * 2,
                         ((0,) * n, (0,) * (n + 1)), ((0,) * (n - 1), (0,) * n)):
            with pytest.raises(DomainError, match=re.escape(
                    f"state has {len(pos)} position / {len(vel)} velocity entries, "
                    f"robot has {n} joints")) as caught:
                find_transitions(robot, start=QuantizedState(pos, vel))
            assert caught.type is DomainError

    @pytest.mark.parametrize("pos", [10 ** 400, -10 ** 400, 99999999999999999999999],
                             ids=["10^400", "-10^400", "10^23-1"])
    def test_start_past_the_float_range(self, pendulum, pos):
        # checked as the integers given, not through floats
        with pytest.raises(OutOfRange, match=f"position grid point {pos} outside limits"):
            find_transitions(pendulum, start=QuantizedState((pos,), (0,)))


class TestBudgets:
    # the demo's refusals as whole texts: the progress they report is the
    # search's own, the same in either dedup mode
    @pytest.mark.parametrize("dedup", ["all", "shortest"])
    @pytest.mark.parametrize(("budget", "progress"), [
        (50, "30 sequences simulated, 19 states found so far"),
        (5000, "4790 sequences simulated, 699 states found so far"),
    ])
    def test_sequence_budget(self, pendulum, budget, progress, dedup):
        with pytest.raises(BudgetExceeded) as err:
            find_transitions(pendulum, dedup=dedup, max_sequences=budget)
        assert str(err.value) == f"simulated sequences would exceed budget {budget} ({progress})"

    @pytest.mark.parametrize("dedup", ["all", "shortest"])
    @pytest.mark.parametrize(("budget", "progress"), [
        (10, "30 sequences simulated, 10 states found so far"),
        (500, "3370 sequences simulated, 500 states found so far"),
    ])
    def test_state_budget(self, pendulum, budget, progress, dedup):
        with pytest.raises(BudgetExceeded) as err:
            find_transitions(pendulum, dedup=dedup, max_states=budget)
        assert str(err.value) == f"discovered states exceeded budget {budget} ({progress})"

    @pytest.mark.parametrize(("dedup", "total", "progress"), [
        ("all", 20329, "8075 sequences simulated, 943 states found so far"),
        ("shortest", 5227, "7925 sequences simulated, 943 states found so far"),
    ])
    def test_action_budget(self, pendulum, monkeypatch, dedup, total, progress):
        # the price is the kept transitions' lengths, summed: a budget of the
        # table's own total builds it, one action less refuses its last tick
        table = find_transitions(pendulum, dedup=dedup)
        assert sum(len(t.actions) for t in table.transitions) == total
        monkeypatch.setattr(discovery, "MAX_TABLE_ACTIONS", total)
        assert find_transitions(pendulum, dedup=dedup) == table
        monkeypatch.setattr(discovery, "MAX_TABLE_ACTIONS", total - 1)
        with pytest.raises(BudgetExceeded) as err:
            find_transitions(pendulum, dedup=dedup)
        assert str(err.value) == (f"kept transitions' actions exceeded budget {total - 1} "
                                  f"({total} actions kept, {progress})")

    def test_nothing_scales_with_nal_before_the_budget(self, pendulum):
        # a label's duration is its length in ticks, tabulated for no length up to nal
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded) as err:
                find_transitions(pendulum, nal=2 ** 63, max_sequences=20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == ("simulated sequences would exceed budget 20000 "
                                  "(19995 sequences simulated, 943 states found so far)")
        assert peak < 5e6, peak

    # a tick meets its settled rows in order: with nal 1, four static rows
    # are replayed before the move that breaks budget 40, so an overflow in
    # the third replay is raised and one in the tenth is never reached
    @pytest.mark.parametrize(("failing", "error"), [(3, NumericalOverflow), (10, BudgetExceeded)])
    def test_which_refusal_wins_within_a_tick(self, pendulum, monkeypatch, failing, error):
        replays = []

        def hold(*args):
            replays.append(args)
            if len(replays) == failing:
                raise NumericalOverflow("replay overflowed")
            return static_hold(*args)

        static_hold = discovery._static_hold
        monkeypatch.setattr(discovery, "_static_hold", hold)
        with pytest.raises(error) as err:
            find_transitions(pendulum, nal=1, max_states=40)
        assert len(replays) == min(failing, 4)
        assert str(err.value) == ("replay overflowed" if error is NumericalOverflow else
                                  "discovered states exceeded budget 40 "
                                  "(95 sequences simulated, 40 states found so far)")


class TestDedup:
    def test_shortest_mode_counts(self, pendulum, pendulum_table):
        short = find_transitions(pendulum, dedup="shortest")
        assert len(short.transitions) == 4063
        assert len(short.states) == len(pendulum_table.states)

    def test_shortest_is_subset_and_minimal(self, pendulum, pendulum_table):
        short = find_transitions(pendulum, dedup="shortest")
        best = {}
        for t in pendulum_table.transitions:
            k = (t.from_state.key(), t.to_state.key())
            if k not in best or len(t.actions) < len(best[k]):
                best[k] = t.actions
        seen = set()
        for t in short.transitions:
            k = (t.from_state.key(), t.to_state.key())
            assert k not in seen, "one transition per endpoint pair"
            seen.add(k)
            assert len(t.actions) == len(best[k])
        assert seen == set(best)

    def test_bad_mode(self, pendulum):
        with pytest.raises(ConfigError):
            find_transitions(pendulum, dedup="longest")


class TestTableApi:
    def test_unknown_state(self, pendulum_table):
        # (67, -3) is on the grid but unreachable: nothing arrives at the
        # upper position limit moving at the negative velocity limit
        with pytest.raises(UnknownState):
            pendulum_table.outgoing(QuantizedState((67,), (-3,)))
        with pytest.raises(UnknownState):
            pendulum_table.state_index(QuantizedState((999,), (0,)))

    def test_restrict_to_first(self, pendulum_table):
        sub = pendulum_table.restrict_to_first(20)
        assert len(sub.states) == 20
        assert sub.states == pendulum_table.states[:20]
        assert len(sub.transitions) == 190
        keys = {s.key() for s in sub.states}
        for t in sub.transitions:
            assert t.from_state.key() in keys and t.to_state.key() in keys


    def test_restrict_to_first_refuses_a_negative_k(self, pendulum_table):
        with pytest.raises(DomainError, match="restrict_to_first needs k >= 0, got -1"):
            pendulum_table.restrict_to_first(-1)

    def test_quotient(self):
        s = [QuantizedState((i,), (0,)) for i in range(3)]
        edges = [(1, 0), (0, 2), (1, 1), (0, 0), (1, 0)]
        table = TransitionTable("sha256:x", tuple(s), tuple(
            Transition(s[a], ((0,),), 0.04, s[b]) for a, b in edges))
        idx = table.quotient()
        assert idx is table.quotient()
        class_of, dst, row_start = idx
        # out-degrees 2, 3 and 0 tell every state apart; a row is its sorted
        # destination classes, multiplicity kept, and state 2 has none, so its
        # row is the padding [3], the class count
        assert class_of == [0, 1, 2]
        assert dst.tolist() == [0, 2, 0, 0, 1, 3]
        assert row_start.tolist() == [0, 2, 5, 6]
        assert max(np.diff(row_start)) == 3

    def test_quotient_merges_states_whose_rows_lead_to_the_same_classes(self):
        # 0 and 1 each have a loop and an edge to the sink 2; 3 reaches 0 twice
        s = [QuantizedState((i,), (0,)) for i in range(4)]
        edges = [(0, 0), (0, 2), (1, 2), (1, 1), (3, 0), (3, 0)]
        table = TransitionTable("sha256:x", tuple(s), tuple(
            Transition(s[a], ((0,),), 0.04, s[b]) for a, b in edges))
        class_of, dst, row_start = table.quotient()
        assert class_of == [0, 0, 1, 2]
        # the sink's class gets the padding row [3], the class count
        assert [dst[a:b].tolist() for a, b in zip(row_start, row_start[1:])] == [
            [0, 1], [3], [0, 0]]

    def test_constructor_takes_only_the_three_fields(self):
        # an index passed in would be trusted by the walk counter: a one-edge
        # table with this quotient would count 3 walks, not 1
        s = QuantizedState((0,), (0,))
        one_edge = (Transition(s, ((0,),), 0.04, s),)
        with pytest.raises(TypeError):
            TransitionTable("h", (s,), one_edge, _quotient=(
                [0], np.zeros(3, dtype=np.int64), np.array([0, 3])))
        with pytest.raises(TypeError):
            TransitionTable("h", (s,), one_edge, _index={s: 0})

    def test_ids_are_enough_from_discovery_to_a_listing(self, pendulum, pendulum_table,
                                                        monkeypatch):
        from dtraj.trajectories import count_trajectories, enumerate_trajectories

        texts = serialised(pendulum_table)
        monkeypatch.setattr(trn, "Transition", None)    # building one would raise
        for table in (find_transitions(pendulum), read_jsonl(io.StringIO(texts[0]))):
            assert serialised(table) == texts
            trn.check_torque_menu(table, pendulum)
            walks = list(enumerate_trajectories(table, table.states[:5], 2))
            counts = count_trajectories(table, 2)
            assert len(walks) == sum(counts[s] for s in table.states[:5])

    # discovery and the reader hand a table id columns: (from, label, to); the table
    # takes them unchecked, so assert_id_columns is what refuses a broken maker's ids
    @pytest.mark.parametrize("columns", [([1], [0], [0]), ([0], [1], [0]), ([0], [0], [-1]),
                                         ([0, 0], [0], [0])],
                             ids=["from", "label", "to", "lengths"])
    def test_id_columns_are_range_checked(self, columns):
        s = QuantizedState((0,), (0,))
        one_label = ((((0,),), 0.04),)
        with pytest.raises(AssertionError):
            assert_id_columns(TransitionTable._from_ids("h", (s,), one_label, *columns, True))
        assert_id_columns(TransitionTable._from_ids("h", (s,), one_label, [0], [0], [0], True))

    def test_ids_build_the_constructors_table(self):
        s = QuantizedState((0,), (0,))
        assert TransitionTable._from_ids("h", (s,), ((((0,),), 0.04),), [0], [0], [0], True) == (
            TransitionTable("h", (s,), (Transition(s, ((0,),), 0.04, s),)))

    def test_equal_to_its_read_back_whatever_was_built(self, pendulum_table):
        buf = io.StringIO()
        write_jsonl(pendulum_table, buf)
        back, again = (read_jsonl(io.StringIO(buf.getvalue())) for _ in range(2))
        back.quotient()
        assert back == again and again == back
        assert back == pendulum_table
        renamed = TransitionTable("sha256:other", again.states, again.transitions)
        assert renamed != again
        assert again != (again.robot_hash, again.states, again.transitions)

    def test_a_state_is_its_own_key(self, pendulum_table):
        for i, s in enumerate(pendulum_table.states):
            assert s == s.key() and hash(s) == hash(s.key())
            assert pendulum_table.state_index(QuantizedState(*s.key())) == i

    def test_torque_menu(self, pendulum):
        robot = robot_from_dict(TWO_JOINT)
        s = QuantizedState((0, 0), (0, 0))

        def table(*actions):
            return TransitionTable("sha256:x", (s,), tuple(
                Transition(s, (a,), 0.04, s) for a in actions))

        trn.check_torque_menu(table((2, 0), (0, 2)), robot)
        trn.check_torque_menu(table(), robot)
        with pytest.raises(ConfigError, match="joint j2: torque index 4 is outside its menu of 3"):
            trn.check_torque_menu(table((2, 0), (0, 3), (0, 4)), robot)
        # a table's joint count is its actions' width, or its states' without transitions
        for two_joints in (table((2, 0)), table()):
            with pytest.raises(ConfigError, match="joint count 2 is not the robot config's 1"):
                trn.check_torque_menu(two_joints, pendulum)


class TestDotExport:
    def test_single_selfloop_graph(self):
        table = find_transitions(null_only_robot(), nal=2)
        dot = export_dot(table)
        assert dot == (
            'digraph transitions {\n'
            '  n0 [label="0,0"];\n'
            '  n0 -> n0 [label="0*2"];\n'
            '}\n'
        )

    def test_deterministic(self, pendulum_table):
        assert export_dot(pendulum_table) == export_dot(pendulum_table)

    def test_labels(self):
        assert state_label(QuantizedState((3, -1), (0, 2))) == "3 -1,0 2"


class TestJsonl:
    def test_round_trip(self, pendulum_table):
        buf = io.StringIO()
        write_jsonl(pendulum_table, buf)
        buf.seek(0)
        back = read_jsonl(buf)
        assert back.robot_hash == pendulum_table.robot_hash
        assert back.states == pendulum_table.states
        assert back.transitions == pendulum_table.transitions

    def test_header_required(self):
        with pytest.raises(ConfigError):
            read_jsonl(io.StringIO(""))
        with pytest.raises(ConfigError):
            read_jsonl(io.StringIO('{"format":"something-else","version":1}\n'))
        with pytest.raises(ConfigError):
            read_jsonl(io.StringIO('{"format":"dtraj-transitions","version":9}\n'))

    @pytest.mark.parametrize("header, reason", [
        ('"version":true', "unsupported transitions version True"),
        ('"version":1.0', "unsupported transitions version 1.0"),
        ('"version":"1"', "unsupported transitions version '1'"),
        ('"version":1,"robot_hash":7', "transitions header: robot_hash 7 is not a string"),
        ('"version":1,"robot_hash":null', "robot_hash None is not a string"),
        ('"version":1,"states":null', "transitions header: bad state: 'NoneType' object"),
        ('"version":1,"states":[{"pos":[0]}]', "transitions header: bad state: 'vel'"),
        ('"version":1,"states":[{"pos":[0],"vel":[0]},{"pos":[0],"vel":[0]}]',
         "transitions header: a state is listed twice"),
        ('"version":1,"states":[{"pos":[0],"vel":[0]},{"pos":[0,0],"vel":[0,0]}]',
         "transitions header: states of [1, 2] joints"),
        ('"version":1,"states":[{"pos":[],"vel":[]}]', "transitions header: states of [0] joints"),
    ])
    def test_malformed_header_rejected(self, header, reason):
        text = '{"format":"dtraj-transitions",' + header + '}\n'
        with pytest.raises(ConfigError, match=re.escape(reason)):
            read_jsonl(io.StringIO(text))

    def test_a_state_on_no_line_is_kept(self, pendulum):
        # every action from (67, 3) leaves the limits, so discovery finds the
        # start alone; restricted to its first state, the three-state table
        # keeps no transition
        lone = find_transitions(pendulum, start=QuantizedState((67,), (3,)))
        assert (len(lone.states), len(lone.transitions)) == (1, 0)
        first = read_jsonl(io.StringIO(table_text(THREE_STATE_TABLE))).restrict_to_first(1)
        assert (len(first.states), len(first.transitions)) == (1, 0)
        for table in (lone, first):
            text = serialised(table)[0]
            assert json.loads(text.splitlines()[0])["states"] == [
                trn._state_to_json(s) for s in table.states]
            assert reads_as_reference(text) == table

    def test_a_line_off_the_header_states_is_refused(self):
        listed = ('{"format": "dtraj-transitions", "robot_hash": "", "states": '
                  '[{"pos": [0], "vel": [0]}, {"pos": [1], "vel": [0]}], "version": 1}\n')
        # off the list on the first line, read whole, and on a later line,
        # read by its texts
        for lines, lineno in (([jsonl_line(to=("2", "0"))], 2),
                              ([jsonl_line(), jsonl_line(frm=("2", "0"))], 3)):
            assert reads_as_reference(listed + "".join(lines)) == (
                f"bad transition on line {lineno}: state {QuantizedState((2,), (0,))} "
                "is not in the header")
        assert reads_as_reference(listed + jsonl_line()).states == (
            QuantizedState((0,), (0,)), QuantizedState((1,), (0,)))

    def test_integer_durations_and_a_missing_hash_are_valid(self):
        text = (
            '{"format":"dtraj-transitions","version":1}\n'
            '{"from":{"pos":[0],"vel":[0]},"torque_idx_seq":[[2]],"duration_s":1,'
            '"to":{"pos":[1],"vel":[0]}}\n'
            '{"from":{"pos":[1],"vel":[0]},"torque_idx_seq":[[2],[2]],"duration_s":2,'
            '"to":{"pos":[0],"vel":[0]}}\n'
        )
        table = read_jsonl(io.StringIO(text))
        assert table.robot_hash == ""
        assert [t.duration for t in table.transitions] == [1.0, 2.0]
        assert all(type(t.duration) is float for t in table.transitions)

    def test_bad_line_reported(self):
        text = (
            '{"format":"dtraj-transitions","version":1,"robot_hash":"sha256:x"}\n'
            '{"from":{"pos":[0],"vel":[0]}}\n'
        )
        with pytest.raises(ConfigError, match="line 2"):
            read_jsonl(io.StringIO(text))
        assert reads_as_reference(HEAD + jsonl_line(("", ""), to=("", ""))) == (
            "bad transition on line 2: state has no joints")

    @pytest.mark.parametrize("line, reason", [
        ('"from":{"pos":[0],"vel":[0]},"torque_idx_seq":[],"duration_s":0.04', "empty"),
        ('"from":{"pos":[0],"vel":[0]},"torque_idx_seq":[[2]],"duration_s":NaN', "duration"),
        ('"from":{"pos":[0],"vel":[0]},"torque_idx_seq":[[2]],"duration_s":Infinity', "duration"),
        ('"from":{"pos":[0],"vel":[0]},"torque_idx_seq":[[2]],"duration_s":0', "duration"),
        ('"from":{"pos":[0],"vel":[0]},"torque_idx_seq":[[2]],"duration_s":-0.04', "duration"),
        ('"from":{"pos":[0],"vel":[0]},"torque_idx_seq":[[-1]],"duration_s":0.04', "negative"),
        ('"from":{"pos":[0],"vel":[0]},"torque_idx_seq":[[2,2]],"duration_s":0.04', "2 torque"),
        ('"from":{"pos":[1],"vel":[2,0]},"torque_idx_seq":[[2]],"duration_s":0.04',
         "1 pos and 2 vel"),
        ('"from":{"pos":[0,0],"vel":[0,0]},"torque_idx_seq":[[2,2]],"duration_s":0.04',
         "expected 1"),
        ('"from":{"pos":[0],"vel":[0]},"torque_idx_seq":[[2],[2]],"duration_s":0.04',
         "duration_s 0.04 is not 2 ticks of 0.04"),
        ('"from":{"pos":[0],"vel":[0]},"torque_idx_seq":[[2]],"duration_s":0.0400001',
         "duration"),
        ('"from":{"pos":[0],"vel":[0]},"torque_idx_seq":[[2]],"duration_s":true',
         "duration_s must be a positive finite number, got True"),
        ('"from":{"pos":[0],"vel":[0]},"torque_idx_seq":[[2]],"duration_s":"0.04"',
         "duration_s must be a positive finite number, got '0.04'"),
        ('"from":{"pos":[0],"vel":[0]},"torque_idx_seq":[[2]],"duration_s":null',
         "duration_s must be a positive finite number, got None"),
        ('"from":{"pos":[0],"vel":[0]},"torque_idx_seq":[[2]],"duration_s":[0.04]',
         "duration_s must be a positive finite number"),
        ('"from":{"pos":[0],"vel":[0]},"torque_idx_seq":[["2"]],"duration_s":0.04',
         "torque index '2' is not an integer"),
        ('"from":{"pos":[0],"vel":[0]},"torque_idx_seq":[[1.5]],"duration_s":0.04',
         "torque index 1.5 is not an integer"),
        ('"from":{"pos":[0],"vel":[0]},"torque_idx_seq":[[2.0]],"duration_s":0.04',
         "torque index 2.0 is not an integer"),
        ('"from":{"pos":[0],"vel":[0]},"torque_idx_seq":[[true]],"duration_s":0.04',
         "torque index True is not an integer"),
        ('"from":{"pos":[1.5],"vel":[0]},"torque_idx_seq":[[2]],"duration_s":0.04',
         "state index 1.5 is not an integer"),
        ('"from":{"pos":[true],"vel":[0]},"torque_idx_seq":[[2]],"duration_s":0.04',
         "state index True is not an integer"),
        ('"from":{"pos":[0],"vel":[1.5]},"torque_idx_seq":[[2]],"duration_s":0.04',
         "state index 1.5 is not an integer"),
        ('"from":{"pos":[0],"vel":[true]},"torque_idx_seq":[[2]],"duration_s":0.04',
         "state index True is not an integer"),
        ('"from":{"pos":[0],"vel":[null]},"torque_idx_seq":[[2]],"duration_s":0.04',
         "state index None is not an integer"),
    ])
    def test_malformed_line_rejected(self, line, reason):
        good = '{"from":{"pos":[0],"vel":[0]},"torque_idx_seq":[[2]],"duration_s":0.04,' \
               '"to":{"pos":[1],"vel":[0]}}\n'
        text = (
            '{"format":"dtraj-transitions","version":1,"robot_hash":"sha256:x"}\n'
            + good
            + "{" + line + ',"to":{"pos":[1],"vel":[0]}}\n'
        )
        with pytest.raises(ConfigError, match=f"line 3: .*{reason}"):
            read_jsonl(io.StringIO(text))

    def test_duration_within_relative_tolerance(self):
        # 3 * 0.04 is 0.12000000000000001 in floats; a writer that rounds is fine
        text = (
            '{"format":"dtraj-transitions","version":1,"robot_hash":"sha256:x"}\n'
            '{"from":{"pos":[0],"vel":[0]},"torque_idx_seq":[[2]],"duration_s":0.04,'
            '"to":{"pos":[1],"vel":[0]}}\n'
            '{"from":{"pos":[1],"vel":[0]},"torque_idx_seq":[[2],[2],[2]],"duration_s":0.12,'
            '"to":{"pos":[0],"vel":[0]}}\n'
        )
        assert len(read_jsonl(io.StringIO(text)).transitions) == 2

    def test_byte_determinism(self, pendulum, pendulum_table):
        again = find_transitions(pendulum)
        a, b = io.StringIO(), io.StringIO()
        write_jsonl(pendulum_table, a)
        write_jsonl(again, b)
        assert a.getvalue() == b.getvalue()


# ---------------------------------------------------------------------------
# the frontier search against the state-by-state oracle


@st.composite
def small_robots(draw):
    """1-2 joints of 1-3 cells either side of 0, 2-4 torques, and a grid start.

    Menus are drawn from strong torques so that trees close well inside the
    sequence budget; half of them lack a zero torque.
    """
    joints, pos, vel = [], [], []
    for i in range(draw(st.integers(1, 2))):
        dq = draw(st.sampled_from([4.0, 6.0, 8.0])) * DEG
        cells = draw(st.integers(1, 3))
        v_cells = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        zero = draw(st.booleans())
        menu = draw(st.lists(st.sampled_from([-90.0, -70.0, -50.0, 50.0, 70.0, 90.0]),
                             min_size=2 - zero, max_size=4 - zero, unique=True))
        menu += [0.0] * zero
        joints.append(JointSpec(
            name=f"j{i}", q_min=-cells * dq, q_max=cells * dq, delta_q=dq,
            v_min=-v_cells[0] * dq / 0.04, v_max=v_cells[1] * dq / 0.04,
            mass=1.0, length=1.0, torques=tuple(sorted(menu)),
        ))
        pos.append(draw(st.integers(-cells, cells)))
        vel.append(draw(st.integers(-v_cells[0], v_cells[1])))
    robot = RobotSpec(delta_t=0.04, gravity=9.81, joints=tuple(joints))
    return robot, QuantizedState(tuple(pos), tuple(vel))


# one cell of 4 deg either side of 0: at nal 3 a sequence holds its cell for
# four passes and escapes on the fifth, so the static-hold rule's pass count
# and its one-cell anchor both show in the table
CREEPING_HOLD = RobotSpec(delta_t=0.04, gravity=9.81, joints=(JointSpec(
    name="j0", q_min=-4 * DEG, q_max=4 * DEG, delta_q=4 * DEG, v_min=-200 * DEG,
    v_max=200 * DEG, mass=1.0, length=1.0, torques=(-90.0, 0.0, 50.0)),))


class TestAgainstOracle:
    @pytest.mark.parametrize("dedup", ["all", "shortest"])
    def test_demo(self, pendulum, pendulum_table, dedup):
        want = reference_find_transitions(pendulum, dedup=dedup)
        got = pendulum_table if dedup == "all" else find_transitions(pendulum, dedup=dedup)
        assert got == want
        assert serialised(got) == serialised(want)

    @pytest.mark.parametrize("dedup", ["all", "shortest"])
    def test_two_joint(self, dedup):
        robot = robot_from_dict(TWO_JOINT)
        want = reference_find_transitions(robot, dedup=dedup)
        got = find_transitions(robot, dedup=dedup)
        assert (len(got.states), len(got.transitions)) == (
            (225, 1745) if dedup == "all" else (225, 833))
        assert got == want
        assert serialised(got) == serialised(want)

    # sha256 of the JSONL and DOT bytes as literals. The oracle integrates by
    # the scalar `integrate_step`, discovery by the array kernel
    # `integrate_frontier`: the comparisons above see a change to the kernel
    # alone, but one made to both integrators alike (SUBSTEPS, say) moves both
    # sides, and only a literal sees it. The 32 ms demo's ticks reach 5,090
    # rows and it replays 2,885 static-hold candidates; the 40 ms demo's never
    # pass 385 rows and it has 5. The three-joint robot's 3,375 states have
    # 27 children a parent, the widest fan-out pinned here.
    PINNED = {
        ("demo", "all"): ("f471d6395df122cf37f2a6c994736dee69577c4cc0bc905f44f57c3ffe1ecd17",
                          "ecc9f352757d95e0ce348728f89309b8375bd80f0108d4edc08cf60afd7d3e2d"),
        ("demo", "shortest"): ("008042083fd907b56c3df5bddd575428955fd5a9c61b61e86a08ecaa1cee28b7",
                               "8e92d6a3d8a32bae8b58050623cc40207f08c1433edb4819c841d89287e40af4"),
        ("two-joint", "all"): ("83524d4452f7cef85f2fcc14bfb1b0c15103c88aa96028a7cbcd814a2ff2bb1b",
                               "5b4ce69d71371bd36393c8703bdf5faa74c45b019a9ee53d016c0b17b4e05ac9"),
        ("two-joint", "shortest"): (
            "2f3b8ea35afd7e6d9c6a4f0a928a706bd497d4853e0455551b32eb3a23152242",
            "e1821468626b5e4fc9e85a0dc98f884961c01b102ffc65ebbdfe2e759f1dd9f2"),
        ("demo-32ms", "all"): (
            "5171dedd9c876467eb0a8acac9d024a041a6471162a3a09547042a025bd16ef2",
            "c43d7ac43fc58049b848b8959f75d93a9455fc28c45c32a7f041596ee0a8777b"),
        ("demo-32ms", "shortest"): (
            "06e3e32500632a6bc4fc35b41ab8f9790ae82cbcbdca9fc32b5dfc84abfa8c42",
            "cb671c1b5447f1fed55b4835e8d2bf8a006c7047d8e7e86c32b8f77a4a551ad3"),
        ("three-joint", "all"): (
            "9a4733d65731adc1a68f2b5c2b5646d87d3872435aea01e0f3a3ad2c7637281a",
            "6e65bce06b9ad43bd4d9ff49271aed9d1d30202c562893e6d3061f4fbbf4a825"),
        ("three-joint", "shortest"): (
            "b9266a1222f49655afae3f884d63c86b253d7cd525e2774528c57982c2d164b2",
            "a51315bb6dd9d4c4ef96b98acc919b8d2e8a0cbc822d7790f2d3ff300350017c"),
    }

    @pytest.mark.parametrize(("robot", "dedup"), sorted(PINNED))
    def test_bytes_are_pinned(self, pendulum, pendulum_table, robot, dedup):
        table = bench_table(pendulum, pendulum_table, robot, dedup)
        digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in serialised(table))
        assert digests == self.PINNED[robot, dedup]

    # one label per distinct (sequence, duration): the trees share one trie,
    # so a sequence that settles in several trees is one label, which the
    # bytes above would not show
    @pytest.mark.parametrize(("robot", "count"),
                             [("demo", 416), ("two-joint", 204), ("three-joint", 654)])
    def test_each_label_is_held_once(self, pendulum, pendulum_table, robot, count):
        table = bench_table(pendulum, pendulum_table, robot, "all")
        assert len(table.labels) == len(set(table.labels)) == count
        assert_id_columns(table)

    @settings(max_examples=60, deadline=None)
    @given(small_robots(), st.integers(1, 25), st.sampled_from(["all", "shortest"]))
    @example((CREEPING_HOLD, ZERO), 3, "all")
    @example((CREEPING_HOLD, ZERO), 3, "shortest")
    def test_small_robots(self, robot_and_start, nal, dedup):
        robot, start = robot_and_start
        kw = dict(start=start, nal=nal, dedup=dedup, max_sequences=20_000)
        if all(0.0 in j.torques for j in robot.joints):
            check = contextlib.nullcontext()
        else:
            # validation refuses a menu without a zero torque; the search does
            # not depend on one, so such menus are compared with it switched off
            with pytest.raises(DomainError, match="must contain 0"):
                robot.validate()
            check = mock.patch.object(JointSpec, "validate", lambda self: None)
        with check:
            found = outcome(find_transitions, robot, **kw)
            assert found == outcome(reference_find_transitions, robot, **kw)
        if found is not BudgetExceeded:
            table, (text, _) = found
            assert len(table.labels) == len(set(table.labels))
            assert_id_columns(table)
            assert reads_as_reference(text) == table


class TestReaderAgainstReference:
    @pytest.mark.parametrize("robot", ["demo", "two-joint"])
    @pytest.mark.parametrize("dedup", ["all", "shortest"])
    def test_bench_tables(self, pendulum, pendulum_table, robot, dedup):
        table = bench_table(pendulum, pendulum_table, robot, dedup)
        back = reads_as_reference(serialised(table)[0])
        assert back == table
        assert_id_columns(back)

    # each table's lines twice, so a mutated line is read both before and
    # after the lines that share its texts
    MUTATED = {"one-joint": THREE_STATE_TABLE + THREE_STATE_TABLE[1:],
               "two-joint": TWO_JOINT_TABLE + TWO_JOINT_TABLE[1:]}

    @pytest.mark.parametrize(("name", "k"), [(name, k) for name, lines in MUTATED.items()
                                             for k in range(len(lines))])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_one_field_mutations(self, name, k, data):
        lines = self.MUTATED[name]
        line = data.draw(one_field_mutation(lines[k]))
        reads_as_reference(table_text(lines[:k] + [line] + lines[k + 1:]))

    # lines of the writer's shape: valid ones, and any text the shape admits
    # (mostly invalid JSON or refused by a check), after a valid first line
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([
        jsonl_line(), jsonl_line(("1", "0"), to=("-0", "0")),
        jsonl_line(seq="[[2], [0]]", dur="0.08"), jsonl_line(dur="4e-2", to=("0", "0")),
    ]) | st.from_regex(trn._LINE, fullmatch=True).map("{}\n".format), max_size=6))
    def test_lines_of_the_writer_shape(self, lines):
        reads_as_reference(HEAD + jsonl_line() + "".join(lines))

    def test_a_duration_is_checked_for_each_tick_count(self):
        text = HEAD + jsonl_line() + jsonl_line(("1", "0"), to=("0", "0")) + jsonl_line(
            seq="[[2], [2]]")
        assert reads_as_reference(text) == (
            "bad transition on line 4: duration_s 0.04 is not 2 ticks of 0.04 s")

    def test_a_first_duration_is_checked_again_where_it_recurs(self):
        # 1e-320 s over 3 ticks is a subnormal tick, and 3 of them are not 1e-320 s:
        # the first line meets the tick it sets, alone or before its repeat
        line = jsonl_line(seq="[[2], [2], [2]]", dur="1e-320")
        message = "duration_s 1e-320 is not 3 ticks of 3.335e-321 s"
        for text in (HEAD + line, HEAD + line + line):
            assert reads_as_reference(text) == f"bad transition on line 2: {message}"
        s = QuantizedState((0,), (0,))
        with pytest.raises(ValueError, match=re.escape(message)):
            TransitionTable("h", (s,), (Transition(s, ((2,),) * 3, 1e-320, s),))

    def test_an_empty_sequence_is_refused_alike(self):
        # before its duration is read: 0 ticks would give no tick to check it against
        message = "torque_idx_seq is empty"
        assert reads_as_reference(HEAD + jsonl_line(seq="[]")) == (
            f"bad transition on line 2: {message}")
        s = QuantizedState((0,), (0,))
        with pytest.raises(ValueError, match=f"^{message}$"):
            TransitionTable("h", (s,), (Transition(s, (), 0.04, s),))

    @pytest.mark.parametrize(("frm", "to", "verdict"), [
        (("1", "-0"), ("-0", "0"), None),
        (("1", "01"), ("01", "0"), "bad transition on line 3: Expecting ',' delimiter"),
        # a from-state of the wrong width still gets the whole line's JSON error
        (("1, 0", "0, 0"), ("01", "0"), "bad transition on line 3: Expecting ',' delimiter"),
    ])
    def test_index_texts(self, frm, to, verdict):
        text = HEAD + jsonl_line() + jsonl_line(frm, to=to)
        got = reads_as_reference(text)
        if verdict is None:
            assert got.states == (ZERO, QuantizedState((1,), (0,)))
        else:
            assert got.startswith(verdict)

    @pytest.mark.parametrize(("dur", "verdict"), [
        ("4e-2", None),
        ("+0.04", "bad transition on line 3: Expecting value"),
    ])
    def test_duration_texts(self, dur, verdict):
        text = HEAD + jsonl_line() + jsonl_line(("1", "0"), dur=dur, to=("0", "0"))
        got = reads_as_reference(text)
        if verdict is None:
            assert [t.duration for t in got.transitions] == [0.04, 0.04]
        else:
            assert got.startswith(verdict)

    @pytest.mark.parametrize(("frm", "to", "widths"), [
        (("1, 0", "0, 0"), ("0, 0", "0, 0"), "2 and 2"),
        (("1", "0"), ("0, 0", "0, 0"), "1 and 2"),
    ])
    def test_a_state_of_another_width(self, frm, to, widths):
        text = HEAD + jsonl_line() + jsonl_line(frm, to=to)
        assert reads_as_reference(text) == (
            f"bad transition on line 3: states have {widths} joints, expected 1")

    @pytest.mark.parametrize("spelling", [
        pytest.param(None, id="canonical"),
        pytest.param(lambda obj: json.dumps(obj, separators=(",", ":")), id="compact"),
        pytest.param(lambda obj: json.dumps(dict(reversed(obj.items()))), id="reordered"),
        pytest.param(lambda obj: json.dumps({**obj, "from": {**obj["from"], "x": 1}}),
                     id="extra-key"),
        # a blank line, empty or of spaces only, is skipped
        pytest.param(lambda obj: "\n \n" + json.dumps(obj), id="blank-lines"),
    ])
    def test_any_spelling_reads_alike(self, pendulum_table, spelling):
        text = serialised(pendulum_table)[0]
        if spelling:
            # every other line respelled, so both kinds of line share their texts
            head, *lines = text.splitlines(keepends=True)
            text = head + "".join(spelling(json.loads(line)) + "\n" if k % 2 else line
                                  for k, line in enumerate(lines))
        table = reads_as_reference(text)
        assert table == pendulum_table
        # one object per distinct state, the one in table.states, and per sequence
        for t in table.transitions:
            assert table.states[table.state_index(t.from_state)] is t.from_state
            assert table.states[table.state_index(t.to_state)] is t.to_state
        sequences = [t.actions for t in table.transitions]
        assert len(set(map(id, sequences))) == len(set(sequences)) == 416

    def test_a_table_of_the_writer_shape_is_read_by_its_texts(self, pendulum_table,
                                                                monkeypatch):
        text = serialised(pendulum_table)[0]
        parsed, loads = [], json.loads

        def counted(s, *args, **kw):
            parsed.append(s)
            return loads(s, *args, **kw)

        monkeypatch.setattr(trn.json, "loads", counted)
        assert read_jsonl(io.StringIO(text)) == pendulum_table
        # the header, then each distinct state, sequence and (duration, length) once
        assert len(parsed) == 1 + 943 + 416 + 25
        assert not any(s.startswith('{"from"') for s in parsed)


class TestBudgetUnit:
    def test_exact_budgets(self, pendulum, pendulum_table):
        stats = {}
        want = reference_find_transitions(pendulum, stats=stats)
        n, s = stats["simulated"], len(want.states)
        assert find_transitions(pendulum, max_sequences=n) == pendulum_table
        assert find_transitions(pendulum, max_states=s) == pendulum_table
        with pytest.raises(BudgetExceeded, match="sequence"):
            find_transitions(pendulum, max_sequences=n - 1)
        with pytest.raises(BudgetExceeded, match="states exceeded"):
            find_transitions(pendulum, max_states=s - 1)

    @pytest.mark.parametrize("budget", [1, 5, 6, 50, 1_000, 8_074])
    def test_never_simulates_past_the_budget(self, pendulum, monkeypatch, budget):
        rows = []
        real = dynamics.integrate_frontier

        def counted(q, *args, **kw):
            rows.append(len(q))
            return real(q, *args, **kw)

        monkeypatch.setattr(dynamics, "integrate_frontier", counted)
        with pytest.raises(BudgetExceeded) as err:
            find_transitions(pendulum, max_sequences=budget)
        done, found = map(int, re.search(r"(\d+) sequences simulated, (\d+) states found",
                                         str(err.value)).groups())
        assert sum(rows) == done <= budget      # one joint: one row per sequence
        assert found >= 1

    def test_state_budget_reports_progress(self, pendulum):
        with pytest.raises(BudgetExceeded, match=r"budget 10 \(\d+ sequences simulated, 10 states"):
            find_transitions(pendulum, max_states=10)


class TestRepeatedTick:
    # on the two-joint robot, ticks 13 to 25 hold the same 9 rows: the rest
    # state's all-zero prefix, which stays bitwise at (0, 0, 0, 0), and its
    # children. Each such tick takes the tick before's outcome, and its rows
    # count as simulated all the same
    @pytest.fixture
    def frontier_rows(self, monkeypatch):
        rows = []
        real = dynamics.integrate_frontier

        def counted(q, *args, **kw):
            rows.append(len(q))
            return real(q, *args, **kw)

        monkeypatch.setattr(dynamics, "integrate_frontier", counted)
        return rows

    @pytest.mark.parametrize("dedup", ["all", "shortest"])
    def test_a_repeated_tick_is_not_integrated_again(self, frontier_rows, dedup):
        robot = robot_from_dict(TWO_JOINT)
        stats = {}
        want = reference_find_transitions(robot, dedup=dedup, stats=stats)
        assert find_transitions(robot, dedup=dedup, max_sequences=stats["simulated"]) == want
        assert len(frontier_rows) == 12
        assert sum(frontier_rows) + 13 * 9 == stats["simulated"] == 3537

    # refused before a repeated tick, as the tick it repeats would have been
    @pytest.mark.parametrize("dedup", ["all", "shortest"])
    @pytest.mark.parametrize(("budget", "done"), [(3429, 3429), (3536, 3528)])
    def test_refusals_among_repeated_ticks(self, frontier_rows, budget, done, dedup):
        with pytest.raises(BudgetExceeded) as err:
            find_transitions(robot_from_dict(TWO_JOINT), dedup=dedup, max_sequences=budget)
        assert str(err.value) == (f"simulated sequences would exceed budget {budget} "
                                  f"({done} sequences simulated, 225 states found so far)")
        assert sum(frontier_rows) == 3420

    # the kernel calls and rows of each bench search, so that the child
    # bookkeeping can neither integrate a row twice nor skip one. Both are
    # seeded: the demo's rows include its two unreached states' trees
    @pytest.mark.parametrize(("robot", "calls", "rows"),
                             [("demo", 25, 8085), ("two-joint", 10, 3402)])
    def test_each_bench_search_integrates_each_row_once(self, pendulum, frontier_rows,
                                                        robot, calls, rows):
        find_transitions(pendulum if robot == "demo" else robot_from_dict(TWO_JOINT))
        assert (len(frontier_rows), sum(frontier_rows)) == (calls, rows)


class TestFixedPointHold:
    @pytest.fixture
    def steps(self, monkeypatch):
        calls = []
        real = dynamics.integrate_step

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(dynamics, "integrate_step", counted)
        return calls

    # at rest, zero torque keeps every joint at 0.0 bit for bit: the first
    # pass ends on the cell centre, and every replay would repeat it
    @pytest.mark.parametrize("name", ["demo", "two-joint"])
    def test_rest_holds_without_a_replay(self, pendulum, steps, name):
        robot = pendulum if name == "demo" else robot_from_dict(TWO_JOINT)
        rest = QuantizedState((0,) * robot.n_joints, (0,) * robot.n_joints)
        seq = (tuple(j.torques.index(0.0) for j in robot.joints),) * DEFAULT_NAL
        assert reference_static_hold(rest, seq, robot)
        end = act_sequence(rest, seq, robot)[1][-1]
        assert struct.pack(f"{2 * robot.n_joints}d", *end.q, *end.v) == bytes(16 * robot.n_joints)
        steps.clear()
        assert discovery._static_hold(rest, seq, end, robot) is True
        assert steps == []

    def test_only_a_fixed_point_skips_its_replay(self, steps, monkeypatch):
        # CREEPING_HOLD's static candidates at nal 3, as the seeded search
        # meets them: rest's is a fixed point, while those a cell down and a
        # cell up creep off their centres, are replayed four passes and
        # escape on the fifth. The start never reaches the cell down
        met = []
        hold = discovery._static_hold

        def recorded(s, seq, cont, robot):
            steps.clear()
            held = hold(s, seq, cont, robot)
            met.append((s, seq, cont == representative(s, robot), len(steps), held))
            return held

        monkeypatch.setattr(discovery, "_static_hold", recorded)
        table = find_transitions(CREEPING_HOLD, nal=3)
        zeros = ((1,),) * 3
        down, up = QuantizedState((-1,), (0,)), QuantizedState((1,), (0,))
        assert met == [(ZERO, zeros, True, 0, True), (down, zeros, False, 4 * 3, False),
                       (up, zeros, False, 4 * 3, False)]
        assert down not in table.states and up in table.states
        assert [reference_static_hold(s, seq, CREEPING_HOLD) for s, seq, *_ in met] == [
            True, False, False]


def test_the_table_module_serves_three_discovery_names():
    # the names its readers in bench/ take from it, each discovery's own; no other
    for name in ("find_transitions", "STATIC_HOLD_REPS", "DEFAULT_NAL"):
        assert getattr(trn, name) is getattr(discovery, name)
    for name in ("_static_hold", "_tick", "__path__"):
        assert not hasattr(trn, name)


def off_grid_robot() -> RobotSpec:
    # the limits sit 3e-8 deg past the grid points -5 and 5: within 1e-9 rad of
    # -5 * delta_q but 1.5e-8 cells from it, so the grid is -4..5, not -5..5
    return robot_from_dict({"delta_t_ms": 40, "joints": [{
        "name": "j", "q_min_deg": -10 + 3e-8, "q_max_deg": 10 + 3e-8, "delta_q_deg": 2,
        "v_min_deg_s": -150, "v_max_deg_s": 150, "mass_kg": 1, "length_m": 1,
        "torques_nm": [-50, 0, 50]}]})


@pytest.mark.parametrize(("robot", "cases"), [
    # the demo's limits lie off its grid: an end past one is off the grid too
    (RobotSpec(delta_t=0.04, gravity=9.81, joints=(demo_joint(),)),
     {"moved", "static", "growing", "off the grid"}),
    (off_grid_robot(), {"moved", "static", "growing", "past a limit", "off the grid"}),
], ids=["demo", "off_grid"])
def test_column_quantize_matches_scalar(robot, cases, monkeypatch):
    # per axis: grid points and half-cell points past both ends, points whose
    # quotient by the step is exactly a half-cell, -0.0, the limits and points
    # a fifth and 0.6 of a cell past them, and seeded points, each paired with
    # a zero. Each probe is a tick's end state from home (0, 0), once at depth
    # nal - 1 and once at nal, and its class is the scalar rule's
    j = robot.joints[0]
    rng = np.random.default_rng(7)

    def exact_halves(k, step):
        # the floats within 4 ulps of (k + 0.5) * step whose quotient is k + 0.5;
        # no float's quotient is exactly some of these half-cells, but most
        near = (k + 0.5) * step + np.outer(np.arange(-4, 5), np.spacing((k + 0.5) * step))
        halves = near[near / step == k + 0.5]
        assert 2 * len(np.unique(halves / step)) > len(k)
        return halves

    def probes(lo, hi, step):
        k = np.arange(math.floor(lo / step) - 2, math.ceil(hi / step) + 3)
        halves = exact_halves(k, step)
        return np.concatenate([k * step, (k + 0.5) * step, halves, [-0.0],
                               [lo, hi, lo - 0.6 * step, hi + 0.6 * step],
                               rng.uniform(1.05 * lo, 1.05 * hi, 500),
                               [lo - 0.2 * step, hi + 0.2 * step]])

    qp = probes(j.q_min, j.q_max, j.delta_q)
    vp = probes(j.v_min, j.v_max, robot.delta_v(0))
    q = np.concatenate([qp, np.zeros(len(vp))])
    v = np.concatenate([np.zeros(len(qp)), vp])
    ends = np.tile(np.stack([q, v], axis=1), (2, 1))
    depth = np.repeat([DEFAULT_NAL - 1, DEFAULT_NAL], len(q))
    # the tick's integration hands its starts back, so the probes are its end states
    monkeypatch.setattr(dynamics, "integrate_frontier", lambda q, v, *rest: (q, v))
    _, cells, moved, stay = discovery._tick(discovery._Frontier(robot), ends,
                                            np.zeros((len(ends), 1)), np.zeros_like(ends))
    masks = moved, stay & (depth == DEFAULT_NAL), stay & (depth < DEFAULT_NAL)
    # every cell, on the grid or off it, is the scalar rounding of its quotient
    steps = (j.delta_q, robot.delta_v(0))
    assert cells.tolist() == [[model._round_half_away(x / step) for x, step in zip(row, steps)]
                              for row in ends.tolist()]
    seen = set()
    for k, (qk, vk) in enumerate(ends.tolist()):
        try:
            want = quantize(ContinuousState((qk,), (vk,)), robot)
        except OutOfRange:
            case = "off the grid"
        else:
            assert (want.pos_idx[0], want.vel_idx[0]) == tuple(cells[k].astype(int).tolist())
            case = ("past a limit" if not j.within_limits(qk, vk) else "moved" if want != ZERO
                    else "growing" if depth[k] < DEFAULT_NAL else "static")
        seen.add(case)
        got = [name for name, mask in zip(("moved", "static", "growing"), masks) if mask[k]]
        assert got == ([] if case in ("past a limit", "off the grid") else [case]), (qk, vk)
    assert seen == cases


def test_discovered_states_lie_on_the_counted_grid():
    # discovery, quantize and state_space_size share grid_range: the 70
    # counted states are pos -4..5 by vel -3..3, and no state off them is found
    robot = off_grid_robot()
    j = robot.joints[0]
    pos = grid_range(j.q_min, j.q_max, j.delta_q)
    vel = grid_range(j.v_min, j.v_max, robot.delta_v(0))
    assert (pos, vel, state_space_size(robot)) == ((-4, 5), (-3, 3), 70)
    table = find_transitions(robot)
    for s in table.states:
        assert pos[0] <= s.pos_idx[0] <= pos[1] and vel[0] <= s.vel_idx[0] <= vel[1], s
    assert len(table.states) == 57


def test_overflow_is_an_error_not_a_table():
    tiny = JointSpec(
        name="j", q_min=-135 * DEG, q_max=135 * DEG, delta_q=2 * DEG,
        v_min=-180 * DEG, v_max=180 * DEG, mass=1e-308, length=1.0,
        torques=(-50.0, 0.0, 50.0),
    )
    robot = RobotSpec(delta_t=0.04, gravity=9.81, joints=(tiny,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalOverflow, match="joint j: non-finite"):
            find_transitions(robot)


def test_overflow_names_the_first_non_finite_joint():
    # every joint integrates in one array; the error names the joint whose
    # column went non-finite, not the first joint
    tiny = JointSpec(
        name="tiny", q_min=-135 * DEG, q_max=135 * DEG, delta_q=2 * DEG,
        v_min=-180 * DEG, v_max=180 * DEG, mass=1e-308, length=1.0,
        torques=(-50.0, 0.0, 50.0),
    )
    robot = RobotSpec(delta_t=0.04, joints=(demo_joint(), tiny, demo_joint()))
    with pytest.raises(NumericalOverflow, match="^joint tiny: non-finite"):
        find_transitions(robot)


class TestTicksInChunks:
    """`_tick` runs a few rows at a time: no byte, count or refusal moves."""

    # odd, so that chunk ends fall inside a parent's 5, 9 or 27 children
    ROWS = 7

    @pytest.fixture(autouse=True)
    def chunked(self, monkeypatch):
        monkeypatch.setattr(discovery, "TICK_CHUNK_ROWS", self.ROWS)

    @pytest.mark.parametrize("dedup", ["all", "shortest"])
    @pytest.mark.parametrize("robot", ["demo", "two-joint", "three-joint"])
    def test_bytes_are_pinned(self, pendulum, robot, dedup):
        table = find_transitions({"demo": pendulum, "two-joint": robot_from_dict(TWO_JOINT),
                                  "three-joint": bench_robot(3)}[robot], dedup=dedup)
        digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in serialised(table))
        assert digests == TestAgainstOracle.PINNED[robot, dedup]

    def test_the_kernel_sees_every_chunk(self, pendulum, monkeypatch):
        rows = []
        real = dynamics.integrate_frontier

        def counted(q, *args):
            rows.append(len(q))
            return real(q, *args)

        monkeypatch.setattr(dynamics, "integrate_frontier", counted)
        find_transitions(pendulum)
        assert sum(rows) == 8075 and max(rows) == self.ROWS

    def test_a_tick_in_chunks_is_bitwise_one_chunk(self, monkeypatch):
        # seeded starts in and past the limits under menu torques: rows that
        # move, stay and leave, each chunk's masks and cells are the whole's
        robot = bench_robot(2)
        cols = discovery._Frontier(robot)
        rng = np.random.default_rng(24)
        starts = rng.uniform(-1.3, 1.3, (200, 4)) * np.concatenate([cols.hi[:2], cols.hi[2:]])
        torque = rng.choice(robot.joints[0].torques, (200, 2))
        home = np.trunc(starts / cols.steps)
        chunked = discovery._tick(cols, starts, torque, home)
        monkeypatch.setattr(discovery, "TICK_CHUNK_ROWS", len(starts))
        whole = discovery._tick(discovery._Frontier(robot), starts, torque, home)
        assert [a.tobytes() for a in chunked] == [a.tobytes() for a in whole]
        _, _, moved, stay = whole
        assert moved.any() and stay.any() and not (moved | stay).all()

    def test_a_non_finite_end_in_a_later_chunk_names_the_joint(self, monkeypatch):
        # j3 goes non-finite in the first chunk and j2 only in the third: the
        # whole tick is checked, so the error names j2, as in one chunk
        robot = bench_robot(3)
        starts = np.zeros((20, 6))
        starts[2, 2], starts[15, 4] = np.inf, np.nan
        args = np.zeros((20, 3)), np.zeros((20, 6))
        texts = []
        for rows in (self.ROWS, len(starts)):
            monkeypatch.setattr(discovery, "TICK_CHUNK_ROWS", rows)
            with pytest.raises(NumericalOverflow) as err:
                discovery._tick(discovery._Frontier(robot), starts, *args)
            texts.append(str(err.value))
        assert texts == ["joint j2: non-finite state after integration"] * 2


class TestBudgetsInChunks(TestBudgets):
    """`TestBudgets`' refusal texts, with `_tick` running a few rows at a time."""

    @pytest.fixture(autouse=True)
    def chunked(self, monkeypatch):
        monkeypatch.setattr(discovery, "TICK_CHUNK_ROWS", TestTicksInChunks.ROWS)


# ---------------------------------------------------------------------------
# the seeded schedule against the reached one


@contextlib.contextmanager
def schedule(seeded: bool | None = None):
    """Searches with the seeded schedule forced on or off (None: as its gates
    say); yields a list of (seeded, error type or None), one per schedule a
    search runs."""
    runs = []
    real = discovery._search

    def search(*args, seeded):
        try:
            table = real(*args, seeded=seeded)
        except Exception as e:
            runs.append((seeded, type(e)))
            raise
        runs.append((seeded, None))
        return table

    gate = discovery._seeded if seeded is None else lambda *args: seeded
    with mock.patch.object(discovery, "_seeded", gate), \
            mock.patch.object(discovery, "_search", search):
        yield runs


def counted_rows(monkeypatch) -> list[int]:
    """The rows of each kernel call from here on."""
    rows = []
    real = dynamics.integrate_frontier

    def counted(q, *args):
        rows.append(len(q))
        return real(q, *args)

    monkeypatch.setattr(dynamics, "integrate_frontier", counted)
    return rows


class TestSchedules:
    """Either schedule gives every table, byte and refusal the other gives."""

    @pytest.mark.parametrize("dedup", ["all", "shortest"])
    @pytest.mark.parametrize("robot", ["demo", "demo-32ms", "two-joint", "three-joint"])
    def test_bench_robots(self, pendulum, robot, dedup):
        robot_spec = {"demo": pendulum, "demo-32ms": pendulum._replace(delta_t=0.032),
                      "two-joint": robot_from_dict(TWO_JOINT),
                      "three-joint": bench_robot(3)}[robot]
        texts = []
        for seeded in (True, False):
            with schedule(seeded) as runs:
                texts.append(serialised(find_transitions(robot_spec, dedup=dedup)))
            assert runs == [(seeded, None)]
        assert texts[0] == texts[1]
        assert tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts[0]) == (
            TestAgainstOracle.PINNED[robot, dedup])

    @settings(max_examples=60, deadline=None)
    @given(small_robots(), st.integers(1, 25), st.sampled_from(["all", "shortest"]))
    @example((CREEPING_HOLD, ZERO), 3, "all")
    def test_small_robots(self, robot_and_start, nal, dedup):
        robot, start = robot_and_start
        kw = dict(start=start, nal=nal, dedup=dedup, max_sequences=20_000)
        check = (contextlib.nullcontext() if all(0.0 in j.torques for j in robot.joints)
                 else mock.patch.object(JointSpec, "validate", lambda self: None))
        with check:
            with schedule(True):
                seeded = outcome(find_transitions, robot, **kw)
            with schedule(False):
                assert seeded == outcome(find_transitions, robot, **kw)

    # in TestTicksInChunks' 7-row chunks, narrower than any seeded first
    # tick: the first gate would refuse them, so the schedule is forced
    @pytest.mark.parametrize("dedup", ["all", "shortest"])
    @pytest.mark.parametrize("robot", ["demo", "two-joint", "three-joint"])
    def test_bytes_are_pinned_in_chunks(self, pendulum, monkeypatch, robot, dedup):
        monkeypatch.setattr(discovery, "TICK_CHUNK_ROWS", TestTicksInChunks.ROWS)
        rows = counted_rows(monkeypatch)
        with schedule(True) as runs:
            table = find_transitions({"demo": pendulum, "two-joint": robot_from_dict(TWO_JOINT),
                                      "three-joint": bench_robot(3)}[robot], dedup=dedup)
        assert runs == [(True, None)]
        digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in serialised(table))
        assert digests == TestAgainstOracle.PINNED[robot, dedup]
        assert max(rows) == TestTicksInChunks.ROWS
        if robot == "demo":
            assert sum(rows) == 8085


def reference_table_order(frm: list, to: list, n_states: int) -> tuple[list, list]:
    """The state order and the table's rows, step by step: the trees searched
    in turn from state 0, then the rows of the trees that search never reaches
    filtered out, then the rest sorted stably by their tree's table id."""
    trees = [[t for f, t in zip(frm, to) if f == s] for s in range(n_states)]
    order = [0]
    for s in order:
        order += [t for t in dict.fromkeys(trees[s]) if t not in order]
    rank = {s: k for k, s in enumerate(order)}
    kept = [k for k, f in enumerate(frm) if f in rank]
    return order, sorted(kept, key=lambda k: rank[frm[k]])


@st.composite
def settled_rows(draw):
    """(from, to) columns over 1-8 states, pairs repeating, in any order."""
    n = draw(st.integers(1, 8))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40))
    return [f for f, _ in pairs], [t for _, t in pairs], n


# the examples: a start without rows; trees 1 and 4 without rows, tree 3
# never reached and (0, 2) and (3, 3) repeated; a start without rows among
# trees that have them
@settings(max_examples=300, deadline=None)
@given(settled_rows())
@example(([], [], 1))
@example(([2, 0, 3, 2, 0, 3, 0], [0, 2, 3, 1, 2, 3, 4], 5))
@example(([1, 2, 2], [2, 0, 1], 3))
def test_search_order_against_filter_and_sort(columns):
    frm, to, n = columns
    order, rows = discovery._search_order(np.array(frm, dtype=np.int64),
                                          np.array(to, dtype=np.int64), n)
    assert (order, rows.tolist()) == reference_table_order(frm, to, n)


class TestFallBack:
    """A seeded attempt that is refused gives way to the reached schedule's verdict."""

    @staticmethod
    def verdict(robot, seeded=None, **kw):
        """The JSONL and DOT of find_transitions' table, or its refusal's text, with
        the schedule forced as `schedule` does; and each schedule run."""
        with schedule(seeded) as runs:
            try:
                found = serialised(find_transitions(robot, **kw))
            except BudgetExceeded as e:
                found = str(e)
        return found, runs

    # the seeded attempt keeps the unreached trees' actions too, so at the
    # table's own total it is refused and the reached schedule builds the
    # table; one action less, the reached schedule refuses it in its words
    @pytest.mark.parametrize(("dedup", "total"), [("all", 20329), ("shortest", 5227)])
    def test_an_action_budget(self, pendulum, monkeypatch, dedup, total):
        for budget, built in ((total, True), (total - 1, False)):
            monkeypatch.setattr(discovery, "MAX_TABLE_ACTIONS", budget)
            got, runs = self.verdict(pendulum, dedup=dedup)
            assert (got, isinstance(got, tuple)) == (self.verdict(pendulum, False, dedup=dedup)[0],
                                                     built)
            assert runs == [(True, BudgetExceeded), (False, None if built else BudgetExceeded)]

    def test_an_overflow_in_a_tree_the_start_never_reaches(self, pendulum, pendulum_table,
                                                           monkeypatch):
        # the demo's grid state (67, -3) is not in its table: its tree's
        # first rows, at the state's cell centre, are made to overflow
        assert QuantizedState((67,), (-3,)) not in pendulum_table.states
        centre = representative(QuantizedState((67,), (-3,)), pendulum)
        real = dynamics.integrate_frontier

        def overflowing(q, v, *args):
            q1, v1 = real(q, v, *args)
            hit = (q[:, 0] == centre.q[0]) & (v[:, 0] == centre.v[0])
            return np.where(hit[:, None], np.inf, q1), v1

        monkeypatch.setattr(dynamics, "integrate_frontier", overflowing)
        with schedule() as runs:
            table = find_transitions(pendulum)
        assert runs == [(True, NumericalOverflow), (False, None)]
        assert table == pendulum_table
        assert serialised(table) == serialised(pendulum_table)

    # the 20 ms demo's trees branch on most ticks: a budget at the third
    # gate, grid states x actions x nal, is passed by its seeded attempt.
    # From rest the reached schedule refuses too; from the top of the grid
    # moving up, every row leaves the limits and it builds a one-state table
    @pytest.mark.parametrize(("start", "nal", "built"), [
        (ZERO, 4, False), (QuantizedState((67,), (1,)), 3, True)])
    def test_a_sequence_budget_at_the_gate(self, pendulum, monkeypatch, start, nal, built):
        robot = pendulum._replace(delta_t=0.02)
        budget = model.state_space_size(robot) * 5 * nal
        kw = dict(start=start, nal=nal, max_sequences=budget)
        want, _ = self.verdict(robot, False, **kw)
        rows = counted_rows(monkeypatch)
        got, runs = self.verdict(robot, **kw)
        assert got == want and isinstance(got, tuple) is built
        assert runs == [(True, BudgetExceeded), (False, None if built else BudgetExceeded)]
        # each schedule stays within the budget, so the search within twice it
        assert sum(rows) <= 2 * budget

    # the demo's grid has 945 states and 5 actions: one state or one sequence
    # short of gate 2 or gate 3, the reached schedule alone builds its table
    @pytest.mark.parametrize(("budget", "seeded", "calls", "rows"), [
        (dict(max_states=944), False, 47, 8075),
        (dict(max_sequences=945 * 5 * 25 - 1), False, 47, 8075),
        (dict(max_sequences=945 * 5 * 25), True, 25, 8085)],
        ids=["max_states-944", "max_sequences-118124", "max_sequences-118125"])
    def test_the_demo_at_gates_2_and_3(self, pendulum, pendulum_table, monkeypatch, budget,
                                       seeded, calls, rows):
        assert model.state_space_size(pendulum) == 945
        counted = counted_rows(monkeypatch)
        with schedule() as runs:
            table = find_transitions(pendulum, **budget)
        assert runs == [(seeded, None)]
        assert (len(counted), sum(counted)) == (calls, rows)
        assert table == pendulum_table
        assert serialised(table) == serialised(pendulum_table)

    def test_a_grid_too_large_to_list(self):
        # about 6e34 grid states: gates 2 and 3 hold, and the first alone
        # keeps the grid unlisted. The first tick is the start's n_act rows
        joint = demo_joint()._replace(delta_q=1e-4 * DEG)
        robot = RobotSpec(delta_t=0.04, joints=(joint,) * 3)
        assert model.state_space_size(robot) > 10 ** 34

        class Stop(Exception):
            pass

        rows = []

        def first_call(q, *args):
            rows.append(len(q))
            raise Stop

        with mock.patch.object(dynamics, "integrate_frontier", first_call), \
                schedule() as runs, pytest.raises(Stop):
            find_transitions(robot, max_states=10 ** 40, max_sequences=10 ** 40)
        assert rows == [5 ** 3]
        assert runs == [(False, Stop)]

    # the gate, the seeded attempt and the fall-back share the call's one
    # record, which is also the kernel's workspace: a fall-back builds no
    # second. The demo's table is built plainly, after a seeded attempt is
    # refused at the table's own action total, and after one overflows in
    # the unreached state (67, -3)'s tree
    @pytest.mark.parametrize(("case", "schedules"), [
        ("plain", [(True, None)]),
        ("action budget", [(True, BudgetExceeded), (False, None)]),
        ("overflow", [(True, NumericalOverflow), (False, None)])],
        ids=["plain", "action-budget", "overflow"])
    def test_one_record_per_call(self, pendulum, monkeypatch, case, schedules):
        records = []
        real_init = dynamics.Workspace.__init__

        def init(work, robot):
            records.append(robot)
            real_init(work, robot)

        monkeypatch.setattr(dynamics.Workspace, "__init__", init)
        if case == "action budget":
            monkeypatch.setattr(discovery, "MAX_TABLE_ACTIONS", 20329)
        if case == "overflow":
            centre = representative(QuantizedState((67,), (-3,)), pendulum)
            real = dynamics.integrate_frontier

            def overflowing(q, v, *args):
                q1, v1 = real(q, v, *args)
                hit = (q[:, 0] == centre.q[0]) & (v[:, 0] == centre.v[0])
                return np.where(hit[:, None], np.inf, q1), v1

            monkeypatch.setattr(dynamics, "integrate_frontier", overflowing)
        with schedule() as runs:
            table = find_transitions(pendulum)
        assert runs == schedules
        assert records == [pendulum]
        digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in serialised(table))
        assert digests == TestAgainstOracle.PINNED["demo", "all"]


def reference_gate(robot: RobotSpec, nal: int, max_states: int, max_sequences: int) -> bool:
    """The seeded schedule's gate from the robot's sizes, as `_seeded` took it before
    the search record: `state_space_size` times `action_space_size`, then its three
    comparisons."""
    size = state_space_size(robot)
    rows = size * model.action_space_size(robot)
    return (rows <= discovery.TICK_CHUNK_ROWS and size <= max_states
            and rows * nal <= max_sequences)


class TestGate:
    """`_seeded`, reading the call's record, decides as the robot's sizes do."""

    @staticmethod
    def agree(robot, nal, chunk, max_states, max_sequences):
        with mock.patch.object(discovery, "TICK_CHUNK_ROWS", chunk):
            got = discovery._seeded(discovery._Frontier(robot), nal, max_states, max_sequences)
            assert got == reference_gate(robot, nal, max_states, max_sequences)
        return got

    def at_every_edge(self, robot, nal):
        """Each gate one short of, at and one past its edge: every verdict of the 27."""
        size = state_space_size(robot)
        rows = size * model.action_space_size(robot)
        verdicts = {self.agree(robot, nal, *args) for args in itertools.product(
            *((x - 1, x, x + 1) for x in (rows, size, rows * nal)))}
        assert verdicts == {True, False}

    @settings(max_examples=150, deadline=None)
    @given(small_robots(), st.integers(1, 40), st.integers(-2, 2), st.integers(-2, 2),
           st.integers(-2, 2))
    def test_small_robots_near_the_edges(self, robot_start, nal, d_rows, d_size, d_seq):
        robot, _ = robot_start
        # the sizes validate the robot; a menu without a zero torque is
        # compared with that check switched off, as the search is
        check = (contextlib.nullcontext() if all(0.0 in j.torques for j in robot.joints)
                 else mock.patch.object(JointSpec, "validate", lambda self: None))
        with check:
            size = state_space_size(robot)
            rows = size * model.action_space_size(robot)
            self.agree(robot, nal, rows + d_rows, size + d_size, rows * nal + d_seq)
            self.agree(robot, nal, discovery.TICK_CHUNK_ROWS, size + d_size, rows * nal + d_seq)

    def test_the_bench_robots(self, pendulum):
        robots = [pendulum, robot_from_dict(TWO_JOINT), bench_robot(3)]
        assert [self.agree(robot, DEFAULT_NAL, discovery.TICK_CHUNK_ROWS, DEFAULT_MAX_STATES,
                           DEFAULT_MAX_SEQUENCES) for robot in robots] == [True, True, False]
        for robot in robots:
            self.at_every_edge(robot, DEFAULT_NAL)

    # `test_a_grid_too_large_to_list`'s grid of about 6e34 states, and a
    # column of 2^54 - 3 cells, whose size a float difference would round
    @pytest.mark.parametrize("joint", [demo_joint()._replace(delta_q=1e-4 * DEG),
                                       demo_joint()._replace(delta_q=demo_joint().q_max
                                                             / (2 ** 53 - 1))])
    def test_grids_too_large_to_list(self, joint):
        robot = RobotSpec(delta_t=0.04, joints=(joint,) * 3)
        assert state_space_size(robot) > 10 ** 34
        for nal in (1, DEFAULT_NAL):
            self.at_every_edge(robot, nal)


# ---------------------------------------------------------------------------
# the writers against the per-line writers they replaced


def reference_serialised(table: TransitionTable) -> tuple[str, str]:
    buf = io.StringIO()
    reference_write_jsonl(table, buf)
    return buf.getvalue(), reference_export_dot(table)


@st.composite
def drawn_tables(draw, ticks=None):
    """Tables over 1-3 joints that repeat states and torque sequences.

    Sequences are runs of held actions, so their labels are run-length
    coded; a transition may be a static loop, may hold a fresh copy of its
    states rather than the table's objects, and has a duration from a pool
    of positive finite numbers whose texts differ in length, the ints 1 and 3
    among them beside 1.0. State and torque indices take every sign and digit count,
    past 2^53 too, since the writers join their texts from `str` of each
    integer.

    With `ticks`, a transition's duration is its sequence's length times one
    tick drawn from `ticks`, and the states come in the order the reader
    gives them back, so that the table reads back equal.
    """
    n = draw(st.integers(1, 3))
    big = [2 ** 53 + 1, 2 ** 60]
    index = st.one_of(st.integers(-3, 3), st.integers(-10 ** 6, 10 ** 6),
                      st.sampled_from(big + [-k for k in big]))
    idx = st.tuples(*[index] * n)
    states = draw(st.lists(st.builds(QuantizedState, idx, idx), min_size=1, max_size=6,
                           unique_by=QuantizedState.key))
    torque = st.one_of(st.integers(0, 4), st.integers(10, 10 ** 6), st.sampled_from(big))
    run = st.tuples(st.tuples(*[torque] * n), st.integers(1, 4))
    seqs = draw(st.lists(st.lists(run, min_size=1, max_size=3).map(
        lambda runs: sum(((a,) * k for a, k in runs), ())), min_size=1, max_size=4))
    durations = st.sampled_from([0.04, 0.08, 0.12000000000000001, 2.5e-05, 1e22, 1, 1.0, 3])
    tick = None if ticks is None else draw(ticks)
    edges = draw(st.lists(st.tuples(
        st.sampled_from(states), st.sampled_from(seqs), durations,
        st.one_of(st.none(), st.sampled_from(states)), st.booleans()), max_size=30))
    transitions = []
    for frm, seq, dur, to, copy in edges:
        to = frm if to is None else to
        if copy:
            frm, to = QuantizedState(*frm.key()), QuantizedState(*to.key())
        transitions.append(Transition(frm, tuple(seq),
                                      dur if tick is None else len(seq) * tick, to))
    # with every state on a line, the reader orders them by first appearance
    on_lines = dict.fromkeys(s for t in transitions for s in (t.from_state, t.to_state))
    if tick is not None and len(on_lines) == len(states):
        states = list(on_lines)
    return TransitionTable("sha256:x", tuple(states), tuple(transitions))


class TestOneLabelRule:
    """A table built from transitions keeps its labels by the reader's rule."""

    @pytest.mark.parametrize("dur", [True, 0, 0.0, -0.0, -0.04, math.nan, math.inf, -math.inf],
                             ids=repr)
    def test_the_constructor_refuses_what_the_reader_refuses(self, dur):
        s = QuantizedState((0,), (0,))
        message = f"duration_s must be a positive finite number, got {dur!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            TransitionTable("h", (s,), (Transition(s, ((0,),), dur, s),))
        text = json.dumps(dur)    # true, 0, 0.0, -0.0, -0.04, NaN, Infinity, -Infinity
        assert reads_as_reference(HEAD + jsonl_line(dur=text)) == (
            f"bad transition on line 2: {message}")

    def test_an_int_duration_is_held_and_written_as_a_float(self):
        s = QuantizedState((0,), (0,))
        table = TransitionTable("h", (s,), (Transition(s, ((0,),), 1, s),))
        assert table.labels == ((((0,),), 1.0),)
        assert type(table.labels[0][1]) is type(table.transitions[0].duration) is float
        assert '"duration_s": 1.0, ' in serialised(table)[0]

    def test_built_labels_are_the_read_labels(self):
        # 1 and 1.0 are one label; [[2]] and [[2], [2]] two
        lines = [jsonl_line(dur="1"), jsonl_line(("1", "0"), dur="1.0", to=("0", "0")),
                 jsonl_line(seq="[[2], [2]]", dur="2"), jsonl_line(dur="1.0")]
        read = read_jsonl(io.StringIO(HEAD + "".join(lines)))

        def state(obj):
            return QuantizedState(tuple(obj["pos"]), tuple(obj["vel"]))

        built = TransitionTable("", read.states, tuple(
            Transition(state(o["from"]), tuple(map(tuple, o["torque_idx_seq"])),
                       o["duration_s"], state(o["to"])) for o in map(json.loads, lines)))
        assert built.labels == read.labels == ((((2,),), 1.0), (((2,), (2,)), 2.0))
        assert [type(d) for _, d in built.labels] == [float, float]
        assert list(built._label) == list(read._label) == [0, 0, 1, 0]
        assert built == read and serialised(built) == serialised(read)


class TestWritersAgainstReference:
    @pytest.mark.parametrize("dedup", ["all", "shortest"])
    @pytest.mark.parametrize("robot", ["demo", "two-joint"])
    def test_built_tables_and_read_backs(self, pendulum, robot, dedup):
        table = find_transitions(pendulum if robot == "demo" else robot_from_dict(TWO_JOINT),
                                 dedup=dedup)
        want = reference_serialised(table)
        assert serialised(table) == want
        back = read_jsonl(io.StringIO(want[0]))
        assert serialised(back) == reference_serialised(back) == want

    @settings(max_examples=200, deadline=None)
    @given(drawn_tables())
    def test_drawn_tables(self, table):
        assert serialised(table) == reference_serialised(table)
        assert_id_columns(table)

    @settings(max_examples=200, deadline=None)
    @given(drawn_tables(ticks=st.sampled_from([0.04, 0.032, 2.5e-05, 1e22, 1, 3])))
    def test_drawn_tables_of_one_tick_read_back(self, table):
        text = serialised(table)[0]
        back = read_jsonl(io.StringIO(text))
        assert back == table and back.labels == table.labels
        assert_id_columns(back)
        assert serialised(back)[0] == text

    # the writers read the id columns: no view of the transitions is built
    def test_writers_build_no_transition(self, pendulum):
        table = find_transitions(pendulum)
        back = read_jsonl(io.StringIO(serialised(table)[0]))
        for t in (table, back):
            serialised(t)
            assert (t._transitions, t._rows, t._dests) == (None, None, None)

    # a table is refused when it is built, so no writer meets a lost state
    def test_missing_to_state(self):
        here, lost = QuantizedState((0,), (0,)), QuantizedState((5,), (0,))
        with pytest.raises(UnknownState,
                           match=re.escape(f"transition 1: state {lost} not in table")):
            TransitionTable("sha256:x", (here,), (
                Transition(here, ((1,),), 0.04, here), Transition(here, ((1,),), 0.04, lost)))

    def test_missing_from_state(self):
        here, lost = QuantizedState((0,), (0,)), QuantizedState((5,), (0,))
        with pytest.raises(UnknownState,
                           match=re.escape(f"transition 0: state {lost} not in table")):
            TransitionTable("sha256:x", (here,), (Transition(lost, ((1,),), 0.04, here),))
