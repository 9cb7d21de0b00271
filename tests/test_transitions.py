import contextlib
import io
import math
import re
import warnings
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dtraj.transitions as trn
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
    ActionSequence,
    ContinuousState,
    JointSpec,
    QuantizedState,
    RobotSpec,
    quantize,
    representative,
    robot_from_dict,
)
from dtraj.transitions import (
    DEFAULT_MAX_SEQUENCES,
    DEFAULT_MAX_STATES,
    DEFAULT_NAL,
    Transition,
    TransitionTable,
    _action_space,
    _static_hold,
    atomic_action_count,
    export_dot,
    find_transitions,
    read_jsonl,
    state_label,
    write_jsonl,
)
from conftest import DEG


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

    if stats is not None:
        stats["simulated"] = simulated
    return TransitionTable(robot.content_hash(), tuple(states), tuple(transitions))


# A literal copy of the benchmark's two-joint robot: +-12 deg in 6 deg cells,
# +-150 deg/s, torques -50/0/50 N*m (225 states, 1,745 transitions).
TWO_JOINT = {
    "delta_t_ms": 40,
    "gravity": 9.81,
    "joints": [
        {"name": f"j{i}", "q_min_deg": -12.0, "q_max_deg": 12.0, "delta_q_deg": 6.0,
         "v_min_deg_s": -150.0, "v_max_deg_s": 150.0, "mass_kg": 1.0, "length_m": 1.0,
         "torques_nm": [-50.0, 0.0, 50.0]}
        for i in (1, 2)
    ],
}


def serialised(table: TransitionTable) -> tuple[str, str]:
    buf = io.StringIO()
    write_jsonl(table, buf)
    return buf.getvalue(), export_dot(table)


def outcome(search, robot, **kw):
    """The table and its JSONL and DOT bytes, or BudgetExceeded if one was raised."""
    try:
        table = search(robot, **kw)
    except BudgetExceeded:
        return BudgetExceeded
    return table, serialised(table)


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
        assert atomic_action_count(pendulum_table, ZERO) == 101

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
        total = sum(
            atomic_action_count(pendulum_table, s) for s in pendulum_table.states
        )
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
        assert atomic_action_count(table, ZERO) == 1

    def test_custom_nal(self):
        table = find_transitions(null_only_robot(), nal=3)
        assert table.transitions[0].actions == ((0,),) * 3

    def test_bad_nal(self):
        with pytest.raises(ConfigError):
            find_transitions(null_only_robot(), nal=0)

    def test_start_off_grid(self, pendulum):
        with pytest.raises(OutOfRange):
            find_transitions(pendulum, start=QuantizedState((500,), (0,)))


class TestBudgets:
    def test_sequence_budget(self, pendulum):
        with pytest.raises(BudgetExceeded):
            find_transitions(pendulum, max_sequences=50)

    def test_state_budget(self, pendulum):
        with pytest.raises(BudgetExceeded):
            find_transitions(pendulum, max_states=10)


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
            atomic_action_count(pendulum_table, QuantizedState((67,), (-3,)))
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


    def test_edge_index(self):
        s = [QuantizedState((i,), (0,)) for i in range(3)]
        edges = [(1, 0), (0, 2), (1, 1), (0, 0), (1, 0)]
        table = TransitionTable("sha256:x", tuple(s), tuple(
            Transition(s[a], ((0,),), 0.04, s[b]) for a, b in edges))
        idx = table.edge_index()
        assert idx is table.edge_index()
        # grouped by source, table order kept inside each group; state 2 has none
        assert idx.dst.tolist() == [2, 0, 0, 1, 0]
        assert idx.row_start.tolist() == [0, 2, 5, 5]
        assert idx.max_out_degree == 3


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

    def test_bad_line_reported(self):
        text = (
            '{"format":"dtraj-transitions","version":1,"robot_hash":"sha256:x"}\n'
            '{"from":{"pos":[0],"vel":[0]}}\n'
        )
        with pytest.raises(ConfigError, match="line 2"):
            read_jsonl(io.StringIO(text))

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

    @settings(max_examples=60, deadline=None)
    @given(small_robots(), st.integers(1, 25), st.sampled_from(["all", "shortest"]))
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
            assert outcome(find_transitions, robot, **kw) == outcome(
                reference_find_transitions, robot, **kw)


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
        real = trn.integrate_joint

        def counted(q, *args, **kw):
            rows.append(len(q))
            return real(q, *args, **kw)

        monkeypatch.setattr(trn, "integrate_joint", counted)
        with pytest.raises(BudgetExceeded) as err:
            find_transitions(pendulum, max_sequences=budget)
        done, found = map(int, re.search(r"(\d+) sequences simulated, (\d+) states found",
                                         str(err.value)).groups())
        assert sum(rows) == done <= budget      # one joint: one row per sequence
        assert found >= 1

    def test_state_budget_reports_progress(self, pendulum):
        with pytest.raises(BudgetExceeded, match=r"budget 10 \(\d+ sequences simulated, 10 states"):
            find_transitions(pendulum, max_states=10)


def test_column_quantize_matches_scalar(pendulum):
    # half-cell points, the limits and just past them, and seeded states
    j = pendulum.joints[0]
    dv = pendulum.delta_v(0)
    half = [k + 0.5 for k in range(-70, 70)]
    rng = np.random.default_rng(7)
    q = np.concatenate([np.array(half) * j.delta_q, [j.q_min, j.q_max, j.q_min - 0.6 * j.delta_q,
                                                      j.q_max + 0.6 * j.delta_q],
                        rng.uniform(-140 * DEG, 140 * DEG, 500), np.zeros(144)])
    v = np.concatenate([np.zeros(144), rng.uniform(-190 * DEG, 190 * DEG, 500),
                        np.array(half) * dv, [j.v_min, j.v_max, j.v_min - 0.6 * dv,
                                              j.v_max + 0.6 * dv]])
    on_grid, cells = trn._quantize_columns([q], [v], pendulum)
    for k, (qk, vk) in enumerate(zip(q.tolist(), v.tolist())):
        try:
            want = quantize(ContinuousState((qk,), (vk,)), pendulum)
        except OutOfRange:
            assert not on_grid[k]
            continue
        assert on_grid[k]
        assert (want.pos_idx[0], want.vel_idx[0]) == tuple(cells[k].astype(int).tolist())


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
