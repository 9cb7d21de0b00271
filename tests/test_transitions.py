import io
import math

import pytest

from dtraj.dynamics import act_sequence, integrate_step, validation_check
from dtraj.errors import BudgetExceeded, ConfigError, OutOfRange, UnknownState
from dtraj.model import ContinuousState, JointSpec, QuantizedState, RobotSpec, quantize, representative
from dtraj.transitions import (
    Transition,
    TransitionTable,
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

    def test_byte_determinism(self, pendulum, pendulum_table):
        again = find_transitions(pendulum)
        a, b = io.StringIO(), io.StringIO()
        write_jsonl(pendulum_table, a)
        write_jsonl(again, b)
        assert a.getvalue() == b.getvalue()
