import io
import json
import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from dtraj.errors import (
    BudgetExceeded,
    ConfigError,
    DomainError,
    NoFeasibleTransition,
    ResourceLimit,
    UnknownState,
)
import dtraj.transitions as trn
from dtraj.discovery import find_transitions
from dtraj.model import DEFAULT_ENUM_BUDGET, QuantizedState, format_count
from dtraj.trajectories import (
    DesiredTrajectory,
    PlanResult,
    Trajectory,
    _count_walks,
    count_trajectories,
    enumerate_trajectories,
    load_desired_csv,
    plan_action_sequence,
    write_plan_json,
)
from dtraj.transitions import Transition, TransitionTable, read_jsonl
from conftest import DEG, THREE_STATE_TABLE, bench_robot, table_text


def mk_state(p: int, v: int = 0) -> QuantizedState:
    return QuantizedState((p,), (v,))


def mk_table(n_states: int, edges, lengths=None) -> TransitionTable:
    """Synthetic one-joint table; edges are (from, to) state indices."""
    states = tuple(mk_state(i) for i in range(n_states))
    lengths = lengths or [1] * len(edges)
    trans = tuple(
        Transition(states[a], ((2,),) * ln, 0.04 * ln, states[b])
        for (a, b), ln in zip(edges, lengths)
    )
    return TransitionTable("sha256:synthetic", states, trans)


COMPLETE3 = mk_table(3, [(a, b) for a in range(3) for b in range(3)])


class TestCounting:
    def test_zero_steps(self, pendulum_table):
        counts = count_trajectories(pendulum_table, 0)
        assert all(c == 1 for c in counts.values())

    def test_self_loop(self):
        table = mk_table(1, [(0, 0)])
        for n in (0, 1, 7):
            assert count_trajectories(table, n)[mk_state(0)] == 1

    def test_complete_graph_powers(self):
        a = mk_state(0)
        assert count_trajectories(COMPLETE3, 2)[a] == 9
        assert count_trajectories(COMPLETE3, 5)[a] == 243

    def test_duplicate_edges_double(self):
        single = mk_table(2, [(0, 1), (1, 0)])
        double = mk_table(2, [(0, 1), (0, 1), (1, 0)])
        for n in range(1, 5):
            c1 = count_trajectories(single, n)[mk_state(0)]
            c2 = count_trajectories(double, n)[mk_state(0)]
            assert c2 == c1 * 2 ** ((n + 1) // 2)

    def test_negative_steps(self):
        with pytest.raises(DomainError):
            count_trajectories(COMPLETE3, -1)
        with pytest.raises(DomainError, match="n_steps must be >= 0"):
            next(enumerate_trajectories(COMPLETE3, [mk_state(0)], -1))


def reference_counts(table: TransitionTable, n_steps: int) -> dict:
    """The per-hop dict loop over every transition that the indexed counter replaced."""
    counts = {s.key(): 1 for s in table.states}
    for _ in range(n_steps):
        nxt = {s.key(): 0 for s in table.states}
        for t in table.transitions:
            nxt[t.from_state.key()] += counts[t.to_state.key()]
        counts = nxt
    return {s: counts[s.key()] for s in table.states}


class TestCountingMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_tables(self, data):
        # multi-edges, self-loops, states with no outgoing edges and the empty
        # transition set all come up; the dense case crosses int64 by 40 hops
        n_states = data.draw(st.integers(1, 6))
        edges = data.draw(st.lists(
            st.tuples(st.integers(0, n_states - 1), st.integers(0, n_states - 1)),
            max_size=30,
        ))
        table = mk_table(n_states, edges)
        n = data.draw(st.integers(0, 40))
        got = count_trajectories(table, n)
        assert got == reference_counts(table, n)
        assert all(type(c) is int for c in got.values())

    def test_int64_crossing_is_exact(self):
        two = mk_table(1, [(0, 0), (0, 0)])
        for n in (62, 63, 64):
            assert count_trajectories(two, n)[mk_state(0)] == 2 ** n
        three = mk_table(1, [(0, 0)] * 3)
        for n in range(61):
            assert count_trajectories(three, n)[mk_state(0)] == 3 ** n

    def test_demo_table(self, pendulum_table):
        for n in range(26):
            assert count_trajectories(pendulum_table, n) == reference_counts(pendulum_table, n)


def quotient_rows(table: TransitionTable) -> tuple[list[int], list[list[int]]]:
    """Each state's class, and each class's row with its padding stripped, as lists.

    A row is [k], k the class count, exactly when its class has no
    transitions, and k appears in no other row.
    """
    class_of, dst, row_start = table.quotient()
    assert type(class_of) is list
    rows = [dst[a:b].tolist() for a, b in zip(row_start, row_start[1:])]
    k, dests = len(rows), table.destinations()
    sinks = {c for c, d in zip(class_of, dests) if not d}
    assert [c for c, row in enumerate(rows) if k in row] == sorted(sinks)
    assert all(rows[c] == [k] for c in sinks)
    return class_of, [[] if c in sinks else row for c, row in enumerate(rows)]


def assert_equitable(table: TransitionTable) -> int:
    """The quotient's classes are equitable and its rows theirs; returns the class count."""
    class_of, rows = quotient_rows(table)
    assert len(class_of) == len(table.states)
    assert set(class_of) == set(range(len(rows)))
    refined = [(c, sorted(class_of[d] for d in dests))
               for c, dests in zip(class_of, table.destinations())]
    # every member's destination classes are its class's row, multiplicity kept
    assert all(row == rows[c] for c, row in refined)
    # so one more round of refinement splits nothing
    assert len({(c, tuple(row)) for c, row in refined}) == len(rows)
    return len(rows)


def fresh(table: TransitionTable) -> TransitionTable:
    return TransitionTable(table.robot_hash, table.states, table.transitions)


def one_class_per_state(table: TransitionTable) -> TransitionTable:
    """The same table, counted on its finest partition: refinement stops before its first round."""
    finest = fresh(table)
    rounds, trn._REFINE_ROUNDS = trn._REFINE_ROUNDS, 1
    try:
        assert quotient_rows(finest)[0] == list(range(len(table.states)))
    finally:
        trn._REFINE_ROUNDS = rounds
    return finest


@pytest.fixture(scope="module")
def bench_tables():
    return {n: find_transitions(bench_robot(n)) for n in (2, 3)}


class TestQuotient:
    """Counts on the coarsest equitable partition against the counts on every state."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_tables(self, data):
        # multi-edges, self-loops, sinks, no transitions and no states
        n_states = data.draw(st.integers(0, 6))
        edges = data.draw(st.lists(
            st.tuples(st.integers(0, n_states - 1), st.integers(0, n_states - 1)),
            max_size=30)) if n_states else []
        table = mk_table(n_states, edges)
        assert_equitable(table)
        n = data.draw(st.integers(0, 40))
        got = count_trajectories(table, n)
        assert got == reference_counts(table, n)
        assert count_trajectories(one_class_per_state(table), n) == got

    def test_demo_table(self, pendulum_table):
        assert assert_equitable(pendulum_table) == 470
        finest = one_class_per_state(pendulum_table)
        for n in (1, 5, 20, 60):
            got = count_trajectories(pendulum_table, n)
            assert got == reference_counts(pendulum_table, n)
            assert count_trajectories(finest, n) == got

    @pytest.mark.parametrize(("n_joints", "states", "classes"), [(2, 225, 29), (3, 3375, 85)])
    def test_bench_robots(self, bench_tables, n_joints, states, classes):
        table = bench_tables[n_joints]
        assert len(table.states) == states
        assert assert_equitable(table) == classes
        finest = one_class_per_state(table)
        for n in (1, 5, 20):
            got = count_trajectories(table, n)
            assert got == reference_counts(table, n)
            assert count_trajectories(finest, n) == got

    def test_a_chain_past_the_round_cap(self):
        # a chain of n states needs n rounds to settle; past the cap it gets one
        # class per state, at the cost of the capped rounds only
        n = 4000
        assert n > trn._REFINE_ROUNDS
        chain = mk_table(n, [(i, i + 1) for i in range(n - 1)])
        t0 = time.perf_counter()
        counts = count_trajectories(chain, 30)
        assert time.perf_counter() - t0 < 0.5
        assert [counts[s] for s in chain.states] == [1] * (n - 30) + [0] * 30
        assert assert_equitable(chain) == n


class TestPaddedRows:
    """The quotient's padded rows: a class without transitions sums the slot past the classes."""

    @pytest.mark.parametrize("edges", [
        [(0, 1), (1, 2)],                    # a chain into the last state
        [(0, 0), (0, 2), (1, 2)],            # two rows into one sink
        [(0, 1), (0, 1), (1, 0), (0, 2)],    # a multi-edge beside the sink
    ])
    def test_the_last_class_is_a_sink(self, edges):
        # the padding slot k is then the last entry of dst
        table = mk_table(3, edges)
        _, rows = quotient_rows(table)
        assert rows[-1] == [] and table.quotient()[1][-1] == len(rows)
        for n in range(1, 6):
            assert count_trajectories(table, n) == reference_counts(table, n)

    def test_every_state_a_sink(self):
        table = mk_table(3, [])
        assert quotient_rows(table) == ([0, 0, 0], [[]])
        assert table.quotient()[1].tolist() == [1]
        for n in (1, 2, 70):
            assert count_trajectories(table, n) == dict.fromkeys(table.states, 0)

    def test_no_states(self):
        table = mk_table(0, [])
        assert quotient_rows(table) == ([], [])
        for n in (1, 5):
            assert count_trajectories(table, n) == {}

    def test_mixed_hop_order_on_one_table(self, pendulum_table):
        # past the int64 switch (hop 19 on the demo) and back: a count leaves
        # nothing in the quotient that the next one reads
        table = fresh(pendulum_table)
        for n in (20, 3, 0, 40, 19, 1, 18, 15, 40):
            assert count_trajectories(table, n) == count_trajectories(fresh(table), n)

    @pytest.mark.parametrize("n", [16, 17, 18])
    def test_bench_robot_around_its_switch(self, bench_tables, n):
        # the two-joint robot's counts first pass what int64 may multiply by
        # its max out-degree after 16 hops, so its 17th hop sums Python integers
        table = bench_tables[2]
        top = max(reference_counts(table, 16).values())
        assert top * table.max_out_degree > 2 ** 63 - 1
        assert max(reference_counts(table, 15).values()) * table.max_out_degree <= 2 ** 63 - 1
        got = count_trajectories(table, n)
        assert got == reference_counts(table, n)
        assert all(type(c) is int for c in got.values())


def listing_count(table: TransitionTable, starts, n_steps: int) -> int:
    """The count a walk listing checks against its budget."""
    return _count_walks(table, [table.state_index(s) for s in starts], n_steps)


def demo_start_sets(states):
    """One start, a repeated start, repeats out of order, a spread, every state, none."""
    return [[states[0]], [states[0]] * 2, [states[5], states[0], states[5]],
            list(states[::97]), list(states), []]


class TestListingCount:
    """The listing's pure-Python count, pushed forward from its starts, against both counters."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_random_tables(self, data):
        # multi-edges, self-loops and sinks; duplicate starts, no starts and 0 hops
        n_states = data.draw(st.integers(1, 6))
        edges = data.draw(st.lists(
            st.tuples(st.integers(0, n_states - 1), st.integers(0, n_states - 1)),
            max_size=30,
        ))
        table = mk_table(n_states, edges)
        starts = data.draw(st.lists(st.sampled_from(table.states), max_size=8))
        n = data.draw(st.integers(0, 40))
        counts = count_trajectories(table, n)
        assert counts == reference_counts(table, n)
        assert listing_count(table, starts, n) == sum(counts[s] for s in starts)

    def test_demo_table_past_int64(self, pendulum_table):
        states = pendulum_table.states
        for n in range(23):
            counts = count_trajectories(pendulum_table, n)
            assert counts == reference_counts(pendulum_table, n)
            for starts in demo_start_sets(states):
                assert listing_count(pendulum_table, starts, n) == sum(counts[s] for s in starts)
        assert listing_count(pendulum_table, [states[0]], 22) > 2 ** 63

    def test_deep_counts(self, pendulum_table):
        # about 450 and 900 bits a state on the demo table, 16,610 on ten self-loops
        for n in (150, 300):
            counts = count_trajectories(pendulum_table, n)
            for starts in demo_start_sets(pendulum_table.states):
                assert listing_count(pendulum_table, starts, n) == sum(counts[s] for s in starts)
        loops = mk_table(1, [(0, 0)] * 10)
        counted = count_trajectories(loops, 5000)[mk_state(0)]
        assert counted == 10 ** 5000
        assert listing_count(loops, [mk_state(0)] * 2, 5000) == 2 * counted
        # every walk dies long before the last hop: out of the demo's sinks at
        # the deepest count the budget admits, and along a chain at its own
        sinks = [s for s, row in zip(pendulum_table.states, pendulum_table.destinations())
                 if not row]
        assert len(sinks) == 6
        assert listing_count(pendulum_table, sinks, 1727) == 0
        chain = mk_table(3, [(0, 1), (1, 2)])
        assert listing_count(chain, chain.states, 199_960) == 0
        with pytest.raises(ResourceLimit):
            listing_count(chain, chain.states, 199_961)

    def test_work_refusal_is_the_counters(self, pendulum_table):
        # 1,727 hops is the most the demo table's counts fit in the work budget
        with pytest.raises(ResourceLimit) as counted:
            count_trajectories(pendulum_table, 1728)
        for starts in ([pendulum_table.states[0]], list(pendulum_table.states)):
            with pytest.raises(ResourceLimit) as listed:
                next(enumerate_trajectories(pendulum_table, starts, 1728))
            assert str(listed.value) == str(counted.value)


class TestEnumeration:
    def test_zero_steps_singletons(self):
        walks = list(enumerate_trajectories(COMPLETE3, [mk_state(1)], 0))
        assert walks == [Trajectory((mk_state(1),))]

    def test_order_is_table_order(self):
        # A -> B listed before the self-loop A -> A; depth-first follows it
        table = mk_table(2, [(0, 1), (0, 0), (1, 0)])
        walks = [
            tuple(s.pos_idx[0] for s in w.states())
            for w in enumerate_trajectories(table, [mk_state(0)], 2)
        ]
        assert walks == [(0, 1, 0), (0, 0, 1), (0, 0, 0)]

    def test_hop_indices(self):
        for w in enumerate_trajectories(COMPLETE3, [mk_state(0)], 3):
            assert len(w) == 4
            assert w[0] == mk_state(0)

    def test_edges_exist(self):
        pairs = {(t.from_state, t.to_state) for t in COMPLETE3.transitions}
        for w in enumerate_trajectories(COMPLETE3, list(COMPLETE3.states), 3):
            ss = w.states()
            for a, b in zip(ss, ss[1:]):
                assert (a, b) in pairs

    def test_unknown_start(self):
        with pytest.raises(UnknownState):
            list(enumerate_trajectories(COMPLETE3, [mk_state(9)], 1))

    def test_starts_are_read_once(self, pendulum_table):
        # an iterator of starts serves the budget's count and the listing alike
        starts = [pendulum_table.states[0], pendulum_table.states[5]]
        want = list(enumerate_trajectories(pendulum_table, starts, 2))
        assert len(want) == 551 + 12
        assert list(enumerate_trajectories(pendulum_table, iter(starts), 2)) == want
        assert list(enumerate_trajectories(pendulum_table, (s for s in starts), 2)) == want

    def test_budget_precheck_yields_nothing(self):
        gen = enumerate_trajectories(
            COMPLETE3, list(COMPLETE3.states), 10, budget=100
        )
        with pytest.raises(BudgetExceeded) as e:
            next(gen)
        assert str(e.value) == "enumeration would yield 177147 trajectories, budget is 100"

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_enumeration_matches_counting(self, data):
        n_states = data.draw(st.integers(1, 5))
        edges = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, n_states - 1), st.integers(0, n_states - 1)
                ),
                max_size=12,
            )
        )
        table = mk_table(n_states, edges)
        n = data.draw(st.integers(0, 3))
        counts = count_trajectories(table, n)
        for s in table.states:
            walks = list(enumerate_trajectories(table, [s], n, budget=10**6))
            assert len(walks) == counts[s]


def reference_enumerate(table, starts, n_steps, budget=DEFAULT_ENUM_BUDGET):
    """The enumerator that built each walk from its whole path at its last hop."""
    if n_steps < 0:
        raise DomainError("n_steps must be >= 0")
    planned = _count_walks(table, [table.state_index(s) for s in starts], n_steps)
    if planned > budget:
        raise BudgetExceeded(
            f"enumeration would yield {format_count(planned)} trajectories, budget is {budget}"
        )

    if n_steps == 0:
        yield from (Trajectory((s,)) for s in starts)
        return
    for s in starts:
        # depth-first with an explicit stack, as a walk may outgrow the recursion
        # limit: branches[k] holds the transitions out of path[k] not yet taken
        path, branches = [s], [iter(table.outgoing(s))]
        while branches:
            t = next(branches[-1], None)
            if t is None:
                path.pop()
                branches.pop()
            elif len(path) == n_steps:
                yield Trajectory((*path, t.to_state))
            else:
                path.append(t.to_state)
                branches.append(iter(table.outgoing(t.to_state)))


def listed(enumerate_walks, *args):
    """The walks as a list, or the refusal's text where the budget refuses them."""
    try:
        return list(enumerate_walks(*args))
    except BudgetExceeded as e:
        return str(e)


class TestEnumerationMatchesReference:
    """The same walks, in the same order, as the enumerator built on whole paths."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_random_tables(self, data):
        # multi-edges, self-loops and sinks; duplicate starts, no starts and 0 hops
        n_states = data.draw(st.integers(1, 6))
        edges = data.draw(st.lists(
            st.tuples(st.integers(0, n_states - 1), st.integers(0, n_states - 1)),
            max_size=16,
        ))
        table = mk_table(n_states, edges)
        starts = data.draw(st.lists(st.sampled_from(table.states), max_size=8))
        n = data.draw(st.integers(0, 6))
        want = listed(reference_enumerate, table, starts, n, 20_000)
        assert listed(enumerate_trajectories, table, starts, n, 20_000) == want

    def test_demo_table(self, pendulum_table):
        starts = pendulum_table.states[::97]
        for n in range(5):
            want = list(reference_enumerate(pendulum_table, starts, n))
            assert list(enumerate_trajectories(pendulum_table, starts, n)) == want
        assert len(want) == 48122

    def test_walks_past_the_recursion_limit(self):
        table = read_jsonl(io.StringIO(table_text(THREE_STATE_TABLE)))
        want = list(reference_enumerate(table, table.states, 100_000))
        assert list(enumerate_trajectories(table, table.states, 100_000)) == want
        assert [len(w) for w in want] == [100_001] * 3


# ---------------------------------------------------------------------------
# desired trajectories


class TestDesiredTrajectory:
    def test_validation(self):
        with pytest.raises(DomainError):
            DesiredTrajectory(())
        with pytest.raises(DomainError):
            DesiredTrajectory((((0.0,), 0.5),))
        with pytest.raises(DomainError):
            DesiredTrajectory((((0.0,), 0.0), ((0.0,), 0.0)))
        with pytest.raises(DomainError):
            DesiredTrajectory((((0.0,), 0.0), ((0.0, 0.0), 0.04)))

    def test_csv_round_trip(self):
        # a blank row, empty or of blank fields, is skipped
        for text in ("t_s,q1_deg\n0.0,0\n0.04,2\n0.08,4\n",
                     "t_s,q1_deg\n0.0,0\n\n0.04,2\n , \n0.08,4\n\n"):
            d = load_desired_csv(io.StringIO(text))
            assert len(d.waypoints) == 3
            q, t = d.waypoints[2]
            assert t == pytest.approx(0.08)
            assert q[0] == pytest.approx(4 * DEG)

    def test_csv_multi_joint(self):
        fh = io.StringIO("t_s,q1_deg,q2_deg\n0,0,10\n0.04,2,12\n")
        d = load_desired_csv(fh)
        assert d.waypoints[0][0] == pytest.approx((0.0, 10 * DEG))

    def test_csv_errors(self):
        with pytest.raises(ConfigError, match="empty"):
            load_desired_csv(io.StringIO(""))
        with pytest.raises(ConfigError, match="t_s"):
            load_desired_csv(io.StringIO("time,q1_deg\n0,0\n"))
        with pytest.raises(ConfigError, match="q1_deg"):
            load_desired_csv(io.StringIO("t_s,angle\n0,0\n"))
        with pytest.raises(ConfigError, match="needs at least one joint column"):
            load_desired_csv(io.StringIO("t_s\n0\n"))
        with pytest.raises(ConfigError, match="line 3"):
            load_desired_csv(io.StringIO("t_s,q1_deg\n0,0\n0.04,oops\n"))
        with pytest.raises(ConfigError, match="line 2"):
            load_desired_csv(io.StringIO("t_s,q1_deg\n0,0,5\n"))


# ---------------------------------------------------------------------------
# greedy planner


def ramp(degrees, dt=0.04):
    return DesiredTrajectory(
        tuple(((d * DEG,), k * dt) for k, d in enumerate(degrees))
    )


CHAIN6 = mk_table(6, [(i, i + 1) for i in range(5)])


class TestPlanner:
    def test_constant_target_is_empty_plan(self, pendulum):
        res = plan_action_sequence(CHAIN6, ramp([0, 0, 0, 0]), pendulum)
        assert res.sequences == ()
        assert res.visited == (mk_state(0),)
        assert res.final_state == mk_state(0)
        assert res.miss_deg == pytest.approx((0.0,))
        assert res.warnings == ()

    def test_ramp_follows_chain(self, pendulum):
        res = plan_action_sequence(CHAIN6, ramp([0, 2, 4, 6, 8, 10]), pendulum)
        assert len(res.sequences) == 5
        assert [s.pos_idx[0] for s in res.visited] == [0, 1, 2, 3, 4, 5]
        assert res.final_state == mk_state(5)
        assert res.miss_deg == pytest.approx((0.0,))
        assert res.warnings == ()

    def test_wait_then_long_hop(self, pendulum):
        # target holds one tick, so the duration window grows to 2 and only
        # the 2-tick transition qualifies
        table = mk_table(3, [(0, 1), (0, 2)], lengths=[1, 2])
        res = plan_action_sequence(table, ramp([0, 0, 4]), pendulum)
        assert res.sequences == (((2,), (2,)),)
        assert res.final_state == mk_state(2)

    def test_tie_breaks_to_first_listed(self, pendulum):
        # endpoints 2 deg and 6 deg are equidistant from the 4 deg target
        table = mk_table(4, [(0, 1), (0, 3)])
        res = plan_action_sequence(table, ramp([0, 4]), pendulum)
        assert res.final_state == mk_state(1)

    def test_no_feasible_transition(self, pendulum):
        table = mk_table(2, [(0, 1)], lengths=[2])
        with pytest.raises(NoFeasibleTransition) as exc:
            plan_action_sequence(table, ramp([0, 4]), pendulum)
        assert exc.value.step == 1

    def test_bad_tick_times(self, pendulum):
        bad = DesiredTrajectory((((0.0,), 0.0), ((4 * DEG,), 0.05)))
        with pytest.raises(DomainError, match="tick"):
            plan_action_sequence(CHAIN6, bad, pendulum)

    def test_joint_count_mismatch(self, pendulum):
        two = DesiredTrajectory((((0.0, 0.0), 0.0),))
        with pytest.raises(DomainError):
            plan_action_sequence(CHAIN6, two, pendulum)

    def test_start_not_in_table(self, pendulum):
        shifted = ramp([20, 22])
        with pytest.raises(UnknownState):
            plan_action_sequence(CHAIN6, shifted, pendulum)

    def test_final_miss_warns(self, pendulum):
        table = mk_table(2, [(0, 1)])
        res = plan_action_sequence(table, ramp([0, 8]), pendulum)
        assert res.final_state == mk_state(1)
        assert res.miss_deg == pytest.approx((-6.0,))
        assert len(res.warnings) == 1
        assert "missed" in res.warnings[0]

    def test_real_table_one_step(self, pendulum_table, pendulum):
        res = plan_action_sequence(pendulum_table, ramp([0, 2]), pendulum)
        assert res.final_state.pos_idx == (1,)
        assert res.miss_deg == pytest.approx((0.0,))


class TestPlanJson:
    def test_golden_plain(self):
        res = PlanResult(
            sequences=(((2,), (4,)),),
            visited=(mk_state(0), mk_state(1)),
            final_state=mk_state(1),
            miss_deg=(0.0,),
            warnings=(),
        )
        buf = io.StringIO()
        write_plan_json(res, buf)
        obj = json.loads(buf.getvalue())
        assert obj == {
            "sequences": [[[2], [4]]],
            "final_state": {"pos": [1], "vel": [0]},
            "miss_deg": [0.0],
        }
        assert "warnings" not in obj

    def test_warnings_key_only_when_present(self):
        res = PlanResult(
            sequences=(),
            visited=(mk_state(0),),
            final_state=mk_state(0),
            miss_deg=(-6.0,),
            warnings=("joint j1: final target missed by -6.000 deg",),
        )
        buf = io.StringIO()
        write_plan_json(res, buf)
        obj = json.loads(buf.getvalue())
        assert obj["warnings"] == ["joint j1: final target missed by -6.000 deg"]
