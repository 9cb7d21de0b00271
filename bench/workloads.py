"""The four workloads. Each has one kind of operation, built from --seed.

A workload sets up its inputs (`setup`, timed and repeated by the runner),
computes what it will check against (`prepare`), warms up, and then runs whole
rounds of the same operations (`round`). Every operation's outputs are checked
against reference.py; a wrong output is a fault and makes the run incorrect,
except for the corridor instances named in FAULT_INSTANCES, which count as
failed operations.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import nullcontext

import reference as ref

perf = time.perf_counter

# Two joints of +-12 deg in 6 deg cells, +-150 deg/s, torques -50/0/50 N*m:
# 225 states and 1,745 transitions. Weaker menus such as +-40 N*m cannot push
# a joint out of its cell before the sequence tree explodes, and end at the
# 400k-sequence budget after about 28 s instead of finishing.
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
MAX_SEQUENCES = 400_000

# 1-D instances whose counts lie between 2^53 and 2^63: the closed form rounds
# to an integer that is off by 5 to 1,657 and still reports it as exact.
FAULT_INSTANCES = [(136, 68, 68, 36), (136, 68, 70, 37), (136, 60, 75, 40), (136, 68, 68, 41)]
HEADLINE = ((136, 136, 136), (68, 68, 68), (88, 58, 108), 50)


# Times are scaled to a machine on which the reference loop takes REF_NOMINAL_S.
# The machines this runs on change speed by tens of percent within seconds.
# A loop of the interpreter work the layers do (dict updates under tuple keys,
# integer sums, float sine steps) timed around each operation tracks that
# change; a pure integer loop tracked the walk counts poorly.
REF_NOMINAL_S = 0.005
_REF_KEYS = [(i, i % 7) for i in range(400)]


def reference_loop() -> float:
    """Time one fixed pass of the reference loop, in seconds."""
    t0 = perf()
    counts = {k: 1 for k in _REF_KEYS}
    q = 0.1
    for _ in range(12):
        nxt = {k: 0 for k in _REF_KEYS}
        for j, k in enumerate(_REF_KEYS):
            q += 0.01 * math.sin(q + j)
            nxt[k] += counts[_REF_KEYS[(j * 7) % 400]] + 3 * counts[_REF_KEYS[(j * 13) % 400]]
            counts.get((j, round(q * 100)))
        counts = nxt
    return perf() - t0


# A CLI command is mostly interpreter start-up and imports, whose speed the
# loop above tracks less well than a start-up itself does.
STARTUP_NOMINAL_S = 0.25


def startup_reference() -> float:
    """Time one interpreter start that imports numpy, in seconds."""
    t0 = perf()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return perf() - t0


class Pacer:
    """Scales a timing by the reference's times just before and just after it."""

    def __init__(self, reference, nominal: float):
        self.reference = reference
        self.nominal = nominal
        self.last = reference()
        self.samples = [self.last]

    def scale(self, raw: float) -> float:
        after = self.reference()
        self.samples.append(after)
        scaled = raw * self.nominal * 2 / (self.last + after)
        self.last = after
        return scaled


class Fault(Exception):
    """An output that disagrees with the benchmark's own computation."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Fault(what)


class Workload:
    setup_reps = 5
    ops_per_round = 1
    round_s = 1.0           # nominal seconds of one round on the reference machine
    traced_setup = False    # whether set-up calls layers worth tracing
    pace = (reference_loop, REF_NOMINAL_S)

    def __init__(self, dtraj, root: str, work: str, seed: int, pacer: Pacer, tracer=None):
        self.dt = dtraj
        self.pacer = pacer
        self.root = root
        self.work = work
        self.seed = seed
        self.tracer = tracer
        self.demo_path = os.path.join(root, "configs", "pendulum.json")
        with open(self.demo_path) as fh:
            self.demo_cfg = json.load(fh)

    def rounds(self, seconds: float) -> int:
        # at least 40 operations, so the tail percentile has ten samples beyond it
        return max(math.ceil(40 / self.ops_per_round), round(seconds / self.round_s))

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        pass

    def warmup(self) -> None:
        self.round()

    def round(self) -> list[tuple[float, bool]]:
        raise NotImplementedError

    def extras(self) -> float:
        return 0.0

    def quiet(self):
        """Checks run with tracing paused, so their calls into dtraj are not counted."""
        return self.tracer.paused() if self.tracer else nullcontext()


def _sha(*parts: str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------


class Discover(Workload):
    """Build and serialise the demo pendulum and the two-joint robot."""

    setup_reps = 3
    round_s = 0.75
    traced_setup = False    # its build repeats an operation's, which the traced rounds cover

    def warmup(self):
        pass                    # set-up has just built both tables

    def setup(self):
        # the first build is set-up: later builds must reproduce it byte for byte
        path = os.path.join(self.work, "two_joint.json")
        with open(path, "w") as fh:
            json.dump(TWO_JOINT, fh)
        load = self.dt.model.load_robot
        self.robots = (load(self.demo_path), load(path))
        self.first = self.build()

    def build(self):
        trn = self.dt.transitions
        outs = []
        for robot in self.robots:
            table = trn.find_transitions(robot, max_sequences=MAX_SEQUENCES)
            buf = io.StringIO()
            trn.write_jsonl(table, buf)
            outs.append((table, buf.getvalue(), trn.export_dot(table)))
        return outs

    def prepare(self):
        self.digests = []
        for robot, (table, jsonl, dot) in zip(self.robots, self.first):
            faults = ref.transition_faults(
                table, robot, self.dt.transitions.DEFAULT_NAL,
                self.dt.transitions.STATIC_HOLD_REPS, self.dt.dynamics, self.dt.model)
            expect(not faults, "; ".join(faults[:3]))
            zero = ((0,) * robot.n_joints, (0,) * robot.n_joints)
            expect(table.states[0].key() == zero, "discovery does not start at rest")
            expect(any(t.is_static() and t.from_state.key() == zero for t in table.transitions),
                   "no static self-loop at rest")
            back = self.dt.transitions.read_jsonl(io.StringIO(jsonl))
            expect(back == table, "JSONL does not read back to the same table")
            edges = sum(1 for line in dot.splitlines() if " -> " in line)
            expect(edges == len(table.transitions), "DOT edge count differs from the table")
            self.digests.append(_sha(jsonl, dot))

    def round(self):
        t0 = perf()
        outs = self.build()
        dt = self.pacer.scale(perf() - t0)
        with self.quiet():
            got = [_sha(jsonl, dot) for _, jsonl, dot in outs]
            expect(got == self.digests, "repeated builds are not byte-identical")
        return [(dt, False)]


# ---------------------------------------------------------------------------


def _desired_from_walk(graph: ref.Graph, robot, rng: random.Random):
    """A desired path on consecutive ticks that follows a random walk of the table:
    each hop holds the previous angle until its last tick, then jumps."""
    starts = [i for i, (_, vel) in enumerate(graph.keys) if not any(vel) and graph.out[i]]
    cur = rng.choice(starts)
    pos = graph.keys[cur][0]
    points = [pos]
    for _ in range(rng.randint(3, 5)):
        if not graph.out[cur]:
            break
        cur, t = rng.choice(graph.out[cur])
        points.extend([pos] * (len(t.actions) - 1))
        pos = graph.keys[cur][0]
        points.append(pos)
    dq = [j.delta_q for j in robot.joints]
    return [(tuple(p * d for p, d in zip(pt, dq)), k * robot.delta_t) for k, pt in enumerate(points)]


class Walks(Workload):
    """Count, enumerate and plan over both tables after reading them back."""

    setup_reps = 3
    ops_per_round = 11
    round_s = 1.8
    traced_setup = True

    def setup(self):
        trn, load = self.dt.transitions, self.dt.model.load_robot
        path = os.path.join(self.work, "two_joint.json")
        with open(path, "w") as fh:
            json.dump(TWO_JOINT, fh)
        self.tables = []
        for name, cfg in (("demo", self.demo_path), ("two_joint", path)):
            robot = load(cfg)
            built = trn.find_transitions(robot, max_sequences=MAX_SEQUENCES)
            out = os.path.join(self.work, name + ".jsonl")
            with open(out, "w") as fh:
                trn.write_jsonl(built, fh)
            with open(out) as fh:
                back = trn.read_jsonl(fh)
            self.tables.append((robot, built, back))

    def prepare(self):
        rng = random.Random(self.seed)
        self.graphs, self.counts, self.bundles = [], [], []
        for robot, built, back in self.tables:
            expect(back == built, "JSONL does not read back to the same table")
            g = ref.Graph(back)
            self.graphs.append(g)
            self.counts.append(g.walk_counts(20))
        # a round counts both tables once at each hop count 10..20, in seeded order,
        # so every seed gives rounds of the same cost; starts and paths are seeded
        hop_order = list(range(10, 10 + self.ops_per_round))
        rng.shuffle(hop_order)
        for k, hops in enumerate(hop_order):
            bundle = []
            for t, ((robot, _, table), g, counts) in enumerate(zip(self.tables, self.graphs, self.counts)):
                depth = 2 + (k + t) % 2
                # starts with a moderate number of walks keep operations alike
                start = rng.choice([i for i, c in enumerate(counts[depth]) if 32 <= c <= 256])
                waypoints = _desired_from_walk(g, robot, rng)
                desired = self.dt.trajectories.DesiredTrajectory(tuple(waypoints))
                plan = ref.greedy_plan(g, waypoints, robot)
                bundle.append((hops, depth, start, desired, plan))
            self.bundles.append(bundle)

    def answer(self, bundle):
        trj, dt = self.dt.trajectories, self.dt
        out = []
        for (robot, _, table), (hops, depth, start, desired, _) in zip(self.tables, bundle):
            counts = trj.count_trajectories(table, hops)
            walks = list(trj.enumerate_trajectories(table, [table.states[start]], depth))
            try:
                plan = trj.plan_action_sequence(table, desired, robot)
            except dt.NoFeasibleTransition as e:
                plan = e
            out.append((counts, walks, plan))
        return out

    def check(self, bundle, answers):
        for (robot, _, table), g, counts, spec, (got, walks, plan) in zip(
                self.tables, self.graphs, self.counts, bundle, answers):
            hops, depth, start, _, want = spec
            expect([got[s] for s in table.states] == counts[hops], f"walk counts at {hops} hops")
            expect(len(walks) == counts[depth][start], f"{len(walks)} walks enumerated, "
                   f"{counts[depth][start]} counted")
            for w in walks:
                keys = [s.key() for s in w.states()]
                expect(len(keys) == depth + 1 and keys[0] == g.keys[start] and g.is_walk(keys),
                       "enumerated sequence is not a walk of the table")
            if want[0] == "infeasible":
                expect(isinstance(plan, self.dt.NoFeasibleTransition) and plan.step == want[1],
                       f"planner: expected no candidate at waypoint {want[1]}, got {plan!r}")
            else:
                expect(not isinstance(plan, Exception), f"planner raised {plan!r}")
                expect((plan.sequences, tuple(s.key() for s in plan.visited), plan.final_state.key())
                       == want, "plan differs from the greedy rule")
                self._replay(plan, robot)

    def _replay(self, plan, robot):
        state = plan.visited[0]
        for seq, nxt in zip(plan.sequences, plan.visited[1:]):
            end, _ = self.dt.dynamics.act_sequence(state, seq, robot)
            expect(end == nxt, "a committed sequence does not replay to its endpoint")
            state = end

    def round(self):
        ops = []
        for bundle in self.bundles:
            t0 = perf()
            answers = self.answer(bundle)
            dt = self.pacer.scale(perf() - t0)
            with self.quiet():
                self.check(bundle, answers)
            ops.append((dt, False))
        return ops


# ---------------------------------------------------------------------------


def _draw_instances(rng: random.Random, count: int) -> list:
    """2-D and 3-D instances, alternating, whose operations cost about the same.

    The DP's work depends on the walls, the start and the step count m, not on
    the end. Of 300 seeded (walls, start) candidates per dimension, those for
    which some m puts that work between 18,000 and 19,800 cell-moves are kept,
    and instances are drawn from them with an end within reach of m steps; a
    fixed number of candidates keeps set-up's cost the same for every seed.
    Walls vary little, so the direct sum's terms vary little too. m stays at
    most 12 in 2-D and 8 in 3-D: there the float error of the direct spectral
    sum, at most about (m+2) * 2^-52 * 2^n * (3^n)^m, is below 0.01, so every
    closed-form route must round to the exact count.
    """
    pools = {}
    for n, (lo_d, hi_d, m_max) in ((2, (20, 24, 12)), (3, (7, 9, 8))):
        pools[n] = []
        for _ in range(300):
            d = tuple(rng.randint(lo_d, hi_d) for _ in range(n))
            a = tuple(rng.randint(1, dj - 1) for dj in d)
            for m in range(1, m_max + 1):
                work = ref.dp_cell_steps(d, a, m) * 3 ** n
                if work >= 18_000:
                    break
            if 18_000 <= work <= 19_800:
                pools[n].append((d, a, m))
    out = []
    for i in range(count):
        d, a, m = rng.choice(pools[2 + i % 2])
        b = tuple(rng.randint(max(1, aj - m), min(dj - 1, aj + m)) for aj, dj in zip(a, d))
        out.append((d, a, b, m))
    return out


class Corridor(Workload):
    """Seeded 2-D and 3-D corridor instances, each by four routes."""

    ops_per_round = 32
    round_s = 1.6

    def setup(self):
        lat = self.dt.lattice
        rng = random.Random(self.seed)
        inst = _draw_instances(rng, self.ops_per_round)
        inst += [((d,), (a,), (b,), m) for d, a, b, m in FAULT_INSTANCES]
        self.instances = [(lat.CorridorSpec(d, lat.full_move_set(len(d))), d, a, b, m)
                          for d, a, b, m in inst]
        self.joint = self.dt.model.load_robot(self.demo_path).joints[0]

    def prepare(self):
        self.refs = [([ref.corridor_1d(*x, m) for x in zip(d, a, b)], ref.corridor_nd(d, a, b, m))
                     for _, d, a, b, m in self.instances]
        self.scaling_want = ref.scaling_rows(self.demo_cfg["joints"][0], range(1, 7), 100, 20.0)

    def evaluate(self, spec, d, a, b, m):
        lat = self.dt.lattice
        per_axis = [lat.corridor_count_1d(dj, aj, bj, m) for dj, aj, bj in zip(d, a, b)]
        fact = lat.corridor_count_nd(spec, a, b, m, method="factorized")
        direct = lat.corridor_count_nd(spec, a, b, m, method="direct")
        dp = lat.corridor_count_dp(spec, a, b, m)
        return per_axis, fact, direct, dp

    def round(self):
        ops = []
        for k, (inst, (axis_refs, want)) in enumerate(zip(self.instances, self.refs)):
            t0 = perf()
            per_axis, fact, direct, dp = self.evaluate(*inst)
            dt = self.pacer.scale(perf() - t0)
            with self.quiet():
                expect(dp.exact == want, f"DP counts {dp.exact} walks for {inst[1:]}, expected {want}")
                closed = [ref.certified(pc, r) for pc, r in zip(per_axis, axis_refs)]
                closed += [ref.certified(fact, want), ref.certified(direct, want)]
                failed = not all(closed)
                # only the named 1-D instances may fail, and only on a closed form
                expect(not failed or k >= self.ops_per_round,
                       f"closed form wrong on {inst[1:]}: {[pc.display() for pc in per_axis]}, "
                       f"{fact.display()}, {direct.display()}; expected {want}")
            ops.append((dt, failed))
        return ops

    def warmup(self):
        spec, d, a, b, m = self.instances[0]
        self.evaluate(spec, d, a, b, m)

    def extras(self):
        lat = self.dt.lattice
        d, a, b, m = HEADLINE
        spec = lat.CorridorSpec(d, lat.full_move_set(3))
        t0 = perf()
        fact = lat.corridor_count_nd(spec, a, b, m, method="factorized")
        with self.tracer.span("bench.headline_direct") if self.tracer else nullcontext():
            direct = lat.corridor_count_nd(spec, a, b, m, method="direct")
        rows = lat.scaling_table(self.joint, range(1, 7), 100, math.radians(20.0))
        dt = self.pacer.scale(perf() - t0)
        with self.quiet():
            expect(ref.certified(fact, ref.HEADLINE_COUNT), f"headline factorized {fact.display()}")
            expect(ref.certified(direct, ref.HEADLINE_COUNT), f"headline direct {direct.display()} "
                   "outside its own error bound")
            got = [(r.n, r.m, r.log10_count, r.method) for r in rows]
            expect(ref.rows_match(got, self.scaling_want, 1e-9), "scaling table rows")
        return dt


# ---------------------------------------------------------------------------


class Cli(Workload):
    """One `python -m dtraj.cli` subprocess per operation, cycling the README commands."""

    setup_reps = 3
    ops_per_round = 10
    round_s = 6.0
    pace = (startup_reference, STARTUP_NOMINAL_S)

    def env(self):
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    def setup(self):
        trn = self.dt.transitions
        robot = self.dt.model.load_robot(self.demo_path)
        self.robot = robot
        self.table = trn.find_transitions(robot)
        self.table_path = os.path.join(self.work, "table.jsonl")
        with open(self.table_path, "w") as fh:
            trn.write_jsonl(self.table, fh)
        rng = random.Random(self.seed)
        g = ref.Graph(self.table)
        self.graph = g
        self.waypoints = _desired_from_walk(g, robot, rng)
        self.desired_path = os.path.join(self.work, "desired.csv")
        with open(self.desired_path, "w") as fh:
            fh.write("t_s,q1_deg\n")
            for q, t in self.waypoints:
                fh.write(f"{t!r},{math.degrees(q[0])!r}\n")
        self.rng_state = rng.getstate()

    def prepare(self):
        rng = random.Random()
        rng.setstate(self.rng_state)
        g, w = self.graph, self.work
        counts = g.walk_counts(20)
        # narrow ranges keep each command's cost, and so the percentiles, alike across seeds
        hops = rng.randint(14, 16)
        depth = 3
        start = rng.choice([i for i, c in enumerate(counts[depth]) if 64 <= c <= 128])
        label = lambda k: " ".join(map(str, k[0])) + "," + " ".join(map(str, k[1]))  # noqa: E731
        # at most 24 steps keep the 1-D closed form's float error far below 0.5
        d1 = rng.randint(20, 60)
        a1 = rng.randint(1, d1 - 1)
        b1 = min(max(a1 + rng.randint(-8, 8), 1), d1 - 1)
        m1 = rng.randint(max(1, abs(a1 - b1)), 24)
        c1 = ref.corridor_1d(d1, a1, b1, m1)
        d2 = (rng.randint(6, 12), rng.randint(6, 12))
        a2 = tuple(rng.randint(1, x - 1) for x in d2)
        b2 = tuple(rng.randint(1, x - 1) for x in d2)
        m2 = max(max(abs(x - y) for x, y in zip(a2, b2)), rng.randint(4, 10))
        c2 = ref.corridor_nd(d2, a2, b2, m2)
        lat = self.dt.lattice
        hd, ha, hb, hm = HEADLINE
        head = lat.corridor_count_nd(lat.CorridorSpec(hd, lat.full_move_set(3)), ha, hb, hm,
                                     method="factorized")
        states, actions = ref.grid_sizes(self.demo_cfg)
        buf = io.StringIO()
        self.dt.transitions.write_jsonl(self.table, buf)
        table_text, dot_text = buf.getvalue(), self.dt.transitions.export_dot(self.table)
        plan_want = ref.greedy_plan(g, self.waypoints_parsed(), self.robot)
        scaling_want = ref.scaling_rows(self.demo_cfg["joints"][0], range(1, 7), 100, 20.0)
        cfg, tab = self.demo_path, self.table_path
        csv = lambda ints: ",".join(map(str, ints))  # noqa: E731
        out = lambda name: os.path.join(w, name)  # noqa: E731

        def files_equal(*pairs):
            def check(stdout, stderr):
                for path, text in pairs:
                    with open(path) as fh:
                        expect(fh.read() == text, f"{os.path.basename(path)} differs from the library's")
            return check

        def walks(stdout, stderr):
            lines = stdout.splitlines()
            expect(len(lines) == counts[depth][start], "enumerate: walk count")
            for line in lines:
                keys = [tuple(tuple(map(int, part.split())) for part in lab.split(","))
                        for lab in line.split("\t")]
                expect(len(keys) == depth + 1 and g.is_walk(keys), "enumerate: not a walk")

        def count_only(stdout, stderr):
            want = "".join(f"{label(k)}\t{ref.format_count(c)}\n" for k, c in zip(g.keys, counts[hops]))
            expect(stdout == want, "enumerate --count-only: counts")

        def plan(stdout, stderr):
            with open(out("plan.json")) as fh:
                got = json.load(fh)
            seqs = tuple(tuple(tuple(a) for a in s) for s in got["sequences"])
            final = (tuple(got["final_state"]["pos"]), tuple(got["final_state"]["vel"]))
            expect((seqs, final) == (plan_want[0], plan_want[2]), "plan differs from the greedy rule")

        def headline(stdout, stderr):
            v = float(stdout)
            expect(abs(v - ref.HEADLINE_COUNT) <= (head.rel_err + 1e-5) * ref.HEADLINE_COUNT,
                   f"count ndim printed {stdout.strip()}")

        def scaling(stdout, stderr):
            with open(out("scaling.csv")) as fh:
                lines = fh.read().splitlines()
            expect(lines[0] == "n,m,log10_count,method", "scaling: header")
            got = []
            for line in lines[1:]:
                n, m, val, method = line.split(",")
                got.append((n, m, float(val) if val else None, method))
            expect(ref.rows_match(got, scaling_want, 1e-6), "scaling: rows")

        def prints(text):
            def check(stdout, stderr):
                expect(stdout == text, f"printed {stdout!r}, expected {text!r}")
            return check

        def no_candidate(stdout, stderr):
            expect(f"at waypoint {plan_want[1]}" in stderr, "plan: infeasible at another waypoint")

        infeasible = plan_want[0] == "infeasible"
        self.commands = [
            ("transitions", ["transitions", "--config", cfg, "--out", out("cli_table.jsonl"),
                             "--dot", out("cli_map.dot")],
             files_equal((out("cli_table.jsonl"), table_text), (out("cli_map.dot"), dot_text)), 0),
            # "--start=" form: argparse takes a separate "-3,0" for an unknown flag
            ("enumerate", ["enumerate", "--transitions", tab, "--steps", str(depth),
                           "--start=" + label(g.keys[start])], walks, 0),
            ("enumerate_count_only", ["enumerate", "--transitions", tab, "--steps", str(hops),
                                      "--count-only"], count_only, 0),
            ("plan", ["plan", "--transitions", tab, "--config", cfg, "--desired", self.desired_path,
                      "--out", out("plan.json")], no_candidate if infeasible else plan,
             3 if infeasible else 0),
            ("count_corridor", ["count", "corridor", "--d", str(d1), "--from", str(a1), "--to", str(b1),
                                "--steps", str(m1)], prints(f"{c1}\n"), 0),
            ("count_corridor_exact", ["count", "corridor", "--d", str(d1), "--from", str(a1), "--to",
                                      str(b1), "--steps", str(m1), "--exact"], prints(f"{c1}\n"), 0),
            ("count_ndim", ["count", "ndim", "--d", csv(hd), "--from", csv(ha), "--to", csv(hb),
                            "--steps", str(hm)], headline, 0),
            ("count_ndim_direct", ["count", "ndim", "--d", csv(d2), "--from", csv(a2), "--to", csv(b2),
                                   "--steps", str(m2), "--direct"], prints(f"{c2}\n"), 0),
            ("count_bounds", ["count", "bounds", "--config", cfg, "--steps", "50"],
             prints(f"states {states}\nactions {actions}\n"
                    f"upper_bound {ref.format_count(states * actions ** 50)}\n"), 0),
            ("count_scaling", ["count", "scaling", "--config", cfg, "--dof", "1-6", "--steps", "1-100",
                               "--separation-deg", "20", "--out", out("scaling.csv")], scaling, 0),
        ]
        self.walltimes = {name: [] for name, *_ in self.commands}
        self.overheads = []
        self.child_spans = []
        self.import_s = []
        self.round_no = 0

    def waypoints_parsed(self):
        # the angles as the CLI reads them back from the CSV
        return [((math.radians(float(repr(math.degrees(q[0])))),), t) for q, t in self.waypoints]

    def run_command(self, argv, rc_want):
        traced = self.tracer is not None and self.tracer.active
        if traced:
            spans = os.path.join(self.work, "child_spans.json")
            cmd = [sys.executable, os.path.join(self.root, "bench", "cli_child.py"), spans,
                   str(self.round_no)] + argv
        else:
            cmd = [sys.executable, "-m", "dtraj.cli"] + argv
        t0 = perf()
        p = subprocess.run(cmd, capture_output=True, text=True, env=self.env(), cwd=self.root,
                           timeout=120)
        dt = perf() - t0
        expect(p.returncode == rc_want, f"dtraj {' '.join(argv[:2])} exited {p.returncode}: "
               f"{p.stderr.strip()[-300:]}")
        manifest = json.loads(p.stderr.strip().splitlines()[-1])
        if traced:
            with open(spans) as fh:
                child = json.load(fh)
            self.child_spans.append(child["spans"])
            self.import_s.append(child["import_s"])
        return dt, p.stdout, p.stderr, manifest

    def warmup(self):
        name, argv, check, rc = self.commands[8]
        self.run_command(argv, rc)

    def round(self):
        ops = []
        for name, argv, check, rc in self.commands:
            for f in os.listdir(self.work):
                if f in ("cli_table.jsonl", "cli_map.dot", "plan.json", "scaling.csv"):
                    os.unlink(os.path.join(self.work, f))
            raw, stdout, stderr, manifest = self.run_command(argv, rc)
            dt = self.pacer.scale(raw)
            expect(manifest.get("subcommand") == " ".join(argv[:2] if argv[0] == "count" else argv[:1]),
                   "manifest names another subcommand")
            check(stdout, stderr)
            self.walltimes[name].append(raw)
            self.overheads.append(raw - manifest["duration_s"])
            ops.append((dt, False))
        self.round_no += 1
        return ops
