"""Independent computations the benchmark checks the program's outputs against.

Nothing here calls into dtraj except to read the plain data of a table
(states, transitions, action tuples) and, for replays, the scalar integrator
and quantizer, which the project keeps as its reference implementation.
"""

from __future__ import annotations

import math
from decimal import Decimal

# exact 50-step count of the 136^3 headline instance, (68,68,68) -> (88,58,108)
HEADLINE_COUNT = 64020112650274036323921763695686899486133281580070000

_trinomial_rows: dict[int, list[int]] = {0: [1]}


def trinomial_row(m: int) -> list[int]:
    """Coefficients of (x^-1 + 1 + x)^m, index j + m holds the x^j coefficient."""
    if m not in _trinomial_rows:
        prev = trinomial_row(m - 1)
        row = [0] * (2 * m + 1)
        for i, c in enumerate(prev):
            row[i] += c
            row[i + 1] += c
            row[i + 2] += c
        _trinomial_rows[m] = row
    return _trinomial_rows[m]


def corridor_1d(d: int, a: int, b: int, m: int) -> int:
    """m-step walks a -> b with steps -1/0/+1 that never touch 0 or d.

    Reflection principle: N = sum_k T(m, b - a + 2kd) - T(m, b + a + 2kd).
    """
    row = trinomial_row(m)

    def t(j: int) -> int:
        return row[j + m] if -m <= j <= m else 0

    total = 0
    k_max = m // (2 * d) + 2
    for k in range(-k_max, k_max + 1):
        total += t(b - a + 2 * k * d) - t(b + a + 2 * k * d)
    return total


def corridor_nd(d, a, b, m: int) -> int:
    """Full move set {-1,0,1}^n factors per axis, so the count is a product."""
    out = 1
    for dj, aj, bj in zip(d, a, b):
        out *= corridor_1d(dj, aj, bj, m)
    return out


def dp_cell_steps(d, a, m: int) -> int:
    """Cells holding a nonzero count, summed over the m steps of the DP.

    With every move in {-1,0,1}^n available, the cells reachable after t steps
    are exactly the box of Chebyshev radius t around a, clipped to the interior.
    """
    total = 0
    for t in range(m):
        cells = 1
        for dj, aj in zip(d, a):
            cells *= min(dj - 1, aj + t) - max(1, aj - t) + 1
        total += cells
    return total


def certified(pc, ref: int) -> bool:
    """A closed-form count is right when its exact integer equals the reference,
    or, lacking one, when the reference lies inside its stated error bound."""
    if pc.exact is not None:
        return pc.exact == ref
    # compare in log space, so values beyond float range need no conversion
    diff = abs(Decimal(10) ** Decimal(repr(pc.log10)) - Decimal(ref))
    return diff <= Decimal(10) ** Decimal(repr(pc.abs_err_log10)) * Decimal("1.000001")


def format_count(v: int) -> str:
    """The CLI's count display: exact up to 1e18, else 6 significant digits."""
    return str(v) if v <= 10**18 else f"{Decimal(v):.5e}"


# ---------------------------------------------------------------------------
# walk graphs


class Graph:
    """Adjacency of a transition table, kept apart from the table's own index."""

    def __init__(self, table):
        self.keys = [(s.pos_idx, s.vel_idx) for s in table.states]
        self.index = {k: i for i, k in enumerate(self.keys)}
        self.out: list[list] = [[] for _ in self.keys]
        for t in table.transitions:
            frm = self.index[(t.from_state.pos_idx, t.from_state.vel_idx)]
            to = self.index[(t.to_state.pos_idx, t.to_state.vel_idx)]
            self.out[frm].append((to, t))

    def walk_counts(self, max_hops: int) -> list[list[int]]:
        """counts[h][i]: walks of exactly h hops out of state i."""
        cur = [1] * len(self.keys)
        counts = [cur]
        for _ in range(max_hops):
            cur = [sum(cur[to] for to, _ in edges) for edges in self.out]
            counts.append(cur)
        return counts

    def is_walk(self, labels) -> bool:
        idx = [self.index.get(k) for k in labels]
        if None in idx:
            return False
        return all(any(to == b for to, _ in self.out[a]) for a, b in zip(idx, idx[1:]))


def greedy_plan(graph: Graph, waypoints, robot):
    """Re-derivation of the planner's rule from its documented contract.

    Returns (sequences, visited keys, final key) or ("infeasible", step).
    """
    dq = [j.delta_q for j in robot.joints]

    def offset(pos, target):
        return max(abs(p * d - q) / d for p, d, q in zip(pos, dq, target))

    q0 = waypoints[0][0]
    pos0 = tuple(round(q / d) for q, d in zip(q0, dq))
    cur = graph.index[(pos0, (0,) * len(dq))]
    window = 1
    seqs, visited = [], [graph.keys[cur]]
    for step in range(1, len(waypoints)):
        target = waypoints[step][0]
        if offset(graph.keys[cur][0], target) < 1.0 - 1e-9:
            window += 1
            continue
        best, best_off = None, math.inf
        for to, t in graph.out[cur]:
            if len(t.actions) == window:
                off = offset(graph.keys[to][0], target)
                if off < best_off:
                    best, best_off = (to, t), off
        if best is None:
            return ("infeasible", step)
        cur = best[0]
        seqs.append(best[1].actions)
        visited.append(graph.keys[cur])
        window = 1
    return (tuple(seqs), tuple(visited), graph.keys[cur])


# ---------------------------------------------------------------------------
# transition soundness


def transition_faults(table, robot, nal: int, static_reps: int, dynamics, model) -> list[str]:
    """Replay every transition tick by tick with the scalar integrator.

    Each must stay inside the joint limits, keep every proper prefix in its
    start cell, end in its recorded endpoint, and last len(actions) ticks.
    A static loop must last nal ticks and keep every joint within one cell of
    its start over static_reps replays.
    """
    faults = []
    joints = robot.joints

    def inside(st) -> bool:
        return all(
            j.q_min <= st.q[k] <= j.q_max and j.v_min <= st.v[k] <= j.v_max
            for k, j in enumerate(joints)
        )

    for n, t in enumerate(table.transitions):
        where = f"transition {n} from {t.from_state.key()}"
        if not t.actions or abs(t.duration - len(t.actions) * robot.delta_t) > 1e-12:
            faults.append(f"{where}: duration {t.duration} for {len(t.actions)} ticks")
            continue
        anchor = model.representative(t.from_state, robot)
        st = anchor
        cells = []
        for a in t.actions:
            st = dynamics.integrate_step(st, a, robot)
            if not inside(st):
                faults.append(f"{where}: leaves the joint limits")
                break
            cells.append(model.quantize(st, robot))
        else:
            if any(c != t.from_state for c in cells[:-1]):
                faults.append(f"{where}: a proper prefix leaves the start cell")
            elif cells[-1] != t.to_state:
                faults.append(f"{where}: replays to {cells[-1].key()}, recorded {t.to_state.key()}")
            elif t.is_static():
                if len(t.actions) != nal:
                    faults.append(f"{where}: static loop of {len(t.actions)} ticks")
                for _ in range(static_reps - 1):
                    ok = True
                    for a in t.actions:
                        st = dynamics.integrate_step(st, a, robot)
                        ok = ok and inside(st)
                    if not ok or any(
                        abs(st.q[k] - anchor.q[k]) >= j.delta_q for k, j in enumerate(joints)
                    ):
                        faults.append(f"{where}: static loop leaves its cell or limits when repeated")
                        break
    return faults


# ---------------------------------------------------------------------------
# robot-level counts


def grid_sizes(cfg: dict) -> tuple[int, int]:
    """(states, actions) of a robot config, straight from its degree units."""
    states, actions = 1, 1
    for j in cfg["joints"]:
        dq = j["delta_q_deg"]
        dv = dq / (cfg["delta_t_ms"] / 1000.0)
        n_pos = math.floor(j["q_max_deg"] / dq + 1e-9) - math.ceil(j["q_min_deg"] / dq - 1e-9) + 1
        n_vel = math.floor(j["v_max_deg_s"] / dv + 1e-9) - math.ceil(j["v_min_deg_s"] / dv - 1e-9) + 1
        states *= n_pos * n_vel
        actions *= len(j["torques_nm"])
    return states, actions


def scaling_rows(joint_cfg: dict, dofs, m_max: int, separation_deg: float) -> list[tuple]:
    """(n, m, log10 count or None, method) rows of the scaling study.

    Axes are copies of the joint's corridor; walks start at angle 0 and end
    separation away. n <= 3 uses exact reflection counts; larger n the
    endpoint-averaged estimate 3^(nm) / (2m+1)^n, with exact 0 and 1 rows below
    and at the minimum step count.
    """
    dq = joint_cfg["delta_q_deg"]
    d = round((joint_cfg["q_max_deg"] - joint_cfg["q_min_deg"]) / dq) + 1
    offset = d // 2 if d % 2 == 0 else (d - 1) // 2 + 1
    min_steps = round(separation_deg / dq)
    a, b = offset, offset + min_steps
    rows = []
    for n in dofs:
        for m in range(1, m_max + 1):
            if m < min_steps:
                rows.append((str(n), str(m), None, "exact"))
            elif m == min_steps:
                rows.append((str(n), str(m), 0.0, "exact"))
            elif n <= 3:
                c = corridor_1d(d, a, b, m)
                rows.append((str(n), str(m), n * math.log10(c) if c else None, "closed"))
            else:
                rows.append((str(n), str(m), m * n * math.log10(3) - n * math.log10(2 * m + 1), "approx"))
    for m in range(1, m_max + 1):
        rows.append(("go", str(m), m * math.log10(361.0), "reference"))
    rows.append(("atoms", "*", 80.0, "reference"))
    return rows


def rows_match(got, want, tol: float) -> bool:
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if g[0] != w[0] or g[1] != w[1] or g[3] != w[3]:
            return False
        if (g[2] is None) != (w[2] is None):
            return False
        if g[2] is not None and abs(g[2] - w[2]) > tol:
            return False
    return True
