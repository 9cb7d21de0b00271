"""Walk counting on bounded integer grids with absorbing walls.

A corridor is a grid whose axis j admits interior positions 1..d_j-1; touching
0 or d_j kills the walk. Moves come from a move set of per-step displacement
vectors with components in {-1, 0, +1}. Three routes to the same number are
provided and cross-checked:

  * an exact dynamic program (the oracle): a numpy stencil over the interior
    cells, in int64 while that cannot overflow and in Python integers after,
  * a closed-form spectral sum per axis (1-D) or over the full frequency grid
    (n-D), evaluated with compensated summation and explicit error bounds,
  * for move sets that factor per axis, the product of 1-D closed forms
    (the fast path, exact up to per-axis float error).

The n-D closed form diagonalizes the transfer stencil in a product sine basis.
That holds for move sets closed under flipping the sign of any one axis; the
full diagonal set (every vector over {-1,0,1}^n) is the only one that also
factors per axis, so it is the only move set the fast path accepts. Other move
sets are counted by the DP. An end farther from the start than the step count
on some axis is counted as exactly 0 by every route, since a walk moves at most
one cell per step.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, NumericalOverflow, ResourceLimit
from .model import JointSpec, format_count

_EPS = 2.0 ** -52
_EXACT_ROUND_LIMIT = 2 ** 63
_INT64_MAX = 2 ** 63 - 1
# switch the 1-D sum to sign/log10 per-term accumulation when the kernel power
# alone could approach float range
_LOG_ACCUM_THRESHOLD = 280.0
# direct n-D evaluation cap; sized to admit a 3-axis grid of height 135
# (2*136 = 272 frequencies per axis) with a little headroom
_DIRECT_TERM_BUDGET = 21_000_000
_DP_CELL_STEP_BUDGET = 10 ** 7
_MOVE_SET_DIM_CAP = 12


# ---------------------------------------------------------------------------
# move sets


@dataclass(frozen=True)
class MoveSet:
    """Allowed per-step displacement vectors; components limited to -1/0/+1."""

    n: int
    moves: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("move set dimension must be >= 1")
        seen = set()
        for mv in self.moves:
            if len(mv) != self.n:
                raise DomainError(f"move {mv} has wrong dimension (expected {self.n})")
            if any(c not in (-1, 0, 1) for c in mv):
                raise DomainError(f"move {mv} has components outside -1/0/+1")
            if mv in seen:
                raise DomainError(f"duplicate move {mv}")
            seen.add(mv)
        # canonical ordering for deterministic iteration
        object.__setattr__(self, "moves", tuple(sorted(self.moves)))

    def is_full(self) -> bool:
        return len(self.moves) == 3 ** self.n

    def is_sign_symmetric(self) -> bool:
        """True when flipping the sign of any one axis maps the set onto itself.

        The product sine basis diagonalizes the stencil of these sets; for
        any other set the spectral sums give wrong counts.
        """
        moves = set(self.moves)
        return all(
            mv[:j] + (-mv[j],) + mv[j + 1:] in moves
            for mv in self.moves
            for j in range(self.n)
        )


def full_move_set(n: int) -> MoveSet:
    """Every vector over {-1,0,1}^n, lexicographically ordered."""
    if n < 1:
        raise DomainError("dimension must be >= 1")
    if n > _MOVE_SET_DIM_CAP:
        raise DomainError(f"dimension capped at {_MOVE_SET_DIM_CAP}")
    moves = tuple(itertools.product((-1, 0, 1), repeat=n))
    return MoveSet(n=n, moves=moves)


def nonnegative_subset(ms: MoveSet) -> MoveSet:
    """The moves with every component >= 0 (2^n of them for the full set)."""
    keep = tuple(mv for mv in ms.moves if all(c >= 0 for c in mv))
    return MoveSet(n=ms.n, moves=keep)


@dataclass(frozen=True)
class CorridorSpec:
    """Per-axis wall positions (walls at 0 and d_j) plus the move set."""

    d: tuple[int, ...]
    move_set: MoveSet

    def __post_init__(self):
        if len(self.d) != self.move_set.n:
            raise DomainError("corridor dimension does not match move set")
        if any(dj < 2 for dj in self.d):
            raise DomainError("every wall parameter d_j must be >= 2")


def _check_interior(d: Sequence[int], p: Sequence[int], label: str) -> None:
    if len(p) != len(d):
        raise DomainError(f"{label} has dimension {len(p)}, corridor has {len(d)}")
    for j, (dj, pj) in enumerate(zip(d, p)):
        if not (1 <= pj <= dj - 1):
            raise DomainError(
                f"{label}[{j}] = {pj} is on or outside a wall (interior is 1..{dj - 1})"
            )


# ---------------------------------------------------------------------------
# counts


def _log10_int(x: int) -> float:
    if x <= 0:
        raise ValueError("log10 of nonpositive count")
    try:
        return math.log10(x)
    except OverflowError:
        s = str(x)
        return math.log10(int(s[:17])) + (len(s) - 17)


@dataclass(frozen=True)
class PathCount:
    """A walk count: exact integer when available, else sign and log10 magnitude.

    Closed-form evaluations carry an estimated absolute error bound, kept as
    log10 so it is representable at any scale. Exact counts have sign 1 (or 0
    for zero) and an error of -inf.
    """

    exact: int | None
    sign: int
    log10: float
    abs_err_log10: float

    @classmethod
    def from_int(cls, x: int) -> "PathCount":
        if x < 0:
            raise DomainError("counts are nonnegative")
        if x == 0:
            return cls(exact=0, sign=0, log10=-math.inf, abs_err_log10=-math.inf)
        return cls(exact=x, sign=1, log10=_log10_int(x), abs_err_log10=-math.inf)

    @classmethod
    def from_float(cls, value: float, abs_err: float) -> "PathCount":
        """Closed-form result, clamping tiny negatives to zero.

        The value rounds to an exact integer only when it is at most 2^63 and
        its bound is below 0.5; otherwise it is an estimate.
        """
        if not math.isfinite(value):
            raise DomainError("closed-form count is not finite")
        if value < 0:
            if -value <= max(abs_err, 0.5):
                # negative residual within tolerance; counts are nonnegative
                return cls(exact=0, sign=0, log10=-math.inf,
                           abs_err_log10=math.log10(abs_err) if abs_err > 0 else -math.inf)
            raise DomainError(f"closed-form count {value} negative beyond error bound {abs_err}")
        err_log = math.log10(abs_err) if abs_err > 0 else -math.inf
        # rounding is only exact when the bound leaves one integer in reach
        if value <= _EXACT_ROUND_LIMIT and abs_err < 0.5:
            nearest = math.floor(value + 0.5)
            residual = abs(value - nearest)
            err = max(abs_err, residual)
            return cls(
                exact=nearest,
                sign=0 if nearest == 0 else 1,
                log10=_log10_int(nearest) if nearest > 0 else -math.inf,
                abs_err_log10=math.log10(err) if err > 0 else -math.inf,
            )
        if value == 0.0:
            return cls.from_log10(0, -math.inf, err_log)
        return cls(exact=None, sign=1, log10=math.log10(value), abs_err_log10=err_log)

    @classmethod
    def from_log10(cls, sign: int, log10_mag: float, abs_err_log10: float) -> "PathCount":
        if sign < 0:
            raise DomainError("counts are nonnegative")
        if sign == 0:
            return cls(exact=0, sign=0, log10=-math.inf, abs_err_log10=abs_err_log10)
        return cls(exact=None, sign=1, log10=log10_mag, abs_err_log10=abs_err_log10)

    @property
    def rel_err(self) -> float:
        if self.sign == 0:
            return 0.0
        if self.abs_err_log10 == -math.inf:
            return 0.0
        return 10.0 ** (self.abs_err_log10 - self.log10)

    def to_float(self) -> float:
        if self.exact is not None:
            return float(self.exact) if self.log10 < 300 else math.inf
        return 0.0 if self.sign == 0 else 10.0 ** self.log10

    def __mul__(self, other: "PathCount") -> "PathCount":
        if self.sign == 0 or other.sign == 0:
            return PathCount.from_int(0)
        log10 = self.log10 + other.log10
        rel = self.rel_err + other.rel_err
        err_log = math.log10(rel) + log10 if rel > 0 else -math.inf
        if self.exact is not None and other.exact is not None:
            # both factors were rounded to integers; the product stays exact
            # as long as each rounding was correct, which the propagated
            # error estimate continues to track
            ex = self.exact * other.exact
            return PathCount(exact=ex, sign=1, log10=_log10_int(ex), abs_err_log10=err_log)
        return PathCount.from_log10(1, log10, err_log)

    def __pow__(self, k: int) -> "PathCount":
        if k < 0:
            raise DomainError("negative power of a count")
        out = PathCount.from_int(1)
        for _ in range(k):
            out = out * self
        return out

    def display(self) -> str:
        if self.exact is not None:
            return format_count(self.exact)
        return format_count((self.sign, self.log10))

    def agrees_with(self, other: "PathCount", rel_tol: float) -> bool:
        if self.sign == 0 and other.sign == 0:
            return True
        if self.sign != other.sign:
            # one side may be a zero-rounded residual; compare magnitudes to tol
            big = max(self.log10, other.log10)
            return big == -math.inf or 10.0 ** big <= rel_tol
        la, lb = self.log10, other.log10
        if max(la, lb) < 300:
            va, vb = 10.0 ** la, 10.0 ** lb
            return abs(va - vb) <= rel_tol * max(va, vb)
        return abs(la - lb) <= rel_tol / math.log(10)


# ---------------------------------------------------------------------------
# 1-D closed form


def corridor_count_1d(d: int, a: int, b: int, m: int) -> PathCount:
    """Closed-form count of m-step 3-way walks a -> b between walls 0 and d.

    Spectral sum over the d-1 sine modes of the corridor; each mode carries
    kernel eigenvalue (1 + 2 cos(pi w / d))^m. Compensated summation, with a
    sign/log10 accumulation fallback when the kernel power could overflow.
    """
    d = int(d)
    if d < 2:
        raise DomainError("d must be >= 2")
    _check_interior((d,), (a,), "position")
    _check_interior((d,), (b,), "position")
    if m < 0:
        raise DomainError("m must be >= 0")
    if abs(b - a) > m:
        # a walk moves at most one cell per step
        return PathCount.from_int(0)

    if m * math.log10(3.0) > _LOG_ACCUM_THRESHOLD:
        return _corridor_1d_log_accum(d, a, b, m)

    total = 0.0
    comp = 0.0
    abs_total = 0.0
    for w in range(1, d):
        ang = math.pi * w / d
        term = (
            math.sin(ang * b)
            * (1.0 + 2.0 * math.cos(ang)) ** m
            * math.sin(ang * a)
        )
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        abs_total += abs(term)
    value = 2.0 / d * total
    # per-term relative error ~ (m+2) ulp from the kernel power and trig,
    # amplified by cancellation in the sum; bound via the absolute-value sum
    abs_err = (m + 2) * _EPS * (2.0 / d) * abs_total
    return PathCount.from_float(value, abs_err)


def _corridor_1d_log_accum(d: int, a: int, b: int, m: int) -> PathCount:
    # overflow-guard path: represent each term as sign * 10^log10
    logs: list[tuple[int, float]] = []
    for w in range(1, d):
        ang = math.pi * w / d
        sa = math.sin(ang * a)
        sb = math.sin(ang * b)
        kern = 1.0 + 2.0 * math.cos(ang)
        if sa == 0.0 or sb == 0.0 or kern == 0.0:
            continue
        sign = (1 if sa > 0 else -1) * (1 if sb > 0 else -1)
        if kern < 0 and m % 2 == 1:
            sign = -sign
        lg = (
            math.log10(abs(sb))
            + m * math.log10(abs(kern))
            + math.log10(abs(sa))
        )
        logs.append((sign, lg))
    if not logs:
        return PathCount.from_int(0)
    peak = max(lg for _, lg in logs)
    shifted = 0.0
    shifted_abs = 0.0
    for sign, lg in logs:
        contrib = sign * 10.0 ** (lg - peak)
        shifted += contrib
        shifted_abs += abs(contrib)
    pref_log = math.log10(2.0 / d)
    err_log = math.log10((m + 2) * _EPS * shifted_abs) + peak + pref_log
    if shifted == 0.0:
        return PathCount.from_log10(0, -math.inf, err_log)
    if shifted < 0:
        # counts are nonnegative; a tiny negative here is cancellation noise
        if math.log10(-shifted) + peak + pref_log <= err_log:
            return PathCount.from_log10(0, -math.inf, err_log)
        raise DomainError("closed-form count negative beyond error bound")
    return PathCount.from_log10(1, math.log10(shifted) + peak + pref_log, err_log)


# ---------------------------------------------------------------------------
# exact DP oracle


def corridor_count_dp(spec: CorridorSpec, a: Sequence[int], b: Sequence[int], m: int) -> PathCount:
    """Exact count by m applications of the move-set stencil with absorbing walls.

    The counts live in a dense array over the interior cells within reach of
    the start. Each step adds, per move, the shifted slice of the cells whose
    target stays inside, so walks that would land on a wall are dropped. The
    sums run in int64 while max(count) * number of moves cannot overflow it,
    and in Python integers from the first step where it could, so counts stay
    exact at any size.
    """
    d = spec.d
    _check_interior(d, a, "start")
    _check_interior(d, b, "target")
    if m < 0:
        raise DomainError("m must be >= 0")
    cells = 1
    for dj in d:
        cells *= dj - 1
    if cells * m > _DP_CELL_STEP_BUDGET:
        raise ResourceLimit(
            f"DP needs {cells} cells x {m} steps = {cells * m} cell-steps, "
            f"budget is {_DP_CELL_STEP_BUDGET}"
        )

    # no walk gets farther than m cells from a on any axis, so the box is the
    # interior clipped to that reach; a move that leaves it either hits a wall
    # or could only happen after step m
    lo = [max(1, aj - m) for aj in a]
    hi = [min(dj - 1, aj + m) for dj, aj in zip(d, a)]
    if any(not (l <= bj <= h) for l, bj, h in zip(lo, b, hi)):
        return PathCount.from_int(0)
    size = [h - l + 1 for l, h in zip(lo, hi)]
    # per move, the slice of cells it keeps in the box and where they land
    shifts = [
        (tuple(slice(max(0, -c), s - max(0, c)) for c, s in zip(mv, size)),
         tuple(slice(max(0, c), s - max(0, -c)) for c, s in zip(mv, size)))
        for mv in spec.move_set.moves
    ]
    cur = np.zeros(size, dtype=np.int64)
    cur[tuple(aj - l for aj, l in zip(a, lo))] = 1
    for _ in range(m):
        if cur.dtype == np.int64:
            top = int(cur.max())
            if top == 0:  # every walk has died
                break
            if top * len(shifts) > _INT64_MAX:
                cur = cur.astype(object)
        nxt = np.zeros_like(cur)
        for src, dst in shifts:
            nxt[dst] += cur[src]
        cur = nxt
    return PathCount.from_int(int(cur[tuple(bj - l for bj, l in zip(b, lo))]))


# ---------------------------------------------------------------------------
# spectral kernel and the n-D closed form


def move_kernel(omega: Sequence[int], d: Sequence[int], ms: MoveSet) -> float:
    """Frequency response of one stencil application.

    Sum over the nonnegative-component moves of the product over axes of
    (2 cos(pi w_j / d_j))^mu_j. For the full move set this factors into
    prod_j (1 + 2 cos(pi w_j / d_j)), which is used as fast path elsewhere
    and asserted equal in the tests.
    """
    if len(omega) != ms.n or len(d) != ms.n:
        raise DomainError("kernel arguments must match the move-set dimension")
    plus = nonnegative_subset(ms)
    total = 0.0
    for mv in plus.moves:
        prod = 1.0
        for j, mu in enumerate(mv):
            if mu:
                prod *= (2.0 * math.cos(math.pi * omega[j] / d[j])) ** mu
        total += prod
    return total


def _direct_spectral_sum(
    d: Sequence[int], a: Sequence[int], b: Sequence[int], m: int, ms: MoveSet
) -> tuple[float, float]:
    """Evaluate the full frequency-grid sum; returns (value, sum of |contributions|)."""
    n = len(d)
    terms = 1
    for dj in d:
        terms *= 2 * dj
    if n > 3:
        raise ResourceLimit("direct evaluation supports at most 3 axes")
    if terms > _DIRECT_TERM_BUDGET:
        raise ResourceLimit(
            f"direct evaluation needs {terms} terms, budget is {_DIRECT_TERM_BUDGET}"
        )

    plus = nonnegative_subset(ms)
    ws = [np.arange(1 - dj, dj + 1, dtype=np.float64) for dj in d]
    cosines = [2.0 * np.cos(np.pi * w / dj) for w, dj in zip(ws, d)]
    sin_a = [np.sin(np.pi * w * aj / dj) for w, aj, dj in zip(ws, a, d)]
    phase_b = [np.pi * w * bj / dj for w, bj, dj in zip(ws, b, d)]

    def axis_factor(j: int, mu: int) -> np.ndarray:
        return cosines[j] ** mu if mu else np.ones_like(cosines[j])

    even = n % 2 == 0
    wave = np.cos if even else np.sin
    pref_sign = (-1.0) ** (n // 2) if even else (-1.0) ** ((n - 1) // 2)

    if n == 1:
        kern = np.zeros_like(ws[0])
        for mv in plus.moves:
            kern += axis_factor(0, mv[0])
        contrib = wave(phase_b[0]) * kern ** m * sin_a[0]
        total = float(contrib.sum())
        abs_total = float(np.abs(contrib).sum())
    elif n == 2:
        kern = np.zeros((len(ws[0]), len(ws[1])))
        for mv in plus.moves:
            kern += np.outer(axis_factor(0, mv[0]), axis_factor(1, mv[1]))
        phase = phase_b[0][:, None] + phase_b[1][None, :]
        contrib = wave(phase) * kern ** m * np.outer(sin_a[0], sin_a[1])
        total = float(contrib.sum())
        abs_total = float(np.abs(contrib).sum())
    else:
        total = 0.0
        abs_total = 0.0
        sin_outer = np.outer(sin_a[1], sin_a[2])
        phase_inner = phase_b[1][:, None] + phase_b[2][None, :]
        factors12 = {}
        for mv in plus.moves:
            key = (mv[1], mv[2])
            if key not in factors12:
                factors12[key] = np.outer(axis_factor(1, mv[1]), axis_factor(2, mv[2]))
        for i0 in range(len(ws[0])):
            kern = np.zeros_like(phase_inner)
            for mv in plus.moves:
                f0 = float(cosines[0][i0]) ** mv[0] if mv[0] else 1.0
                kern += f0 * factors12[(mv[1], mv[2])]
            contrib = (
                wave(phase_b[0][i0] + phase_inner)
                * kern ** m
                * (float(sin_a[0][i0]) * sin_outer)
            )
            total += float(contrib.sum())
            abs_total += float(np.abs(contrib).sum())

    denom = 1.0
    for dj in d:
        denom *= dj
    value = pref_sign * total / denom
    return value, abs_total / denom


def corridor_count_factorized(
    spec: CorridorSpec, a: Sequence[int], b: Sequence[int], m: int
) -> PathCount:
    """Fast path: product of per-axis 1-D closed forms. Full move set only."""
    if not spec.move_set.is_full():
        raise DomainError("the factorized fast path requires the full move set")
    _check_interior(spec.d, a, "start")
    _check_interior(spec.d, b, "target")
    if m < 0:
        raise DomainError("m must be >= 0")
    out = PathCount.from_int(1)
    for dj, aj, bj in zip(spec.d, a, b):
        out = out * corridor_count_1d(dj, aj, bj, m)
    return out


def corridor_count_nd(
    spec: CorridorSpec,
    a: Sequence[int],
    b: Sequence[int],
    m: int,
    method: str = "auto",
) -> PathCount:
    """n-D count, by a closed form wherever the move set admits one.

    method:
      "factorized"  product of per-axis 1-D sums (full move set only; any n)
      "direct"      full frequency-grid sum (sign-symmetric move sets only;
                    n <= 3, term budget applies)
      "auto"        factorized when the move set factors, direct for other
                    sign-symmetric sets, the exact DP for the rest; small
                    full-set instances evaluate both sums and cross-check

    An end more than m cells from the start on some axis is out of reach:
    the count is exactly 0 and no sum is evaluated.

    The parity branch follows the spectral derivation: cosine b-term with
    prefactor (-1)^(n/2) for even n, sine b-term with prefactor (-1)^((n-1)/2)
    for odd n. The odd sign is fixed so that one axis reduces exactly to the
    1-D formula with its positive 2/d prefactor; the exact DP oracle confirms
    both branches.

    When both routes are computed they must agree within relative 1e-6,
    loosened only by the evaluations' own roundoff bounds (large kernel powers
    cancel catastrophically in float64; the bounds track exactly when).
    """
    _check_interior(spec.d, a, "start")
    _check_interior(spec.d, b, "target")
    if m < 0:
        raise DomainError("m must be >= 0")
    if method not in ("auto", "direct", "factorized"):
        raise DomainError(f"unknown method {method!r}")
    if method == "factorized":
        return corridor_count_factorized(spec, a, b, m)
    if not spec.move_set.is_sign_symmetric():
        if method == "direct":
            raise DomainError(
                "the direct sum requires a move set closed under per-axis sign flips"
            )
        return corridor_count_dp(spec, a, b, m)
    if any(abs(bj - aj) > m for aj, bj in zip(a, b)):
        return PathCount.from_int(0)
    full = spec.move_set.is_full()
    n = len(spec.d)
    terms = 1
    for dj in spec.d:
        terms *= 2 * dj

    if method == "direct":
        value, abs_sum = _direct_spectral_sum(spec.d, a, b, m, spec.move_set)
        direct = PathCount.from_float(value, (m + 2) * _EPS * abs_sum)
        if full:
            fact = corridor_count_factorized(spec, a, b, m)
            _cross_check(direct, fact)
        return direct

    if full:
        fact = corridor_count_factorized(spec, a, b, m)
        if n <= 3 and terms <= 200_000:
            value, abs_sum = _direct_spectral_sum(spec.d, a, b, m, spec.move_set)
            direct = PathCount.from_float(value, (m + 2) * _EPS * abs_sum)
            _cross_check(direct, fact)
        return fact
    value, abs_sum = _direct_spectral_sum(spec.d, a, b, m, spec.move_set)
    return PathCount.from_float(value, (m + 2) * _EPS * abs_sum)


def _cross_check(direct: PathCount, fact: PathCount) -> None:
    tol = max(1e-6, direct.rel_err + fact.rel_err)
    if not direct.agrees_with(fact, tol):
        raise NumericalOverflow(
            "direct and factorized corridor counts disagree beyond "
            f"tolerance {tol:.3e}: {direct.display()} vs {fact.display()}"
        )


# ---------------------------------------------------------------------------
# joint-angle mapping, approximation, scaling table


def joint_to_corridor(joint: JointSpec) -> tuple[int, Callable[[float], int]]:
    """Map a joint's angle range onto corridor coordinates.

    d is chosen so the grid positions inside the limits are exactly the
    interior 1..d-1; the map centers angle 0 on an interior integer. Angles
    that land on or outside a wall are rejected.
    """
    joint.validate()
    span = (joint.q_max - joint.q_min) / joint.delta_q
    d = int(round(span)) + 1
    if d % 2 == 0:
        offset = d // 2
    else:
        offset = (d - 1) // 2 + 1

    def index(q: float) -> int:
        x = q / joint.delta_q
        i = math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)
        idx = i + offset
        if not (1 <= idx <= d - 1):
            raise DomainError(f"angle {q} rad maps to wall or beyond (index {idx}, d={d})")
        return idx

    return d, index


def corridor_convention(d: int) -> str:
    """Human-readable tag for the anchoring convention, stamped into outputs."""
    return "center-even" if d % 2 == 0 else "center-odd-upper"


def approx_count_log10(torque_counts: Sequence[int], m: int, n: int) -> float:
    """log10 of the endpoint-averaged walk-count estimate |A|^m / (2m+1)^n."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if m < 0:
        raise DomainError("m must be >= 0")
    if not torque_counts or any(c < 1 for c in torque_counts):
        raise DomainError("torque counts must be positive")
    log_a = sum(math.log10(c) for c in torque_counts)
    return m * log_a - n * math.log10(2 * m + 1)


@dataclass(frozen=True)
class ScalingRow:
    n: str
    m: str
    log10_count: float | None
    method: str


def scaling_table(
    joint: JointSpec, n_range: Sequence[int], m_max: int, separation: float
) -> list[ScalingRow]:
    """Path-count growth per dof count and step budget, plus reference rows.

    Axes are identical copies of the joint's corridor; the start is angle 0 and
    the target sits `separation` away on every axis. Columns with n <= 3 use
    the per-axis closed form; larger n uses the endpoint-averaged estimate,
    except at the minimum feasible step count where the count is exactly 1
    (every axis is forced to move one cell per step) and below it where it is
    exactly 0 (a cell per step is the speed limit). Reference rows: the
    361^m game-tree bound and the 10^80 atom count.
    """
    d, index = joint_to_corridor(joint)
    steps = separation / joint.delta_q
    if abs(steps - round(steps)) > 1e-9:
        raise DomainError("separation must be a multiple of delta_q")
    min_steps = int(round(steps))
    if min_steps < 1:
        raise DomainError("separation must be positive")
    a_idx = index(0.0)
    b_idx = index(separation)
    if m_max < 1:
        raise DomainError("m_max must be >= 1")

    rows: list[ScalingRow] = []
    for n in n_range:
        if n < 1:
            raise DomainError("dof counts must be >= 1")
        for m in range(1, m_max + 1):
            if m < min_steps:
                rows.append(ScalingRow(str(n), str(m), None, "exact"))
            elif m == min_steps:
                # unique forced path on every axis regardless of n
                rows.append(ScalingRow(str(n), str(m), 0.0, "exact"))
            elif n <= 3:
                per_axis = corridor_count_1d(d, a_idx, b_idx, m)
                if per_axis.sign == 0:
                    rows.append(ScalingRow(str(n), str(m), None, "closed"))
                else:
                    rows.append(ScalingRow(str(n), str(m), n * per_axis.log10, "closed"))
            else:
                val = approx_count_log10([3] * n, m, n)
                rows.append(ScalingRow(str(n), str(m), val, "approx"))
    for m in range(1, m_max + 1):
        rows.append(ScalingRow("go", str(m), m * math.log10(361.0), "reference"))
    rows.append(ScalingRow("atoms", "*", 80.0, "reference"))
    return rows


def write_scaling_csv(rows: Iterable[ScalingRow], fh) -> None:
    fh.write("n,m,log10_count,method\n")
    for r in rows:
        val = "" if r.log10_count is None else f"{r.log10_count:.6f}"
        fh.write(f"{r.n},{r.m},{val},{r.method}\n")
