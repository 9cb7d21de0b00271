"""Walk counting on bounded integer grids with absorbing walls.

A corridor is a grid whose axis j admits interior positions 1..d_j-1; touching
0 or d_j kills the walk. Moves come from a move set of per-step displacement
vectors with components in {-1, 0, +1}. Three routes to the same number are
provided and cross-checked:

  * an exact dynamic program (the oracle): the move-set stencil over the
    cells a walk from the start to the end can visit, each a lane of one
    Python integer; it counts any move set, stepping a product of per-axis
    offsets one axis at a time where that takes fewer shifts (exact, as the
    walls and the box are per axis). The product routes below rest on that same fact, so the tests
    check the DP against a dict DP that moves whole vectors,
  * an exact 1-D count by the method of images, in Python integers; for the
    full diagonal move set (every vector over {-1,0,1}^n) the n-D count is
    the product of these per-axis counts (the fast path), all taken from
    one shared pass of the coefficient recurrence,
  * the paper's spectral sum over the full frequency grid, which for the
    full move set is a product of one-axis sine sums (with n = 1 the 1-D
    sine formula), each read off exactly, with no pi, cosine or rounding, as
    two coefficients of (1 + x + x^2)^m mod x^(2d) - 1 by the orthogonality
    of the 2d-th roots of unity, and the product always cross-checked
    against the images product.

Every route returns a PathCount, an exact int. Both closed forms take the
full move set only, whose stencil factors per axis; other move sets are
counted by the DP. An end farther from the start than the step count on
some axis is counted as exactly 0 by every route, before any cap or price,
since a walk moves at most one cell per step (_check_walk).
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import DomainError, NumericalOverflow, ResourceLimit
from .model import JointSpec, _round_half_away, check_count_work, format_count, grid_range

# the 1-D images pass costs time growing as m^2: about 1.5 s at the cap
_IMAGES_STEP_CAP = 50_000
# the spectral sum's price in word products (_spectral_count): 0.3 to 2.4 s
# at the cap for walls 2 to 1000 apart; it admits 5,796 steps at d = 136 and
# 109,957 at d = (6, 6), where the images cross-check's 50,000 governs
_SPECTRAL_WORK_CAP = 2 * 10 ** 8
_MOVE_SET_DIM_CAP = 12


# ---------------------------------------------------------------------------
# move sets


class MoveSet:
    """Allowed per-step displacement vectors; components limited to -1/0/+1.

    `factors` splits a step into passes (corridor_count_dp): for a product
    S_1 x ... x S_n of per-axis offsets whose passes cost less, sum of
    2 |S_j| + 1 below 2 |moves| + 1, per axis j the unit moves by S_j; for
    any other set, the empty one and every 1-D one too, one factor of every
    move.
    """

    def __init__(self, n: int, moves: tuple[tuple[int, ...], ...]):
        if n < 1:
            raise DomainError("move set dimension must be >= 1")
        seen = set()
        for mv in moves:
            if len(mv) != n:
                raise DomainError(f"move {mv} has wrong dimension (expected {n})")
            if any(c not in (-1, 0, 1) for c in mv):
                raise DomainError(f"move {mv} has components outside -1/0/+1")
            if mv in seen:
                raise DomainError(f"duplicate move {mv}")
            seen.add(mv)
        # canonical ordering for deterministic iteration
        self.n, self.moves = n, tuple(sorted(moves))
        # the moves are distinct, so they are the whole product iff its size is
        # theirs; split only where the passes touch fewer lanes than one pass
        axes = [sorted({mv[j] for mv in moves}) for j in range(n)]
        self.factors = (self.moves,)
        if (moves and math.prod(map(len, axes)) == len(moves)
                and sum(2 * len(s) + 1 for s in axes) < 2 * len(moves) + 1):
            zero = (0,) * n
            self.factors = tuple(tuple(zero[:j] + (c,) + zero[j + 1:] for c in s)
                                 for j, s in enumerate(axes))

    def is_full(self) -> bool:
        return len(self.moves) == 3 ** self.n


def full_move_set(n: int) -> MoveSet:
    """Every vector over {-1,0,1}^n, lexicographically ordered."""
    if n < 1:
        raise DomainError("dimension must be >= 1")
    if n > _MOVE_SET_DIM_CAP:
        raise DomainError(f"dimension capped at {_MOVE_SET_DIM_CAP}")
    moves = tuple(itertools.product((-1, 0, 1), repeat=n))
    return MoveSet(n=n, moves=moves)


class CorridorSpec:
    """Per-axis wall positions (walls at 0 and d_j) plus the move set."""

    def __init__(self, d: tuple[int, ...], move_set: MoveSet):
        if len(d) != move_set.n:
            raise DomainError("corridor dimension does not match move set")
        if any(dj < 2 for dj in d):
            raise DomainError("every wall parameter d_j must be >= 2")
        self.d, self.move_set = d, move_set


def _check_walk(d: Sequence[int], a: Sequence[int], b: Sequence[int], m: int) -> bool:
    """Whether the end is in reach: within m cells of the start on every axis,
    as a walk moves at most one cell per step (out of reach the count is 0).
    DomainError first, unless both ends are interior cells and m >= 0."""
    for label, p in (("start", a), ("target", b)):
        if len(p) != len(d):
            raise DomainError(f"{label} has dimension {len(p)}, corridor has {len(d)}")
        for j, (dj, pj) in enumerate(zip(d, p)):
            if not (1 <= pj <= dj - 1):
                raise DomainError(
                    f"{label}[{j}] = {pj} is on or outside a wall (interior is 1..{dj - 1})"
                )
    if m < 0:
        raise DomainError("m must be >= 0")
    return all(abs(bj - aj) <= m for aj, bj in zip(a, b))


# ---------------------------------------------------------------------------
# counts


class PathCount(NamedTuple):
    """A walk count, always an exact int."""

    exact: int
    # an exact count has no error
    abs_err_log10 = -math.inf
    rel_err = 0.0

    @classmethod
    def from_int(cls, x: int) -> "PathCount":
        if x < 0:
            raise DomainError("counts are nonnegative")
        return cls(x)

    @property
    def log10(self) -> float:
        return math.log10(self.exact) if self.exact > 0 else -math.inf

    def display(self) -> str:
        return format_count(self.exact)

    def agrees_with(self, other: "PathCount", rel_tol: float) -> bool:
        """Whether the counts differ by at most rel_tol times the larger, compared exactly."""
        num, den = rel_tol.as_integer_ratio()
        return abs(self.exact - other.exact) * den <= num * max(self.exact, other.exact)


# ---------------------------------------------------------------------------
# 1-D count by the method of images


def corridor_count_1d(d: int, a: int, b: int, m: int) -> PathCount:
    """Exact count of m-step 3-way walks a -> b between walls 0 and d.

    Method of images (the reflection principle): no step jumps over a wall,
    so summing the unbounded counts to the images of b under reflection in
    the walls 0 and d, with alternating signs, cancels exactly the walks that
    touch a wall:

        N = sum_k [T(m, b - a + 2kd) - T(m, b + a + 2kd)],

    where T(m, j) = [x^j] (1/x + 1 + x)^m counts unbounded walks of net
    displacement j (Mohanty, Lattice Path Counting and Applications, 1979).
    Only |j| <= m contribute. The coefficients c_i = T(m, i - m) of
    (1 + x + x^2)^m come from one pass of the recurrence

        (i + 1) c_{i+1} = (m - i) c_i + (2m - i + 1) c_{i-1},

    which follows from (1 + x + x^2) f' = m (1 + 2x) f. The pass holds two
    Python integers of up to about 1.6 m bits, so its cost grows as m^2;
    counts above _IMAGES_STEP_CAP steps are refused with ResourceLimit.
    """
    d = int(d)
    if d < 2:
        raise DomainError("d must be >= 2")
    in_reach = _check_walk((d,), (a,), (b,), m)
    return PathCount.from_int(_images_count((d,), (a,), (b,), m) if in_reach else 0)


def _check_images_steps(m: int) -> None:
    if m > _IMAGES_STEP_CAP:
        raise ResourceLimit(f"the exact 1-D count needs m = {m} steps, cap is {_IMAGES_STEP_CAP}")


def _images_count(d: Sequence[int], a: Sequence[int], b: Sequence[int], m: int) -> int:
    """Product over the axes of corridor_count_1d's count, from one shared pass.

    The coefficients c_i depend only on m, so one pass of the recurrence
    serves every axis; each axis adds its own image weights. The end must be
    in reach (_check_walk).
    """
    _check_images_steps(m)

    # per coefficient index i = m - |j|, each axis's net sign of the images
    # there, using T(m, j) = T(m, -j); an image in reach has |2kd| <= m + 2d - 2,
    # so |k| <= m // (2d) + 1
    weights: dict[int, list[int]] = {}
    for axis, (dj, aj, bj) in enumerate(zip(d, a, b)):
        span = m // (2 * dj) + 1
        for k in range(-span, span + 1):
            for j, sign in ((bj - aj + 2 * k * dj, 1), (bj + aj + 2 * k * dj, -1)):
                if abs(j) <= m:
                    weights.setdefault(m - abs(j), [0] * len(d))[axis] += sign
    totals = [0] * len(d)
    prev, c = 0, 1  # c_{-1}, c_0
    for i in range(max(weights) + 1):
        for axis, w in enumerate(weights.get(i, ())):
            totals[axis] += w * c
        prev, c = c, ((m - i) * c + (2 * m - i + 1) * prev) // (i + 1)
    return math.prod(totals)


# ---------------------------------------------------------------------------
# exact DP oracle


def corridor_count_dp(spec: CorridorSpec, a: Sequence[int], b: Sequence[int], m: int) -> PathCount:
    """Exact count by m applications of the move-set stencil with absorbing walls.

    The counts live in the lens box, the interior cells x with |x_j - a_j| +
    |x_j - b_j| <= m on every axis j, which alone a walk from a to b in m
    steps can visit. Padded by a cell per side on every axis, the box is one
    Python integer, a lane of `lane` bytes per cell in row-major order (SIMD
    within a register; Fisher and Dietz, LCPC 1998). A step is one pass per
    factor of the move set (MoveSet.factors): a pass adds one shift of the
    integer per move of the factor and masks off the padding, dropping walks
    that hit a wall or leave the box; a source is interior, so no shift wraps
    it into another row. A product set's step thus takes its per-axis passes
    in turn, sum factorization (Orszag, J. Comput. Phys. 1980), exactly: the
    walls and the box are per axis, so a move lands inside iff each of its
    axis offsets does from a cell inside, and masking after each pass drops
    the same walks as masking after the whole move. No lane carries: after
    step t a lane holds at most |moves|^t, and the passes of a step add into
    each lane, padding included, at most prod |factor| = |moves| source lanes
    of step t, so lanes stay at most |moves|^m, which fits. Work past
    check_count_work's budget, 2 |moves| + 1 touches per padded lane and
    step, is refused first; a set is split only where its passes touch
    fewer, so that price bounds the work of either loop.
    """
    if not _check_walk(spec.d, a, b, m):
        return PathCount.from_int(0)
    # the lens box, ceil((a_j + b_j - m) / 2) .. floor((a_j + b_j + m) / 2)
    lo = [max(1, -((m - aj - bj) // 2)) for aj, bj in zip(a, b)]
    size = [min(dj - 1, (aj + bj + m) // 2) - l + 1 for dj, aj, bj, l in zip(spec.d, a, b, lo)]
    moves, cells = spec.move_set.moves, math.prod(size)
    check_count_work(f"DP over {cells} cells x {len(moves)} moves x {m} steps",
                     m, math.prod(s + 2 for s in size) * (2 * len(moves) + 1), len(moves))
    lane = max(1, -(-(len(moves) ** m).bit_length() // 8))
    # interior lanes set, as bytes (big-int division is quadratic); per axis, bits between cells
    block, stride = b"\xff" * lane, []
    for s in reversed(size):
        stride.insert(0, 8 * len(block))
        block = bytes(len(block)) + block * s + bytes(len(block))
    mask = int.from_bytes(block, "little")
    start, end = (sum((pj - l + 1) * sj for pj, l, sj in zip(p, lo, stride)) for p in (a, b))
    # per factor: whether it stays, its shifts up and its shifts down
    passes = []
    for f in spec.move_set.factors:
        shifts = [sum(c * sj for c, sj in zip(mv, stride)) for mv in f]
        passes.append((0 in shifts, [s for s in shifts if s > 0], [-s for s in shifts if s < 0]))
    cur = 1 << start
    for _ in range(m):
        for stay, up, down in passes:
            nxt = cur if stay else 0
            for s in up:
                nxt += cur << s
            for s in down:
                nxt += cur >> s
            cur = nxt & mask
    return PathCount.from_int(cur >> end & (1 << 8 * lane) - 1)


# ---------------------------------------------------------------------------
# spectral kernel and the n-D closed form


def _spectral_count(d: Sequence[int], a: Sequence[int], b: Sequence[int], m: int) -> int:
    """The paper's frequency-grid sum for the full move set, as an exact integer.

    The full move set's kernel is prod_j (1 + 2 cos theta_j), so the grid sum
    is the product over the axes of the one-axis sums

        N = (2/d) sum_{k=1}^{d-1} sin(pi k a/d) sin(pi k b/d) (1 + 2 cos(pi k/d))^m,

    each an axis's walk count. With w = e^{i pi/d} the summand is F(w^k), where

        F(x) = (x^(a-b) + x^(b-a) - x^(a+b) - x^(-a-b)) (1 + x + 1/x)^m / 4.

    F vanishes at k = 0 and k = d and is symmetric under k <-> 2d - k, so N is
    (1/d) times the sum of F over all 2d-th roots of unity; as those sum x^j
    to 2d where 2d divides j and to 0 elsewhere, and C(r) = C(-r) below by
    the symmetry of (1 + x + x^2)^m,

        N = C(b - a) - C(a + b),

    where C(r) is the coefficient of x^((r + m) mod 2d) in (1 + x + x^2)^m
    mod (x^(2d) - 1): the Fourier side of the method of images (Krattenthaler,
    "Lattice path enumeration", 2015). The power is taken by binary powering
    in one Python integer, a lane of `lane` bits per coefficient, reduced
    mod x^(2d) - 1 by folding the high 2d lanes onto the low ones. No lane
    carries: at exponent e the lanes sum to 3^e <= 3^m < 2^lane. One power
    serves every axis with the same wall. The work is priced first, and
    refused with ResourceLimit past _SPECTRAL_WORK_CAP.
    """
    lane = m * 1585 // 1000 + 1  # 1585/1000 > log2 3
    # price in word products: per distinct wall 2 log2 m products of integers
    # of 2d lanes (w words cost about w^1.5 by Karatsuba), plus Python work
    # worth 256
    work = 0
    for dj in set(d):
        words = 2 * dj * lane // 64 + 1
        work += 2 * m.bit_length() * (256 + words * math.isqrt(words))
    if work > _SPECTRAL_WORK_CAP:
        raise ResourceLimit(
            f"the spectral sum over walls {tuple(d)} at {m} steps exceeds the work cap of "
            f"{_SPECTRAL_WORK_CAP} word products"
        )
    powers = {}
    for dj in set(d):
        size = 2 * dj * lane
        mask = (1 << size) - 1
        p = 1
        for bit in bin(m)[2:]:
            p *= p
            p = (p & mask) + (p >> size)
            if bit == "1":
                p += (p << lane) + (p << 2 * lane)
                p = (p & mask) + (p >> size)
        powers[dj] = p

    def coefficient(dj: int, r: int) -> int:
        return powers[dj] >> lane * ((r + m) % (2 * dj)) & (1 << lane) - 1

    return math.prod(coefficient(dj, bj - aj) - coefficient(dj, aj + bj)
                     for dj, aj, bj in zip(d, a, b))


def corridor_count_factorized(
    spec: CorridorSpec, a: Sequence[int], b: Sequence[int], m: int
) -> PathCount:
    """Exact count as the product of per-axis 1-D counts. Full move set only."""
    if not spec.move_set.is_full():
        raise DomainError("the factorized fast path requires the full move set")
    in_reach = _check_walk(spec.d, a, b, m)
    return PathCount.from_int(_images_count(spec.d, a, b, m) if in_reach else 0)


def corridor_count_nd(
    spec: CorridorSpec,
    a: Sequence[int],
    b: Sequence[int],
    m: int,
    method: str = "factorized",
) -> PathCount:
    """Exact n-D count over the full move set, by a closed form.

    method:
      "factorized"  product of per-axis 1-D counts by the method of images
      "direct"      the paper's frequency-grid sum (_spectral_count), cross-
                    checked for equality against the factorized count

    Any other move set raises DomainError; corridor_count_dp counts it.

    An end more than m cells from the start on some axis is out of reach:
    the count is exactly 0 and no sum is evaluated.
    """
    in_reach = _check_walk(spec.d, a, b, m)
    if method not in ("direct", "factorized"):
        raise DomainError(f"unknown method {method!r}")
    if method == "factorized":
        return corridor_count_factorized(spec, a, b, m)
    if not spec.move_set.is_full():
        raise DomainError("the direct sum requires the full move set")
    if not in_reach:
        return PathCount.from_int(0)
    # the cross-check's cap first, so no direct sum is taken only to be refused
    _check_images_steps(m)
    direct = PathCount.from_int(_spectral_count(spec.d, a, b, m))
    exact = corridor_count_factorized(spec, a, b, m)
    if direct != exact:
        raise NumericalOverflow(
            f"direct and factorized corridor counts disagree: {direct.display()} vs {exact.display()}"
        )
    return direct


# ---------------------------------------------------------------------------
# joint-angle mapping, approximation, scaling table


def joint_to_corridor(joint: JointSpec) -> tuple[int, Callable[[float], int]]:
    """Map a joint's angle range onto corridor coordinates.

    The grid points within the limits (model.grid_range's first..last) are
    exactly the interior 1..d-1, grid point k at index k - first + 1. Angles
    that land on or outside a wall are rejected.
    """
    joint.validate()
    first, last = grid_range(joint.q_min, joint.q_max, joint.delta_q)
    d = last - first + 2

    def index(q: float) -> int:
        idx = _round_half_away(q / joint.delta_q) - first + 1
        if not (1 <= idx <= d - 1):
            raise DomainError(f"angle {q} rad maps to wall or beyond (index {idx}, d={d})")
        return idx

    return d, index


def approx_count_log10(torque_counts: Sequence[int], m: int, n: int) -> float:
    """log10 of the endpoint-averaged walk-count estimate |A|^m / (2m+1)^n."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if m < 0:
        raise DomainError("m must be >= 0")
    if not torque_counts or any(c < 1 for c in torque_counts):
        raise DomainError("torque counts must be positive")
    return _approx_log10(sum(math.log10(c) for c in torque_counts), m, n)


def _approx_log10(log_a: float, m: int, n: int) -> float:
    # approx_count_log10 given log10 |A|, the sum of the per-axis logarithms
    return m * log_a - n * math.log10(2 * m + 1)


class ScalingRow(NamedTuple):
    n: str
    m: str
    log10_count: float | None
    method: str


def scaling_table(
    joint: JointSpec, n_range: Sequence[int], m_max: int, separation: float
) -> Iterator[ScalingRow]:
    """Path-count growth per dof count and step budget, plus reference rows.

    Axes are identical copies of the joint's corridor; the start is angle 0 and
    the target sits `separation` away on every axis. Columns with n <= 3 use
    the exact per-axis count, n times its log10, shared by those columns; larger
    n uses the endpoint-averaged estimate, except at the minimum feasible step
    count where the count is exactly 1 (every axis is forced to move one cell
    per step) and below it where it is exactly 0 (a cell per step is the speed
    limit). Reference rows: the 361^m game-tree bound and the 10^80 atom count.

    The per-axis counts come from one exact walk vector over the corridor's
    cells, advanced a step at a time in Python integers, so the table costs
    time growing as m_max^2 * d; they equal corridor_count_1d's.
    model.check_count_work's budget is checked before any work. The checks and
    the walk vector run at call time; the returned iterator makes one row at a time.
    """
    d, index = joint_to_corridor(joint)
    steps = separation / joint.delta_q
    if not math.isfinite(steps):
        raise DomainError(f"separation must be finite (got {separation} rad, {steps} cells)")
    if abs(steps - round(steps)) > 1e-9:
        raise DomainError("separation must be a multiple of delta_q")
    min_steps = int(round(steps))
    if min_steps < 1:
        raise DomainError("separation must be positive")
    a_idx = index(0.0)
    b_idx = index(separation)
    if m_max < 1:
        raise DomainError("m_max must be >= 1")
    if any(n < 1 for n in n_range):
        raise DomainError("dof counts must be >= 1")

    # per_axis[m]: log10 of the 1-D count at m steps, or None where it is 0
    per_axis: list[float | None] = [None]
    if any(n <= 3 for n in n_range):
        check_count_work(f"the 1-D walk vector over {d - 1} cells x {m_max} steps",
                         m_max, 3 * (d - 1), 3)
        # walks per cell 0..d; the walls stay 0, which drops walks that touch them
        walks = [0] * (d + 1)
        walks[a_idx] = 1
        for _ in range(m_max):
            walks = [0, *(x + y + z for x, y, z in zip(walks, walks[1:], walks[2:])), 0]
            per_axis.append(math.log10(walks[b_idx]) if walks[b_idx] else None)

    def rows() -> Iterator[ScalingRow]:
        for n in n_range:
            # approx_count_log10([3] * n, m, n)'s log10 |A|, summed once per column
            log_a = sum(itertools.repeat(math.log10(3), n))
            for m in range(1, m_max + 1):
                if m < min_steps:
                    yield ScalingRow(str(n), str(m), None, "exact")
                elif m == min_steps:
                    # unique forced path on every axis regardless of n
                    yield ScalingRow(str(n), str(m), 0.0, "exact")
                elif n <= 3:
                    log10 = per_axis[m]
                    yield ScalingRow(str(n), str(m), None if log10 is None else n * log10, "closed")
                else:
                    yield ScalingRow(str(n), str(m), _approx_log10(log_a, m, n), "approx")
        for m in range(1, m_max + 1):
            yield ScalingRow("go", str(m), m * math.log10(361.0), "reference")
        yield ScalingRow("atoms", "*", 80.0, "reference")

    return rows()


def write_scaling_csv(rows: Iterable[ScalingRow], fh) -> None:
    fh.write("n,m,log10_count,method\n")
    for r in rows:
        val = "" if r.log10_count is None else f"{r.log10_count:.6f}"
        fh.write(f"{r.n},{r.m},{val},{r.method}\n")
