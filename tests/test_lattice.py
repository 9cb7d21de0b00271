import io
import itertools
import math
import random
from collections.abc import Iterator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtraj.errors import DomainError, ResourceLimit
from dtraj.lattice import (
    CorridorSpec,
    MoveSet,
    PathCount,
    ScalingRow,
    _images_count,
    _spectral_count,
    approx_count_log10,
    corridor_count_1d,
    corridor_count_dp,
    corridor_count_factorized,
    corridor_count_nd,
    full_move_set,
    joint_to_corridor,
    scaling_table,
    write_scaling_csv,
)
from dtraj.model import JointSpec, check_count_work
from conftest import DEG, demo_joint


# exact counts for the tall-corridor instance (d=136, 50 steps), computed by
# the arbitrary-precision DP and locked here
AXIS_COUNTS_50 = {
    (68, 88): 111266251835865569100,
    (68, 58): 11152843844517873604890,
    (68, 108): 51590216930,
}
# their product: the 136^3 headline instance from (68, 68, 68) to (88, 58, 108)
HEADLINE_COUNT_50 = 64020112650274036323921763695686899486133281580070000


def reference_dp(d, moves, a, b, m):
    """Walk count by a dict of occupied cells, one move at a time: the oracle
    the stencil DP in corridor_count_dp replaced."""
    n = len(d)
    counts = {tuple(a): 1}
    for _ in range(m):
        nxt = {}
        for pos, c in counts.items():
            for mv in moves:
                tgt = tuple(pos[j] + mv[j] for j in range(n))
                if all(1 <= tgt[j] <= d[j] - 1 for j in range(n)):
                    nxt[tgt] = nxt.get(tgt, 0) + c
        counts = nxt
        if not counts:
            break
    return counts.get(tuple(b), 0)


def assert_matches_reference(rng, ms, cases, walls=(2, 8), m_max=10):
    """corridor_count_dp against reference_dp on `cases` seeded instances of
    the move set ms, with walls in the range `walls`, each end in reach."""
    for _ in range(cases):
        d = tuple(rng.randint(*walls) for _ in range(ms.n))
        a = tuple(rng.randint(1, dj - 1) for dj in d)
        m = rng.randint(0, m_max)
        b = tuple(rng.randint(max(1, aj - m), min(dj - 1, aj + m)) for aj, dj in zip(a, d))
        got = corridor_count_dp(CorridorSpec(d=d, move_set=ms), a, b, m).exact
        assert got == reference_dp(d, ms.moves, a, b, m), (d, ms.moves, a, b, m)


def random_move_set(rng, n):
    """A random subset of {-1,0,1}^n, from empty to full."""
    keep = rng.random()
    return MoveSet(n=n, moves=tuple(
        mv for mv in itertools.product((-1, 0, 1), repeat=n) if rng.random() < keep
    ))


class TestMoveSets:
    def test_full_sizes(self):
        assert len(full_move_set(1).moves) == 3
        assert len(full_move_set(2).moves) == 9
        assert len(full_move_set(3).moves) == 27

    def test_lexicographic_order(self):
        ms = full_move_set(2)
        assert ms.moves[0] == (-1, -1)
        assert ms.moves[-1] == (1, 1)
        assert (0, 0) in ms.moves

    def test_dimension_cap(self):
        with pytest.raises(DomainError):
            full_move_set(13)
        with pytest.raises(DomainError, match="dimension must be >= 1"):
            full_move_set(0)

    def test_component_validation(self):
        with pytest.raises(DomainError):
            MoveSet(n=1, moves=((2,),))
        with pytest.raises(DomainError):
            MoveSet(n=2, moves=((0, 0), (0, 0)))
        with pytest.raises(DomainError):
            MoveSet(n=2, moves=((0,),))
        with pytest.raises(DomainError, match="move set dimension must be >= 1"):
            MoveSet(n=0, moves=())
        with pytest.raises(DomainError, match="corridor dimension does not match move set"):
            CorridorSpec(d=(5, 5), move_set=full_move_set(1))


class TestCorridor1d:
    def test_zero_steps_is_identity(self):
        for d in (2, 5, 9):
            for a in range(1, d):
                for b in range(1, d):
                    got = corridor_count_1d(d, a, b, 0).exact
                    assert got == (1 if a == b else 0)

    def test_pinned_small_value(self):
        assert corridor_count_1d(5, 2, 3, 4).exact == 16
        assert corridor_count_1d(np.int64(5), 2, 3, 4).exact == 16

    def test_forced_maximal_path(self):
        for d, m in ((8, 5), (12, 9), (5, 2)):
            assert corridor_count_1d(d, 1, 1 + m, m).exact == 1

    def test_walls_rejected(self):
        with pytest.raises(DomainError):
            corridor_count_1d(5, 0, 3, 4)
        with pytest.raises(DomainError):
            corridor_count_1d(5, 2, 5, 4)
        with pytest.raises(DomainError):
            corridor_count_1d(1, 1, 1, 0)
        # a wall is an integer: a fractional one is not counted as its floor
        for d in (5.7, 5.0):
            with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
                corridor_count_1d(d, 2, 3, 10)

    def test_matches_dp_spot_sweep(self):
        for d in (3, 5, 8):
            spec = CorridorSpec(d=(d,), move_set=full_move_set(1))
            for a in range(1, d):
                for b in range(1, d):
                    for m in range(0, 9):
                        cf = corridor_count_1d(d, a, b, m)
                        dp = corridor_count_dp(spec, (a,), (b,), m)
                        assert cf.exact == dp.exact, (d, a, b, m)
                        assert cf.rel_err == 0.0

    def test_tall_corridor_against_frozen_dp(self):
        spec = CorridorSpec(d=(136,), move_set=full_move_set(1))
        for (a, b), want in AXIS_COUNTS_50.items():
            assert corridor_count_dp(spec, (a,), (b,), 50).exact == want
            assert corridor_count_1d(136, a, b, 50).exact == want

    @pytest.mark.parametrize("a, b, m, want", [
        # past 2^53, beyond float precision
        (68, 68, 36, 12159131877715993),
        # at the reach limit only the forced walk is left, and a few steps
        # more give a count far below the largest image terms it cancels
        (1, 135, 134, 1),
        (1, 135, 140, 11525622990),
    ])
    def test_pinned_exact_counts(self, a, b, m, want):
        assert corridor_count_1d(136, a, b, m).exact == want
        spec = CorridorSpec(d=(136,), move_set=full_move_set(1))
        assert corridor_count_dp(spec, (a,), (b,), m).exact == want

    @given(
        d=st.integers(2, 8),
        m=st.integers(0, 60),
        at_reach=st.booleans(),
        data=st.data(),
    )
    @settings(deadline=None, max_examples=200)
    def test_images_match_both_dps(self, d, m, at_reach, data):
        # m up to 60 on walls 2..8 apart sums dozens of images; the reach
        # draws put the ends one step inside, at, or just past the limit
        a = data.draw(st.integers(1, d - 1))
        b = data.draw(st.integers(1, d - 1))
        if at_reach:
            m = abs(b - a) + data.draw(st.integers(-1, 1))
        m = max(m, 0)
        spec = CorridorSpec(d=(d,), move_set=full_move_set(1))
        want = reference_dp((d,), full_move_set(1).moves, (a,), (b,), m)
        assert corridor_count_1d(d, a, b, m).exact == want
        assert corridor_count_dp(spec, (a,), (b,), m).exact == want

    def test_step_cap(self):
        # the cap bounds the time of one pass
        with pytest.raises(ResourceLimit, match=r"m = 50001 steps, cap is 50000"):
            corridor_count_1d(136, 68, 78, 50_001)
        spec = CorridorSpec(d=(136, 136), move_set=full_move_set(2))
        with pytest.raises(ResourceLimit):
            corridor_count_factorized(spec, (68, 68), (78, 78), 10 ** 9)
        for method in ("direct", "factorized"):
            with pytest.raises(ResourceLimit, match=r"m = 50001 steps, cap is 50000"):
                corridor_count_nd(spec, (68, 68), (78, 78), 50_001, method=method)
        # an end out of reach is still exactly 0, whatever the step count
        assert corridor_count_1d(10 ** 9, 1, 10 ** 9 - 1, 10 ** 6).exact == 0

    def test_deep_growth_rate(self):
        pc = corridor_count_1d(136, 68, 78, 2000)
        # dominated by the slowest-decaying mode: growth rate just under 3 per step
        lam = 1.0 + 2.0 * math.cos(math.pi / 136)
        assert pc.exact > 0
        assert 2000 * math.log10(lam) - 3 < pc.log10 < 2000 * math.log10(3.0)

    @given(
        d=st.integers(3, 10),
        m=st.integers(0, 10),
        data=st.data(),
    )
    @settings(deadline=None, max_examples=60)
    def test_symmetries(self, d, m, data):
        a = data.draw(st.integers(1, d - 1))
        b = data.draw(st.integers(1, d - 1))
        base = corridor_count_1d(d, a, b, m).exact
        # mirror both endpoints across the corridor center
        assert corridor_count_1d(d, d - a, d - b, m).exact == base
        # the move set is negation-symmetric, so direction does not matter
        assert corridor_count_1d(d, b, a, m).exact == base
        # adding a step can only add walks (the zero move pads)
        assert corridor_count_1d(d, a, b, m + 1).exact >= base
        # Chebyshev speed limit
        if abs(a - b) > m:
            assert base == 0

    def test_beyond_reach_is_exactly_zero(self):
        pc = corridor_count_1d(136, 1, 135, 40)
        assert pc.exact == 0 and pc.abs_err_log10 == -math.inf
        assert corridor_count_1d(136, 1, 135, 133).exact == 0
        assert corridor_count_1d(8, 7, 1, 5).exact == 0


class TestCorridorDp:
    def test_zero_steps(self):
        spec = CorridorSpec(d=(5, 5), move_set=full_move_set(2))
        assert corridor_count_dp(spec, (2, 2), (2, 2), 0).exact == 1
        assert corridor_count_dp(spec, (2, 2), (2, 3), 0).exact == 0

    def test_pinned_1d_value(self):
        spec = CorridorSpec(d=(5,), move_set=full_move_set(1))
        assert corridor_count_dp(spec, (2,), (3,), 4).exact == 16

    @given(
        m=st.integers(0, 6),
        a1=st.integers(1, 4), a2=st.integers(1, 4),
        b1=st.integers(1, 4), b2=st.integers(1, 4),
    )
    @settings(deadline=None, max_examples=40)
    def test_axes_factor_independently(self, m, a1, a2, b1, b2):
        spec2 = CorridorSpec(d=(5, 5), move_set=full_move_set(2))
        spec1 = CorridorSpec(d=(5,), move_set=full_move_set(1))
        joint = corridor_count_dp(spec2, (a1, a2), (b1, b2), m).exact
        per = (
            corridor_count_dp(spec1, (a1,), (b1,), m).exact
            * corridor_count_dp(spec1, (a2,), (b2,), m).exact
        )
        assert joint == per

    def test_lens_box_admits_cheap_work_on_wide_corridors(self, capsys):
        # the DP holds only the cells a walk from a to b can visit, so a wide
        # corridor costs what its lens box costs
        spec4 = CorridorSpec(d=(102,) * 4, move_set=full_move_set(4))
        corner = (1, 1, 1, 1)
        assert corridor_count_dp(spec4, corner, corner, 1).exact == 1 == reference_dp(
            spec4.d, spec4.move_set.moves, corner, corner, 1)
        spec3 = CorridorSpec(d=(136,) * 3, move_set=full_move_set(3))
        a, b = (68, 68, 68), (69, 67, 68)
        assert corridor_count_dp(spec3, a, b, 5) == corridor_count_factorized(spec3, a, b, 5)
        from dtraj.cli import main
        argv = ["count", "corridor", "--d", "100000000", "--from", "5", "--to", "6",
                "--steps", "3"]
        outs = []
        for extra in ([], ["--exact"]):
            assert main(argv + extra) == 0
            outs.append(capsys.readouterr().out)
        assert outs == ["6\n", "6\n"]

    def test_budget_counts_steps(self):
        # four cells are cheap per step but not for a billion steps
        spec = CorridorSpec(d=(5,), move_set=full_move_set(1))
        with pytest.raises(ResourceLimit, match="DP over 4 cells x 3 moves x 1000000000 steps "
                                                "exceeds the work budget"):
            corridor_count_dp(spec, (2,), (3,), 10 ** 9)

    @given(n=st.integers(1, 3), full=st.booleans(), data=st.data())
    @settings(deadline=None, max_examples=200)
    def test_lens_edges_match_reference(self, n, full, data):
        # ends on the edges of the lens box: |a - b| = m + 1, m and m - 1,
        # a = b, and an end one cell from a wall; the offsets m and m - 1 give
        # both parities of a + b + m
        d = tuple(data.draw(st.integers(2, (12, 8, 6)[n - 1])) for _ in range(n))
        m = data.draw(st.integers(0, max(d)))
        a, b = [], []
        for dj in d:
            kind = data.draw(st.sampled_from(["m+1", "m", "m-1", "same", "wall"]))
            if kind == "wall":
                ends = [data.draw(st.sampled_from([1, dj - 1])), data.draw(st.integers(1, dj - 1))]
                aj, bj = data.draw(st.permutations(ends))
            else:
                aj = data.draw(st.integers(1, dj - 1))
                step = {"m+1": m + 1, "m": m, "m-1": max(m - 1, 0), "same": 0}[kind]
                # clipped to the interior, which puts the end next to a wall
                bj = min(max(aj + data.draw(st.sampled_from([-1, 1])) * step, 1), dj - 1)
            a.append(aj)
            b.append(bj)
        cube = list(itertools.product((-1, 0, 1), repeat=n))
        moves = cube if full else data.draw(st.lists(st.sampled_from(cube), unique=True))
        spec = CorridorSpec(d=d, move_set=MoveSet(n=n, moves=tuple(moves)))
        got = corridor_count_dp(spec, a, b, m).exact
        assert type(got) is int
        assert got == reference_dp(d, spec.move_set.moves, a, b, m)

    def test_matches_reference_on_random_move_sets(self):
        rng = random.Random(20261018)
        for case in range(300):
            n = rng.randint(1, 3)
            ms = random_move_set(rng, n)
            d = tuple(rng.randint(2, (12, 8, 6)[n - 1]) for _ in range(n))
            a = tuple(rng.randint(1, dj - 1) for dj in d)
            b = tuple(rng.randint(1, dj - 1) for dj in d)
            m = rng.randint(0, 14)
            got = corridor_count_dp(CorridorSpec(d=d, move_set=ms), a, b, m).exact
            assert type(got) is int
            assert got == reference_dp(d, ms.moves, a, b, m), (case, d, ms.moves, a, b, m)

    @pytest.mark.parametrize("moves", [(), ((1,),)])
    def test_every_walk_dies(self, moves):
        spec = CorridorSpec(d=(9,), move_set=MoveSet(n=1, moves=moves))
        for m in (0, 1, 7, 8, 100):
            for b in range(1, 9):
                got = corridor_count_dp(spec, (1,), (b,), m).exact
                assert got == reference_dp((9,), moves, (1,), (b,), m), (moves, m, b)
        # only the lone +1 move walks 1 -> 8, in exactly 7 steps
        assert corridor_count_dp(spec, (1,), (8,), 7).exact == (len(moves) == 1)

    def test_zero_steps_on_a_huge_corridor(self):
        spec = CorridorSpec(d=(10 ** 9,) * 3, move_set=full_move_set(3))
        assert corridor_count_dp(spec, (5, 5, 5), (5, 5, 5), 0).exact == 1
        assert corridor_count_dp(spec, (5, 5, 5), (5, 6, 5), 0).exact == 0

    @pytest.mark.parametrize("d,a,b,m", [
        ((40,), (20,), (21,), 60),
        ((6, 6, 6), (3, 3, 3), (2, 4, 3), 20),
        ((5, 9), (1, 4), (4, 8), 40),
    ])
    def test_exact_past_int64(self, d, a, b, m):
        spec = CorridorSpec(d=d, move_set=full_move_set(len(d)))
        got = corridor_count_dp(spec, a, b, m).exact
        assert type(got) is int
        want = reference_dp(d, spec.move_set.moves, a, b, m)
        assert got == want > 2 ** 63

    @pytest.mark.parametrize("size, n", [
        (0, 1), (0, 3), (1, 1), (1, 4), (2, 1), (2, 3), (3, 1), (3, 2), (3, 4),
        (9, 2), (9, 3), (9, 4), (27, 3), (27, 4),
    ])
    def test_lane_widths_match_reference(self, size, n):
        # each cell is a lane of ceil(bitlen(|moves|^m) / 8) bytes; every step
        # count up to the first at which |moves|^m passes 16 bits tries lanes
        # of one, two and three bytes, each at both ends of its range (with 2
        # moves, bitlen 8, 9, 16 and 17); 0 or 1 moves take up to 17 steps
        last = 17 if size < 2 else min(m for m in range(40) if (size ** m).bit_length() > 16)
        rng = random.Random(1800 + 10 * size + n)
        for m in range(last + 1):
            moves = tuple(rng.sample(list(itertools.product((-1, 0, 1), repeat=n)), size))
            move_set = MoveSet(n=n, moves=moves)
            for kind in ("edge", "wall", "centre"):
                d, a, b = [], [], []
                for _ in range(n):
                    # centre: far enough from both walls that no walk dies,
                    # so the lanes fill up as far as the move set lets them
                    dj = 2 * m + 3 if kind == "centre" else rng.randint(3, 9)
                    aj = {"edge": rng.randint(1, dj - 1), "wall": rng.choice([1, 2, dj - 2, dj - 1]),
                          "centre": m + 1}[kind]
                    # ends on the lens edges, |a - b| = m or m - 1, clipped to
                    # the interior, which puts the end next to a wall
                    step = rng.choice([m, m - 1]) if kind == "edge" else rng.randint(0, 1)
                    d.append(dj)
                    a.append(aj)
                    b.append(min(max(aj + rng.choice([-1, 1]) * step, 1), dj - 1))
                spec = CorridorSpec(d=tuple(d), move_set=move_set)
                got = corridor_count_dp(spec, a, b, m).exact
                assert got == reference_dp(d, move_set.moves, a, b, m), (moves, d, a, b, m)
                if size == 0:
                    assert got == (a == b and m == 0)

    @pytest.mark.parametrize("d, a, b, m", [
        # the benchmark's counts between 2^53 and 2^63 (its FAULT_INSTANCES)
        (136, 68, 68, 36), (136, 68, 70, 37), (136, 60, 75, 40), (136, 68, 68, 41),
        # above 2^64, wider than a machine word
        (136, 68, 70, 60),
    ])
    def test_wide_counts_match_reference(self, d, a, b, m):
        spec = CorridorSpec(d=(d,), move_set=full_move_set(1))
        got = corridor_count_dp(spec, (a,), (b,), m).exact
        assert got == reference_dp((d,), spec.move_set.moves, (a,), (b,), m) > 2 ** 53
        assert m < 60 or got > 2 ** 64

    @pytest.mark.parametrize("axes, factors, walls, m_max", [
        # split: the per-axis passes touch fewer lanes than one pass of every move
        (((-1, 0, 1), (-1, 1)), 2, (2, 8), 10),
        (((-1, 1),) * 3, 3, (2, 8), 10),
        (((-1, 0, 1), (-1, 0, 1), (1,)), 3, (2, 8), 10),
        (((-1, 0, 1), (0,), (-1, 0, 1)), 3, (2, 8), 10),
        (((0, 1), (-1, 0, 1), (-1, 1)), 3, (2, 8), 10),
        # not split: one pass is cheaper (an axis fixed at {1} or {0}, a single
        # move, the 2-D diagonals)
        (((-1, 1), (0, 1)), 1, (2, 8), 10),
        (((-1, 0, 1), (1,)), 1, (2, 8), 10),
        (((-1, 0, 1), (0,)), 1, (2, 8), 10),
        (((1,), (0, 1), (-1, 1)), 1, (2, 8), 10),
        (((1,), (0,), (-1,)), 1, (2, 8), 10),
        (((-1, 1), (-1, 1)), 1, (2, 8), 10),
        # the full sets, 2-D and 3-D at the benchmark's sizes; 1-D is never split
        (((-1, 0, 1),), 1, (2, 40), 40),
        (((-1, 0, 1),) * 2, 2, (20, 24), 12),
        (((-1, 0, 1),) * 3, 3, (7, 9), 8),
    ])
    def test_product_sets_match_reference(self, axes, factors, walls, m_max):
        # a split set steps one axis at a time; reference_dp moves whole
        # vectors, so it checks that the passes are the step
        ms = MoveSet(n=len(axes), moves=tuple(itertools.product(*axes)))
        assert len(ms.factors) == factors
        if factors > 1:
            assert [len(f) for f in ms.factors] == [len(s) for s in axes]
        assert_matches_reference(random.Random(str(axes)), ms, 20, walls, m_max)

    def test_random_product_sets_match_reference(self):
        rng, split = random.Random(20261019), 0
        for _ in range(60):
            axes = [rng.sample((-1, 0, 1), rng.randint(1, 3)) for _ in range(rng.randint(2, 3))]
            ms = MoveSet(n=len(axes), moves=tuple(itertools.product(*axes)))
            assert len(ms.factors) in (1, len(axes))
            # the DP's price, 2 |moves| + 1 touches per lane and step, bounds the passes
            assert sum(2 * len(f) + 1 for f in ms.factors) <= 2 * len(ms.moves) + 1
            split += len(ms.factors) > 1
            assert_matches_reference(rng, ms, 5)
        assert 10 < split < 50

    @pytest.mark.parametrize("moves", [
        # von Neumann, with and without the stay
        [(-1, 0), (0, -1), (0, 1), (1, 0)],
        [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)],
        [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)],
        # the full set less one move; the diagonals only, in 3-D, and with the stay in 2-D
        [mv for mv in itertools.product((-1, 0, 1), repeat=2) if mv != (1, -1)],
        [mv for mv in itertools.product((-1, 0, 1), repeat=3) if mv != (0, 0, 0)],
        [mv for mv in itertools.product((-1, 0, 1), repeat=3) if mv.count(0) <= 1],
        [mv for mv in itertools.product((-1, 0, 1), repeat=2) if 0 not in mv or mv == (0, 0)],
    ])
    def test_non_product_sets_take_one_pass(self, moves):
        # every axis offers -1, 0 and 1, yet the set is no product: one factor
        n = len(moves[0])
        assert all({mv[j] for mv in moves} == {-1, 0, 1} for j in range(n))
        ms = MoveSet(n=n, moves=tuple(moves))
        assert ms.factors == (ms.moves,)
        assert_matches_reference(random.Random(len(moves)), ms, 40)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_empty_set_is_one_factor(self, n):
        ms = MoveSet(n=n, moves=())
        assert ms.factors == ((),)
        spec = CorridorSpec(d=(6,) * n, move_set=ms)
        for b in ((2,) * n, (3,) * n):
            assert corridor_count_dp(spec, (2,) * n, b, 0).exact == (b == (2,) * n)
            assert corridor_count_dp(spec, (2,) * n, b, 1).exact == 0

    def test_full_set_factors(self):
        assert full_move_set(2).factors == (((-1, 0), (0, 0), (1, 0)), ((0, -1), (0, 0), (0, 1)))

    def test_criterion_3_instances_match_reference(self):
        # the acceptance gate's instances, checked against the whole-vector DP
        rng = random.Random(20260819)
        for case in range(50):
            n = rng.choice((2, 3))
            d = tuple(rng.randint(3, 12) for _ in range(n))
            a = tuple(rng.randint(1, dj - 1) for dj in d)
            b = tuple(rng.randint(1, dj - 1) for dj in d)
            m = rng.randint(0, 12)
            spec = CorridorSpec(d=d, move_set=full_move_set(n))
            got = corridor_count_dp(spec, a, b, m).exact
            assert got == reference_dp(d, spec.move_set.moves, a, b, m), (case, d, a, b, m)

    @pytest.mark.parametrize("moves, edge", [
        (tuple(itertools.product((-1, 0, 1), repeat=3)), 1492),
        (((1, 1, 1),), 187828),
    ])
    def test_product_price_edge(self, monkeypatch, moves, edge):
        # the most steps the budget admits from (2,2,2) back on 5^3: the price
        # is 2 |moves| + 1 touches per padded lane and step, split or not
        import dtraj.lattice as lattice

        class Admitted(Exception):
            pass

        def price_only(*args):
            check_count_work(*args)
            raise Admitted

        monkeypatch.setattr(lattice, "check_count_work", price_only)
        spec = CorridorSpec(d=(5, 5, 5), move_set=MoveSet(n=3, moves=moves))
        with pytest.raises(Admitted):
            corridor_count_dp(spec, (2, 2, 2), (2, 2, 2), edge)
        with pytest.raises(ResourceLimit, match=f"DP over 64 cells x {len(moves)} moves x "
                                                f"{edge + 1} steps exceeds the work budget"):
            corridor_count_dp(spec, (2, 2, 2), (2, 2, 2), edge + 1)

    def test_restricted_move_set(self):
        # without the zero move, parity forbids odd/even mismatches
        ms = MoveSet(n=1, moves=((-1,), (1,)))
        spec = CorridorSpec(d=(6,), move_set=ms)
        assert corridor_count_dp(spec, (2,), (3,), 2).exact == 0
        assert corridor_count_dp(spec, (2,), (3,), 3).exact > 0


class TestCorridorNd:
    def test_pinned_2d_example(self):
        spec = CorridorSpec(d=(6, 6), move_set=full_move_set(2))
        nd = corridor_count_nd(spec, (2, 3), (3, 3), 5, method="direct")
        dp = corridor_count_dp(spec, (2, 3), (3, 3), 5)
        assert nd.exact == dp.exact == 2244

    @pytest.mark.parametrize("d, a, b, m, want", [
        ((18, 23), (13, 21), (6, 6), 19, 133319471093),
        ((13,), (4,), (9,), 11, 4917),
        ((7, 5, 9), (3, 2, 4), (2, 3, 7), 12, 79032987318272),
    ])
    def test_direct_sum_pinned(self, d, a, b, m, want):
        # the float sum put (18,23) a few units off, inside a bound above 0.5
        spec = CorridorSpec(d=d, move_set=full_move_set(len(d)))
        assert corridor_count_nd(spec, a, b, m, method="direct").exact == want
        assert corridor_count_dp(spec, a, b, m).exact == want

    def test_n1_reduces_to_1d(self):
        # the one-axis spectral sum is the paper's 1-D sine formula; it must
        # equal the images count and the DP on criterion 2's whole sweep,
        # ends out of reach included
        checked = 0
        for d in range(3, 13):
            spec = CorridorSpec(d=(d,), move_set=full_move_set(1))
            for a in range(1, d):
                for b in range(1, d):
                    for m in range(0, 13):
                        want = corridor_count_dp(spec, (a,), (b,), m).exact
                        assert _spectral_count((d,), (a,), (b,), m) == want, (d, a, b, m)
                        nd = corridor_count_nd(spec, (a,), (b,), m, method="direct")
                        assert nd.exact == want, (d, a, b, m)
                        checked += 1
        assert checked == 6565

    @given(n=st.integers(1, 3), data=st.data())
    @settings(deadline=None, max_examples=40)
    def test_spectral_past_2_63_equals_images_and_dp(self, n, data):
        # with walls d >= 3 an axis has at least 2^(m-1) walks
        d = [data.draw(st.integers(3, 10)) for _ in range(n)]
        m = data.draw(st.integers(64 // n + 2, 64 // n + 30))
        a = [data.draw(st.integers(1, dj - 1)) for dj in d]
        b = [data.draw(st.integers(1, dj - 1)) for dj in d]
        spec = CorridorSpec(d=tuple(d), move_set=full_move_set(n))
        want = corridor_count_dp(spec, a, b, m).exact
        assert want > 2 ** 63
        assert _spectral_count(d, a, b, m) == _images_count(d, a, b, m) == want

    @pytest.mark.parametrize("d, a, b, m", [
        (136, 68, 68, 36), (136, 68, 70, 37), (136, 60, 75, 40), (136, 68, 68, 41)])
    def test_spectral_on_tall_corridor(self, d, a, b, m):
        spec = CorridorSpec(d=(d,), move_set=full_move_set(1))
        want = corridor_count_dp(spec, (a,), (b,), m).exact
        assert _spectral_count((d,), (a,), (b,), m) == _images_count((d,), (a,), (b,), m) == want

    @pytest.mark.parametrize("d", [2, 3])
    def test_spectral_equals_images_on_narrow_walls(self, d):
        # with 2d = 4 or 6 lanes the power folds from the first squarings on
        for a, b in itertools.product(range(1, d), repeat=2):
            for m in range(abs(b - a), 120):
                assert _spectral_count((d,), (a,), (b,), m) == _images_count(
                    (d,), (a,), (b,), m), (a, b, m)

    @pytest.mark.parametrize("d", [4, 7, 136])
    def test_spectral_where_the_fold_starts(self, d):
        # the power's degree 2m first reaches 2d lanes at m = d: steps on
        # either side of it and none, ends one cell from either wall
        spec = CorridorSpec(d=(d,), move_set=full_move_set(1))
        ends = sorted({1, 2, d // 2, d - 2, d - 1})
        for m in (0, d - 2, d - 1, d, d + 1):
            for a, b in itertools.product(ends, repeat=2):
                if abs(b - a) <= m:
                    want = corridor_count_dp(spec, (a,), (b,), m).exact
                    assert _spectral_count((d,), (a,), (b,), m) == want, (a, b, m)

    def test_odd_and_even_parity_branches_match_dp(self):
        # even and odd numbers of axes; the DP arbitrates both
        rng = random.Random(42)
        for n in (2, 3):
            spec = CorridorSpec(d=(6,) * n, move_set=full_move_set(n))
            for _ in range(10):
                a = tuple(rng.randint(1, 5) for _ in range(n))
                b = tuple(rng.randint(1, 5) for _ in range(n))
                m = rng.randint(0, 6)
                nd = corridor_count_nd(spec, a, b, m, method="direct")
                dp = corridor_count_dp(spec, a, b, m)
                assert nd.exact == dp.exact, (n, a, b, m)

    def test_factorized_equals_direct_small(self):
        spec = CorridorSpec(d=(7, 5, 9), move_set=full_move_set(3))
        a, b = (3, 2, 4), (2, 3, 7)
        fx = corridor_count_factorized(spec, a, b, 6)
        dx = corridor_count_nd(spec, a, b, 6, method="direct")
        assert fx.exact == dx.exact

    @given(d=st.lists(st.integers(2, 12), min_size=1, max_size=4), m=st.integers(0, 40),
           data=st.data())
    @settings(deadline=None, max_examples=80)
    def test_shared_pass_is_the_per_axis_product(self, d, m, data):
        a = [data.draw(st.integers(1, dj - 1)) for dj in d]
        b = [data.draw(st.integers(1, dj - 1)) for dj in d]
        spec = CorridorSpec(d=tuple(d), move_set=full_move_set(len(d)))
        want = math.prod(corridor_count_1d(*axis, m).exact for axis in zip(d, a, b))
        assert corridor_count_factorized(spec, a, b, m).exact == want

    def test_an_axis_out_of_reach_answers_before_the_step_cap(self):
        spec = CorridorSpec(d=(10 ** 6, 136), move_set=full_move_set(2))
        pc = corridor_count_factorized(spec, (1, 68), (10 ** 6 - 1, 68), 60_000)
        assert pc.exact == 0

    @pytest.mark.parametrize("d, a, b, m", [
        # the float sum's bound was infinite here, so any value passed
        ((60, 60, 60), (30, 30, 30), (40, 25, 42), 215),
        # kern ** m overflowed float64 past about 650 steps on one axis
        ((136,), (68,), (68,), 2000),
        ((136, 136, 136), (68, 68, 68), (88, 58, 108), 1000),
    ])
    def test_direct_exact_past_float_range(self, d, a, b, m):
        spec = CorridorSpec(d=d, move_set=full_move_set(len(d)))
        pc = corridor_count_nd(spec, a, b, m, method="direct")
        assert pc.exact == corridor_count_factorized(spec, a, b, m).exact > 2 ** 1000

    def test_factorized_requires_full_set(self):
        ms = MoveSet(n=2, moves=((0, 0), (1, 1), (-1, -1)))
        spec = CorridorSpec(d=(5, 5), move_set=ms)
        with pytest.raises(DomainError):
            corridor_count_factorized(spec, (2, 2), (2, 2), 2)
        for method in ("direct", "factorized"):
            with pytest.raises(DomainError, match="full move set"):
                corridor_count_nd(spec, (2, 2), (2, 2), 2, method=method)

    def test_direct_any_dimension_and_work_cap(self):
        spec4 = CorridorSpec(d=(5, 3, 4, 6), move_set=full_move_set(4))
        a, b = (1, 1, 2, 3), (2, 1, 3, 3)
        direct = corridor_count_nd(spec4, a, b, 4, method="direct")
        assert direct.exact == corridor_count_dp(spec4, a, b, 4).exact > 0
        # priced before any power is taken: 10^100 lanes, and 50,000 steps
        # over 136^3, are refused at once
        wide = CorridorSpec(d=(10 ** 100,), move_set=full_move_set(1))
        with pytest.raises(ResourceLimit, match="spectral sum"):
            corridor_count_nd(wide, (1,), (2,), 5, method="direct")
        spec = CorridorSpec(d=(136, 136, 136), move_set=full_move_set(3))
        with pytest.raises(ResourceLimit, match="spectral sum"):
            corridor_count_nd(spec, (68, 68, 68), (88, 58, 108), 50_000, method="direct")

    def test_beyond_reach_direct_is_zero(self):
        # the reach check answers before either sum
        spec = CorridorSpec(d=(136,), move_set=full_move_set(1))
        assert corridor_count_nd(spec, (1,), (135,), 40, method="direct").exact == 0
        spec3 = CorridorSpec(d=(9, 9, 9), move_set=full_move_set(3))
        for method in ("direct", "factorized"):
            assert corridor_count_nd(spec3, (1, 4, 4), (4, 8, 4), 3, method=method).exact == 0

    def test_unknown_method(self):
        spec = CorridorSpec(d=(6,), move_set=full_move_set(1))
        with pytest.raises(DomainError):
            corridor_count_nd(spec, (2,), (3,), 1, method="guess")

    def test_big_instance_fast_path(self):
        spec = CorridorSpec(d=(136, 136, 136), move_set=full_move_set(3))
        exact = 1
        for v in AXIS_COUNTS_50.values():
            exact *= v
        assert exact == HEADLINE_COUNT_50
        # factorized is the default method
        for kwargs in ({"method": "factorized"}, {}):
            pc = corridor_count_nd(spec, (68, 68, 68), (88, 58, 108), 50, **kwargs)
            assert pc.exact == HEADLINE_COUNT_50
            assert pc.display() == "6.40201e+52"


class TestPathCount:
    def test_closed_forms_certify_only_what_they_know(self):
        # every route is exact integer arithmetic, with no error to report
        one = corridor_count_1d(136, 68, 68, 36)
        assert one.exact == 12159131877715993
        assert one.abs_err_log10 == -math.inf and one.rel_err == 0.0
        spec = CorridorSpec(d=(18, 23), move_set=full_move_set(2))
        direct = corridor_count_nd(spec, (13, 21), (6, 6), 19, method="direct")
        assert direct.exact == 133319471093 and direct.display() == "133319471093"
        assert corridor_count_dp(spec, (13, 21), (6, 6), 19).exact == 133319471093

    def test_negative_count_rejected(self):
        with pytest.raises(DomainError):
            PathCount.from_int(-1)

    def test_display(self):
        assert PathCount.from_int(16).display() == "16"
        assert PathCount.from_int(HEADLINE_COUNT_50).display() == "6.40201e+52"
        assert PathCount.from_int(0).display() == "0"

    def test_display_mantissa_carry(self):
        # a mantissa that rounds up to 10.00000 must carry into the exponent
        assert PathCount.from_int(10 ** 53 - 10 ** 45).display() == "1.00000e+53"

    def test_display_rounds_at_the_sixth_digit(self):
        # each count lies just below or just above a tie at the sixth digit
        for value, shown in ((9902985 * 10 ** 21 - 1, "9.90298e+27"),
                             (4785965 * 10 ** 79, "4.78596e+85"),
                             (4785965 * 10 ** 79 + 1, "4.78597e+85"),
                             (1960335 * 10 ** 36 + 1, "1.96034e+42")):
            assert PathCount.from_int(value).display() == shown


class TestJointMapping:
    def test_demo_joint_convention(self):
        d, index = joint_to_corridor(demo_joint())
        assert d == 136
        assert index(0.0) == 68
        assert index(40 * DEG) == 88
        assert index(-20 * DEG) == 58
        assert index(80 * DEG) == 108

    def test_walls_rejected(self):
        _, index = joint_to_corridor(demo_joint())
        with pytest.raises(DomainError):
            index(137 * DEG)
        with pytest.raises(DomainError):
            index(-137 * DEG)

    def test_injective_on_grid(self):
        d, index = joint_to_corridor(demo_joint())
        seen = {index(k * 2 * DEG) for k in range(-67, 68)}
        assert len(seen) == 135
        assert seen == set(range(1, d))

    @pytest.mark.parametrize("lo_deg, hi_deg", [
        (-135, 135), (-90, 90), (-100, 80), (-101, 79), (-134, 134)])
    def test_grid_points_are_the_interior(self, lo_deg, hi_deg):
        # at 2 degrees a cell, grid point k is the angle 2k degrees; every
        # one within the limits, and no other, is an interior cell
        j = JointSpec(
            name="j", q_min=lo_deg * DEG, q_max=hi_deg * DEG, delta_q=2 * DEG,
            v_min=-180 * DEG, v_max=180 * DEG, mass=1.0, length=1.0,
            torques=(-1.0, 0.0, 1.0),
        )
        first, last = -(-lo_deg // 2), hi_deg // 2
        d, index = joint_to_corridor(j)
        assert d - 1 == last - first + 1
        for k in range(first, last + 1):
            assert index(k * 2 * DEG) == k - first + 1
        for k in (first - 1, last + 1):
            with pytest.raises(DomainError):
                index(k * 2 * DEG)


class TestApprox:
    def test_reference_value(self):
        got = approx_count_log10([3], 10, 1)
        assert got == pytest.approx(math.log10(3**10 / 21), abs=1e-12)
        assert got == pytest.approx(3.449, abs=5e-4)

    def test_zero_steps(self):
        assert approx_count_log10([3, 3], 0, 2) == pytest.approx(0.0)

    def test_slope_limit(self):
        v = lambda m: approx_count_log10([3] * 6, m, 6)
        assert v(10001) - v(10000) == pytest.approx(6 * math.log10(3), abs=1e-3)

    def test_validation(self):
        with pytest.raises(DomainError):
            approx_count_log10([3], 5, 0)
        with pytest.raises(DomainError):
            approx_count_log10([], 5, 1)
        with pytest.raises(DomainError):
            approx_count_log10([0], 5, 1)
        with pytest.raises(DomainError, match="m must be >= 0"):
            approx_count_log10([3], -1, 1)


@pytest.fixture(scope="module")
def rows():
    return list(scaling_table(demo_joint(), [1, 2, 3, 6], 60, 20 * DEG))


class TestScalingTable:
    def by_key(self, rows):
        return {(r.n, r.m): r for r in rows}

    def test_below_minimum_is_empty_exact(self, rows):
        byk = self.by_key(rows)
        for n in ("1", "2", "3", "6"):
            for m in range(1, 10):
                r = byk[(n, str(m))]
                assert r.log10_count is None
                assert r.method == "exact"

    def test_forced_single_path_at_minimum(self, rows):
        byk = self.by_key(rows)
        for n in ("1", "2", "3", "6"):
            r = byk[(n, "10")]
            assert r.log10_count == 0.0
            assert r.method == "exact"

    def test_n1_column_is_the_1d_count(self, rows):
        byk = self.by_key(rows)
        d, index = joint_to_corridor(demo_joint())
        a, b = index(0.0), index(20 * DEG)
        for m in (15, 30, 60):
            pc = corridor_count_1d(d, a, b, m)
            assert byk[("1", str(m))].log10_count == pc.log10
            assert byk[("1", str(m))].method == "closed"

    def test_high_dof_uses_approximation(self, rows):
        byk = self.by_key(rows)
        r = byk[("6", "30")]
        assert r.method == "approx"
        assert r.log10_count == pytest.approx(approx_count_log10([3] * 6, 30, 6))

    def test_reference_rows(self, rows):
        byk = self.by_key(rows)
        assert byk[("go", "7")].log10_count == pytest.approx(7 * math.log10(361))
        assert byk[("go", "7")].method == "reference"
        atoms = [r for r in rows if r.n == "atoms"]
        assert len(atoms) == 1
        assert atoms[0].m == "*"
        assert atoms[0].log10_count == 80.0

    def test_approx_tracks_exact_within_two_decades(self):
        # mixed-method columns must tell one consistent growth story
        d, index = joint_to_corridor(demo_joint())
        a, b = index(0.0), index(20 * DEG)
        for m in (30, 45, 60):
            exact3 = 3 * corridor_count_1d(d, a, b, m).log10
            approx3 = approx_count_log10([3] * 3, m, 3)
            assert abs(exact3 - approx3) <= 2.0

    def test_csv_shape(self, rows):
        buf = io.StringIO()
        write_scaling_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "n,m,log10_count,method"
        assert lines[1] == "1,1,,exact"
        assert len(lines) == 1 + 4 * 60 + 60 + 1
        assert lines[-1] == "atoms,*,80.000000,reference"

    def test_separation_validation(self):
        with pytest.raises(DomainError):
            scaling_table(demo_joint(), [1], 10, 3.0 * DEG)
        with pytest.raises(DomainError):
            scaling_table(demo_joint(), [1], 10, 0.0)

    @pytest.mark.parametrize("separation_deg", [20, 130])
    def test_closed_columns_are_the_1d_count_at_every_m(self, separation_deg):
        # 130 degrees puts the target two cells from a wall
        rows = scaling_table(demo_joint(), [1, 2, 3], 300, separation_deg * DEG)
        byk = self.by_key(rows)
        d, index = joint_to_corridor(demo_joint())
        a, b = index(0.0), index(separation_deg * DEG)
        for m in range(abs(b - a) + 1, 301):
            log10 = corridor_count_1d(d, a, b, m).log10
            for n in (1, 2, 3):
                assert byk[(str(n), str(m))] == ScalingRow(str(n), str(m), n * log10, "closed")

    def test_step_cap(self):
        with pytest.raises(ResourceLimit, match="walk vector over 135 cells x 50001 steps "
                                                "exceeds the work budget"):
            scaling_table(demo_joint(), [6, 3], 50_001, 20 * DEG)
        with pytest.raises(DomainError, match="dof counts"):
            scaling_table(demo_joint(), [3, 0], 50_001, 20 * DEG)
        assert len(list(scaling_table(demo_joint(), [4], 50_001, 20 * DEG))) == 2 * 50_001 + 1

    def test_rows_stream_from_an_iterator(self):
        table = scaling_table(demo_joint(), [1, 6], 20, 20 * DEG)
        assert isinstance(table, Iterator)
        assert next(table) == ScalingRow("1", "1", None, "exact")
        assert len(list(table)) == 2 * 20 + 20 + 1 - 1

    @pytest.mark.parametrize("n_range, m_max, separation_deg, error, match", [
        ([1], 10, 3.0, DomainError, "multiple of delta_q"),
        ([6], 0, 20.0, DomainError, "m_max must be >= 1"),
        ([3], 50_001, 20.0, ResourceLimit, "exceeds the work budget"),
    ])
    def test_refusals_come_at_call_time(self, n_range, m_max, separation_deg, error, match):
        # no row is asked for: every check runs when the table is made
        with pytest.raises(error, match=match):
            scaling_table(demo_joint(), n_range, m_max, separation_deg * DEG)
