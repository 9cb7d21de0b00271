import io
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from dtraj.errors import DomainError, ResourceLimit
from dtraj.lattice import (
    CorridorSpec,
    MoveSet,
    PathCount,
    approx_count_log10,
    corridor_convention,
    corridor_count_1d,
    corridor_count_dp,
    corridor_count_factorized,
    corridor_count_nd,
    full_move_set,
    joint_to_corridor,
    move_kernel,
    nonnegative_subset,
    scaling_table,
    write_scaling_csv,
    _corridor_1d_log_accum,
)
from dtraj.model import JointSpec
from conftest import DEG, demo_joint


# exact counts for the tall-corridor instance (d=136, 50 steps), computed by
# the arbitrary-precision DP and locked here; the closed form must stay inside
# its own error bound of these
AXIS_COUNTS_50 = {
    (68, 88): 111266251835865569100,
    (68, 58): 11152843844517873604890,
    (68, 108): 51590216930,
}


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


def random_move_set(rng, n):
    """A random subset of {-1,0,1}^n, from empty to full."""
    keep = rng.random()
    return MoveSet(n=n, moves=tuple(
        mv for mv in itertools.product((-1, 0, 1), repeat=n) if rng.random() < keep
    ))


def sign_closure(ms):
    """The smallest set holding ms that is closed under per-axis sign flips."""
    out = set()
    for mv in ms.moves:
        out.update(itertools.product(*[{c, -c} for c in mv]))
    return MoveSet(n=ms.n, moves=tuple(out))


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

    def test_component_validation(self):
        with pytest.raises(DomainError):
            MoveSet(n=1, moves=((2,),))
        with pytest.raises(DomainError):
            MoveSet(n=2, moves=((0, 0), (0, 0)))
        with pytest.raises(DomainError):
            MoveSet(n=2, moves=((0,),))

    def test_nonnegative_subset(self):
        assert nonnegative_subset(full_move_set(1)).moves == ((0,), (1,))
        ms2 = nonnegative_subset(full_move_set(2))
        assert set(ms2.moves) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert len(nonnegative_subset(full_move_set(3)).moves) == 8
        # subset semantics: dropping the zero move drops it from the subset too
        no_zero = MoveSet(n=1, moves=((-1,), (1,)))
        assert nonnegative_subset(no_zero).moves == ((1,),)

    def test_sign_symmetry(self):
        assert full_move_set(3).is_sign_symmetric()
        assert MoveSet(n=1, moves=()).is_sign_symmetric()
        assert MoveSet(n=1, moves=((-1,), (1,))).is_sign_symmetric()
        assert not MoveSet(n=1, moves=((1,),)).is_sign_symmetric()
        # the diagonals, closed under flipping either axis alone
        diag = MoveSet(n=2, moves=((0, 0), (1, 1), (-1, -1), (1, -1), (-1, 1)))
        assert diag.is_sign_symmetric()
        # closed under flipping both axes at once, not one at a time
        assert not MoveSet(n=2, moves=((1, 1), (-1, -1))).is_sign_symmetric()
        no_corner = MoveSet(n=2, moves=tuple(
            mv for mv in full_move_set(2).moves if mv != (1, 1)))
        assert not no_corner.is_sign_symmetric()


class TestCorridor1d:
    def test_zero_steps_is_identity(self):
        for d in (2, 5, 9):
            for a in range(1, d):
                for b in range(1, d):
                    got = corridor_count_1d(d, a, b, 0).exact
                    assert got == (1 if a == b else 0)

    def test_pinned_small_value(self):
        assert corridor_count_1d(5, 2, 3, 4).exact == 16

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

    def test_matches_dp_spot_sweep(self):
        for d in (3, 5, 8):
            spec = CorridorSpec(d=(d,), move_set=full_move_set(1))
            for a in range(1, d):
                for b in range(1, d):
                    for m in range(0, 9):
                        cf = corridor_count_1d(d, a, b, m)
                        dp = corridor_count_dp(spec, (a,), (b,), m)
                        assert cf.exact == dp.exact, (d, a, b, m)
                        assert cf.rel_err <= 1e-6

    def test_tall_corridor_against_frozen_dp(self):
        spec = CorridorSpec(d=(136,), move_set=full_move_set(1))
        for (a, b), want in AXIS_COUNTS_50.items():
            assert corridor_count_dp(spec, (a,), (b,), 50).exact == want
            cf = corridor_count_1d(136, a, b, 50)
            got = cf.exact if cf.exact is not None else 10.0 ** cf.log10
            # far-tail cancellation is real; the error bound must cover it
            assert abs(got - want) / want <= max(cf.rel_err, 1e-9)

    def test_log_accumulation_branch_continuity(self):
        # same instance through both summation strategies
        normal = corridor_count_1d(136, 68, 78, 500)
        logged = _corridor_1d_log_accum(136, 68, 78, 500)
        assert normal.exact is None and logged.exact is None
        assert abs(normal.log10 - logged.log10) < 1e-9

    def test_log_accumulation_deep(self):
        pc = corridor_count_1d(136, 68, 78, 2000)
        # dominated by the slowest-decaying mode: growth rate just under 3 per step
        lam = 1.0 + 2.0 * math.cos(math.pi / 136)
        assert pc.sign == 1
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
        # the spectral sum leaves noise of about 88 with a bound of 7x that
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

    def test_cell_budget(self):
        spec = CorridorSpec(d=(102, 102, 102, 102), move_set=full_move_set(4))
        with pytest.raises(ResourceLimit):
            corridor_count_dp(spec, (1, 1, 1, 1), (1, 1, 1, 1), 1)

    def test_budget_counts_steps(self):
        # four cells are cheap per step but not for a billion steps
        spec = CorridorSpec(d=(5,), move_set=full_move_set(1))
        with pytest.raises(ResourceLimit, match="4 cells x 1000000000 steps"):
            corridor_count_dp(spec, (2,), (3,), 10 ** 9)

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

    def test_restricted_move_set(self):
        # without the zero move, parity forbids odd/even mismatches
        ms = MoveSet(n=1, moves=((-1,), (1,)))
        spec = CorridorSpec(d=(6,), move_set=ms)
        assert corridor_count_dp(spec, (2,), (3,), 2).exact == 0
        assert corridor_count_dp(spec, (2,), (3,), 3).exact > 0


class TestMoveKernel:
    def test_zero_frequency(self):
        for n in (1, 2, 3):
            assert move_kernel((0,) * n, (5,) * n, full_move_set(n)) == pytest.approx(3.0**n)

    def test_one_dimensional_form(self):
        for w, d in ((1, 5), (3, 7), (6, 13)):
            c = math.cos(math.pi * w / d)
            assert move_kernel((w,), (d,), full_move_set(1)) == pytest.approx(1 + 2 * c)

    def test_factorization_identity(self):
        rng = random.Random(20260819)
        ms = full_move_set(2)
        for _ in range(100):
            d = (rng.randint(2, 30), rng.randint(2, 30))
            w = (rng.randint(-d[0] + 1, d[0]), rng.randint(-d[1] + 1, d[1]))
            direct = move_kernel(w, d, ms)
            prod = 1.0
            for wj, dj in zip(w, d):
                prod *= 1.0 + 2.0 * math.cos(math.pi * wj / dj)
            assert direct == pytest.approx(prod, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            move_kernel((1, 2), (5,), full_move_set(1))


class TestCorridorNd:
    def test_pinned_2d_example(self):
        spec = CorridorSpec(d=(6, 6), move_set=full_move_set(2))
        nd = corridor_count_nd(spec, (2, 3), (3, 3), 5, method="direct")
        dp = corridor_count_dp(spec, (2, 3), (3, 3), 5)
        assert nd.exact == dp.exact == 2244

    def test_n1_reduces_to_1d(self):
        rng = random.Random(11)
        for _ in range(50):
            d = rng.randint(3, 12)
            a = rng.randint(1, d - 1)
            b = rng.randint(1, d - 1)
            m = rng.randint(0, 10)
            spec = CorridorSpec(d=(d,), move_set=full_move_set(1))
            nd = corridor_count_nd(spec, (a,), (b,), m, method="direct")
            one = corridor_count_1d(d, a, b, m)
            assert nd.exact == one.exact

    def test_odd_and_even_parity_branches_match_dp(self):
        # the parity prefactor is the subtle part; DP arbitrates both branches
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

    def test_factorized_requires_full_set(self):
        ms = MoveSet(n=2, moves=((0, 0), (1, 1), (-1, -1)))
        spec = CorridorSpec(d=(5, 5), move_set=ms)
        with pytest.raises(DomainError):
            corridor_count_factorized(spec, (2, 2), (2, 2), 2)

    def test_direct_dimension_and_term_caps(self):
        spec4 = CorridorSpec(d=(5,) * 4, move_set=full_move_set(4))
        with pytest.raises(ResourceLimit):
            corridor_count_nd(spec4, (1,) * 4, (1,) * 4, 2, method="direct")
        spec_big = CorridorSpec(d=(300, 300, 300), move_set=full_move_set(3))
        with pytest.raises(ResourceLimit):
            corridor_count_nd(spec_big, (1, 1, 1), (1, 1, 1), 2, method="direct")

    def test_auto_picks_a_route(self):
        spec = CorridorSpec(d=(6, 6), move_set=full_move_set(2))
        assert corridor_count_nd(spec, (2, 3), (3, 3), 5).exact == 2244
        # non-full sets can only go through the direct sum
        ms = MoveSet(n=2, moves=tuple(
            mv for mv in full_move_set(2).moves if mv != (1, 1)
        ))
        spec_part = CorridorSpec(d=(6, 6), move_set=ms)
        pc = corridor_count_nd(spec_part, (2, 3), (2, 3), 0)
        assert pc.exact == 1

    def test_sign_asymmetric_sets_go_to_the_dp(self):
        # the sine basis does not diagonalize this stencil: the direct sum
        # gives 6992 here, the true count is 88800
        ms = MoveSet(n=2, moves=tuple(
            mv for mv in full_move_set(2).moves if mv != (1, 1)))
        spec = CorridorSpec(d=(4, 7), move_set=ms)
        assert corridor_count_nd(spec, (1, 3), (1, 4), 8).exact == 88800
        with pytest.raises(DomainError, match="sign flips"):
            corridor_count_nd(spec, (1, 3), (1, 4), 8, method="direct")

    def test_random_move_sets_against_dp(self):
        # half the sets are closed under sign flips first, so both the
        # direct sum and the DP route of "auto" are exercised
        rng = random.Random(7)
        routed = {True: 0, False: 0}
        for case in range(120):
            n = rng.choice((2, 3))
            ms = random_move_set(rng, n)
            if case % 2:
                ms = sign_closure(ms)
            d = tuple(rng.randint(2, (8, 5)[n - 2]) for _ in range(n))
            a = tuple(rng.randint(1, dj - 1) for dj in d)
            b = tuple(rng.randint(1, dj - 1) for dj in d)
            m = rng.randint(0, (8, 6)[n - 2])
            spec = CorridorSpec(d=d, move_set=ms)
            want = reference_dp(d, ms.moves, a, b, m)
            got = corridor_count_nd(spec, a, b, m)
            assert got.exact == want, (case, d, ms.moves, a, b, m)
            routed[ms.is_sign_symmetric()] += 1
        assert min(routed.values()) >= 30

    def test_beyond_reach_direct_is_zero(self):
        # both sums leave float noise here, about 88 on the factorized route;
        # the reach check answers before either sum
        spec = CorridorSpec(d=(136,), move_set=full_move_set(1))
        assert corridor_count_nd(spec, (1,), (135,), 40, method="direct").exact == 0
        spec3 = CorridorSpec(d=(9, 9, 9), move_set=full_move_set(3))
        for method in ("auto", "direct", "factorized"):
            assert corridor_count_nd(spec3, (1, 4, 4), (4, 8, 4), 3, method=method).exact == 0

    def test_unknown_method(self):
        spec = CorridorSpec(d=(6,), move_set=full_move_set(1))
        with pytest.raises(DomainError):
            corridor_count_nd(spec, (2,), (3,), 1, method="guess")

    def test_big_instance_fast_path(self):
        spec = CorridorSpec(d=(136, 136, 136), move_set=full_move_set(3))
        pc = corridor_count_nd(spec, (68, 68, 68), (88, 58, 108), 50, method="factorized")
        exact = 1
        for v in AXIS_COUNTS_50.values():
            exact *= v
        got = 10.0 ** pc.log10
        assert abs(got - float(exact)) / float(exact) <= max(pc.rel_err, 1e-9)


class TestPathCount:
    def test_rounding_and_residual(self):
        pc = PathCount.from_float(15.9999999998, 1e-12)
        assert pc.exact == 16
        assert pc.rel_err < 1e-9

    def test_wide_bound_is_not_exact(self):
        # a bound of 0.5 or more leaves more than one integer in reach
        pc = PathCount.from_float(12159131877715988.0, 3.0)
        assert pc.exact is None
        assert pc.rel_err == pytest.approx(3.0 / 12159131877715988.0)
        assert PathCount.from_float(0.0, 2.0).sign == 0
        assert PathCount.from_float(0.3, 2.0).display() == "3.00000e-01"

    def test_closed_forms_certify_only_what_they_know(self):
        # the exact counts are 12159131877715993 and 133319471093; the float
        # sums land a few units off, inside bounds above 0.5
        one = corridor_count_1d(136, 68, 68, 36)
        assert one.exact is None
        assert abs(10.0 ** one.log10 - 12159131877715993) <= 10.0 ** one.abs_err_log10
        spec = CorridorSpec(d=(18, 23), move_set=full_move_set(2))
        direct = corridor_count_nd(spec, (13, 21), (6, 6), 19, method="direct")
        assert direct.exact is None
        assert corridor_count_dp(spec, (13, 21), (6, 6), 19).exact == 133319471093

    def test_negative_residual_clamps_to_zero(self):
        assert PathCount.from_float(-1e-9, 1e-7).exact == 0
        assert PathCount.from_float(-0.4, 1e-9).exact == 0

    def test_negative_beyond_bound_rejected(self):
        with pytest.raises(DomainError):
            PathCount.from_float(-5.0, 1e-9)

    def test_product_keeps_exactness_and_error(self):
        a = PathCount.from_int(7)
        b = PathCount.from_float(10.0, 1e-6)
        c = a * b
        assert c.exact == 70
        assert c.rel_err == pytest.approx(1e-7, rel=1e-3)

    def test_zero_absorbs(self):
        z = PathCount.from_int(0)
        assert (z * PathCount.from_int(5)).exact == 0

    def test_display(self):
        assert PathCount.from_int(16).display() == "16"
        assert PathCount.from_log10(1, 52.806316, 40.0).display().endswith("e+52")
        assert PathCount.from_int(0).display() == "0"

    def test_pow(self):
        assert (PathCount.from_int(3) ** 4).exact == 81


class TestJointMapping:
    def test_demo_joint_convention(self):
        d, index = joint_to_corridor(demo_joint())
        assert d == 136
        assert index(0.0) == 68
        assert index(40 * DEG) == 88
        assert index(-20 * DEG) == 58
        assert index(80 * DEG) == 108
        assert corridor_convention(d) == "center-even"

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

    def test_odd_d_convention(self):
        j = JointSpec(
            name="odd", q_min=-134 * DEG, q_max=134 * DEG, delta_q=2 * DEG,
            v_min=-180 * DEG, v_max=180 * DEG, mass=1.0, length=1.0,
            torques=(-1.0, 0.0, 1.0),
        )
        d, index = joint_to_corridor(j)
        assert d == 135
        assert corridor_convention(d) == "center-odd-upper"
        assert index(0.0) == 68
        # the upper-anchored convention sacrifices the top grid point
        with pytest.raises(DomainError):
            index(134 * DEG)


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


@pytest.fixture(scope="module")
def rows():
    return scaling_table(demo_joint(), [1, 2, 3, 6], 60, 20 * DEG)


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
