import json
import math

import pytest
from hypothesis import given, strategies as st

from dtraj.errors import ConfigError, DomainError, OutOfRange, ResourceLimit
from dtraj.model import (
    ContinuousState,
    JointSpec,
    QuantizedState,
    RobotSpec,
    action_space_size,
    check_on_grid,
    format_count,
    grid_range,
    quantize,
    representative,
    robot_from_dict,
    state_space_size,
    trajectory_upper_bound,
)
from conftest import CONFIG_PATH, DEG, TWO_JOINT, demo_joint


def make_robot(**joint_overrides) -> RobotSpec:
    base = dict(
        name="j",
        q_min=-135 * DEG,
        q_max=135 * DEG,
        delta_q=2 * DEG,
        v_min=-180 * DEG,
        v_max=180 * DEG,
        mass=1.0,
        length=1.0,
        torques=(-50.0, -25.0, 0.0, 25.0, 50.0),
    )
    base.update(joint_overrides)
    return RobotSpec(delta_t=0.04, gravity=9.81, joints=(JointSpec(**base),))


class TestQuantize:
    def test_reference_point(self, pendulum):
        # 2.29 deg is 1.145 cells, 114.6 deg/s is 2.292 velocity cells
        s = ContinuousState((2.29 * DEG,), (114.6 * DEG,))
        q = quantize(s, pendulum)
        assert q == QuantizedState((1,), (2,))

    def test_rounds_half_away_from_zero(self, pendulum):
        assert quantize(ContinuousState((1.0 * DEG,), (0.0,)), pendulum).pos_idx == (1,)
        assert quantize(ContinuousState((-1.0 * DEG,), (0.0,)), pendulum).pos_idx == (-1,)
        assert quantize(ContinuousState((0.0,), (25.0 * DEG,)), pendulum).vel_idx == (1,)
        assert quantize(ContinuousState((0.0,), (-25.0 * DEG,)), pendulum).vel_idx == (-1,)

    def test_rejects_beyond_limits(self, pendulum):
        with pytest.raises(OutOfRange):
            quantize(ContinuousState((135.0 * DEG,), (0.0,)), pendulum)
        with pytest.raises(OutOfRange):
            quantize(ContinuousState((0.0,), (176.0 * DEG,)), pendulum)

    def test_admits_exactly_the_counted_grid(self):
        # the limits sit 3e-8 deg past the grid points -5 and 5: within 1e-9
        # rad of -5 but 1.5e-8 cells from it, so the grid is -4..5
        robot = make_robot(q_min=(-10 + 3e-8) * DEG, q_max=(10 + 3e-8) * DEG,
                           v_min=-150 * DEG, v_max=150 * DEG)
        assert state_space_size(robot) == 10 * 7
        for pos in (-4, 5):
            s = QuantizedState((pos,), (0,))
            assert quantize(representative(s, robot), robot) == s
        with pytest.raises(OutOfRange, match="position grid point -5 outside limits"):
            quantize(representative(QuantizedState((-5,), (0,)), robot), robot)

    def test_quotient_past_the_float_range_is_out_of_range(self):
        # 1e308 deg is about 1e311 cells of a thousandth of a degree
        robot = make_robot(q_min=-1 * DEG, q_max=1 * DEG, delta_q=0.001 * DEG)
        for q, k in ((1e308, "inf"), (-1e308, "-inf")):
            with pytest.raises(OutOfRange, match=f"position grid point {k} outside limits"):
                quantize(ContinuousState((q * DEG,), (0.0,)), robot)

    def test_check_on_grid_names_the_given_index(self, pendulum):
        s = QuantizedState((67,), (-3,))
        assert check_on_grid(s, pendulum) is s
        for pos in (10 ** 400, 99999999999999999999999, -68):
            with pytest.raises(OutOfRange, match=f"position grid point {pos} outside limits"):
                check_on_grid(QuantizedState((pos,), (0,)), pendulum)
        with pytest.raises(OutOfRange, match="velocity grid point 4 outside limits"):
            check_on_grid(QuantizedState((0,), (4,)), pendulum)

    @given(pos=st.integers(-67, 67), vel=st.integers(-3, 3))
    def test_round_trip_on_grid(self, pos, vel):
        robot = make_robot()
        s = QuantizedState((pos,), (vel,))
        assert quantize(representative(s, robot), robot) == s

    @given(
        q=st.floats(-134 * DEG, 134 * DEG),
        v=st.floats(-174 * DEG, 174 * DEG),
    )
    def test_quantize_error_within_half_cell(self, q, v):
        robot = make_robot()
        s = quantize(ContinuousState((q,), (v,)), robot)
        rep = representative(s, robot)
        assert abs(rep.q[0] - q) <= robot.joints[0].delta_q / 2 + 1e-12
        assert abs(rep.v[0] - v) <= robot.delta_v(0) / 2 + 1e-12


class TestSizes:
    def test_demo_grid(self, pendulum):
        j = pendulum.joints[0]
        assert grid_range(j.q_min, j.q_max, j.delta_q) == (-67, 67)
        assert grid_range(j.v_min, j.v_max, pendulum.delta_v(0)) == (-3, 3)
        assert state_space_size(pendulum) == 945
        assert action_space_size(pendulum) == 5

    def test_derived_velocity_resolution(self, pendulum):
        # delta_v = delta_q / delta_t = 50 deg/s
        assert pendulum.delta_v(0) == pytest.approx(50 * DEG)

    def test_upper_bound(self, pendulum):
        assert trajectory_upper_bound(pendulum, 0) == 945
        assert trajectory_upper_bound(pendulum, 3) == 945 * 125
        assert trajectory_upper_bound(pendulum, 50) == 945 * 5**50

    def test_upper_bound_digit_cap(self, pendulum):
        # 945 * 5^m has 200000 digits at m = 286131 and 200001 at m = 286132
        assert 10 ** 199999 <= trajectory_upper_bound(pendulum, 286131) < 10 ** 200000
        with pytest.raises(ResourceLimit, match="more than 200000 digits"):
            trajectory_upper_bound(pendulum, 286132)


class TestJointValidation:
    def test_demo_joint_is_valid(self):
        demo_joint().validate()

    def test_bad_ranges(self):
        with pytest.raises(DomainError):
            make_robot(q_min=10 * DEG, q_max=-10 * DEG).validate()
        with pytest.raises(DomainError):
            make_robot(delta_q=0.0).validate()
        with pytest.raises(DomainError):
            make_robot(v_min=200 * DEG, v_max=100 * DEG).validate()
        with pytest.raises(DomainError, match="robot needs at least one joint"):
            RobotSpec(delta_t=0.04, gravity=9.81, joints=()).validate()
        for delta_t in (0.0, -0.04, math.nan):
            with pytest.raises(DomainError, match="delta_t must be positive"):
                RobotSpec(delta_t=delta_t, gravity=9.81, joints=make_robot().joints).validate()

    def test_torques_must_contain_zero_and_increase(self):
        with pytest.raises(DomainError, match="torque list is empty"):
            make_robot(torques=()).validate()
        with pytest.raises(DomainError):
            make_robot(torques=(-50.0, 25.0, 50.0)).validate()
        with pytest.raises(DomainError):
            make_robot(torques=(0.0, 25.0, 25.0)).validate()
        with pytest.raises(DomainError):
            make_robot(torques=(0.0, 50.0, 25.0)).validate()

    def test_limits_must_sit_on_grid(self):
        with pytest.raises(DomainError):
            make_robot(q_max=134.3 * DEG).validate()
        # grids whose limits are more cells from 0 than a float can count
        with pytest.raises(DomainError, match="is not an integer"):
            make_robot(delta_q=1e-310).validate()
        slow = RobotSpec(delta_t=1e308, gravity=9.81, joints=make_robot().joints)
        with pytest.raises(DomainError, match="too many cells"):
            slow.validate()

    def test_limits_within_2_53_cells_of_0(self):
        # past 2^53 cells, float64 no longer tells adjacent cells apart
        make_robot(q_min=-2.0 ** 53, q_max=2.0 ** 53, delta_q=1.0).validate()
        for q_max in (2.0 ** 53 + 2, 2.0 ** 60):
            with pytest.raises(DomainError, match="too many cells"):
                make_robot(q_min=-2.0 ** 53, q_max=q_max, delta_q=1.0).validate()
        with pytest.raises(DomainError, match="too many cells"):
            make_robot(delta_q=1e-19 * DEG).validate()

    def test_velocity_step_must_be_finite(self):
        # delta_q / delta_t past the float range would put NaN cell centres
        # (0 * inf) into discovery's frontier
        fast = RobotSpec(delta_t=1e-313, gravity=9.81, joints=make_robot().joints)
        with pytest.raises(DomainError, match="overflows a float"):
            fast.validate()


class TestConfigIngestion:
    def good(self) -> dict:
        return json.loads(json.dumps({
            "delta_t_ms": 40,
            "gravity": 9.81,
            "joints": [{
                "name": "joint1",
                "q_min_deg": -135.0, "q_max_deg": 135.0, "delta_q_deg": 2.0,
                "v_min_deg_s": -180.0, "v_max_deg_s": 180.0,
                "mass_kg": 1.0, "length_m": 1.0,
                "torques_nm": [-50.0, -25.0, 0.0, 25.0, 50.0],
            }],
        }))

    def test_round_trip(self):
        robot = robot_from_dict(self.good())
        assert robot.delta_t == pytest.approx(0.04)
        assert robot.n_joints == 1
        assert state_space_size(robot) == 945

    def test_unknown_key_rejected(self):
        cfg = self.good()
        cfg["frobnicate"] = 1
        with pytest.raises(ConfigError):
            robot_from_dict(cfg)
        cfg = self.good()
        cfg["joints"][0]["surprise"] = 2
        with pytest.raises(ConfigError):
            robot_from_dict(cfg)

    def test_missing_key_rejected(self):
        cfg = self.good()
        del cfg["joints"][0]["mass_kg"]
        with pytest.raises(ConfigError):
            robot_from_dict(cfg)

    def test_bad_values_rejected(self):
        cfg = self.good()
        cfg["delta_t_ms"] = 0
        with pytest.raises(ConfigError):
            robot_from_dict(cfg)
        cfg = self.good()
        cfg["joints"][0]["mass_kg"] = True
        with pytest.raises(ConfigError):
            robot_from_dict(cfg)
        cfg = self.good()
        cfg["joints"][0]["torques_nm"] = [-50.0, 25.0]
        with pytest.raises((ConfigError, DomainError)):
            robot_from_dict(cfg)
        # integers past the float range
        cfg = self.good()
        cfg["joints"][0]["length_m"] = 10 ** 400
        with pytest.raises(ConfigError, match="'length_m' must be a finite number"):
            robot_from_dict(cfg)
        cfg = self.good()
        cfg["joints"][0]["torques_nm"] = [0, 10 ** 400]
        with pytest.raises(ConfigError, match="'torques_nm' must be a list of finite numbers"):
            robot_from_dict(cfg)

    def test_gravity_defaults(self):
        cfg = self.good()
        del cfg["gravity"]
        assert robot_from_dict(cfg).gravity == pytest.approx(9.81)

    def test_content_hash_stability(self):
        a = robot_from_dict(self.good()).content_hash()
        b = robot_from_dict(self.good()).content_hash()
        assert a == b
        assert a.startswith("sha256:")
        cfg = self.good()
        cfg["joints"][0]["torques_nm"] = [-50.0, 0.0, 50.0]
        assert robot_from_dict(cfg).content_hash() != a

    def test_content_hashes_are_pinned(self):
        # every saved table and manifest records these; the demo config, the
        # same config without its (default) gravity, and the two-joint robot
        with open(CONFIG_PATH) as fh:
            demo = json.load(fh)
        want = "sha256:67ff0fba73b6aa327c0264e4d189bfb9af931b1bef250787e58490c04d94372b"
        assert robot_from_dict(demo).content_hash() == want
        assert robot_from_dict(self.good()).content_hash() == want
        del demo["gravity"]
        assert robot_from_dict(demo).content_hash() == want
        assert robot_from_dict(TWO_JOINT).content_hash() == (
            "sha256:5b6ffd7680c3f66fedef48768cd037d912ef71979f235327504367469747bca5")


class TestFormatCount:
    def test_small_integers_print_plain(self):
        assert format_count(0) == "0"
        assert format_count(16) == "16"
        assert format_count(10**18) == str(10**18)

    def test_large_integers_scientific(self):
        assert format_count(10**18 + 1) == "1.00000e+18"
        assert format_count(6402011265027403632392176) == "6.40201e+24"

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            format_count(-3)
