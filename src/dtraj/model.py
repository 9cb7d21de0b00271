"""Discrete robot description and quantization semantics.

A robot is a list of independently actuated joints sharing one clock. Positions
live on a grid of spacing delta_q anchored at angle 0, velocities on a grid of
spacing delta_v = delta_q / delta_t anchored at 0; both grids are clipped to the
joint limits. Two kinematic states are distinguishable exactly when they differ
in some integer grid coordinate.

Angles are radians and seconds/SI everywhere inside the package. Configuration
files speak degrees; the conversion happens exactly once, at ingestion.
"""

from __future__ import annotations

import json
import math
import sys
from typing import IO, Callable, Mapping, NamedTuple, Sequence

from .errors import ConfigError, DomainError, OutOfRange, ResourceLimit

# An action is one torque index per joint, applied for exactly delta_t.
# A sequence of actions is the package's unit of actuation.
Action = tuple[int, ...]
ActionSequence = tuple[Action, ...]

_GRID_FIT_TOL = 1e-9
# float64 tells adjacent grid cells apart up to 2^53 cells from 0
_MAX_CELLS_FROM_0 = 2 ** 53
# printing a count exactly costs time growing as its digit count squared:
# about 1 s at the cap
_BOUND_DIGIT_CAP = 200_000

# the exact counting loops (walk counts, the corridor DP, the scaling table's
# walk vector) add counts along every edge once per step; a step costs a fixed
# 10 us or so, plus one unit per edge and 64-bit word of the largest count
_COUNT_WORK_BUDGET = 2 * 10 ** 9
_STEP_CHARGE = 10_000

# defaults the CLI parser shows, here so it can show them without loading a
# layer. Discovery's (discovery.find_transitions): the horizon in ticks after
# which a quiescent sequence is static, and the state and sequence budgets.
# Enumeration's (trajectories.enumerate_trajectories): the walks it may list.
DEFAULT_NAL = 25
DEFAULT_MAX_STATES = 1_000_000
DEFAULT_MAX_SEQUENCES = 10_000_000
DEFAULT_ENUM_BUDGET = 10_000_000


class JointSpec(NamedTuple):
    """One actuated joint: limits, resolutions, dynamics constants, torque menu."""

    name: str
    q_min: float
    q_max: float
    delta_q: float
    v_min: float
    v_max: float
    mass: float
    length: float
    torques: tuple[float, ...]

    def validate(self) -> None:
        if not (self.q_min < self.q_max):
            raise DomainError(f"joint {self.name}: q_min must be < q_max")
        if not (self.v_min < self.v_max):
            raise DomainError(f"joint {self.name}: v_min must be < v_max")
        if not (self.delta_q > 0):
            raise DomainError(f"joint {self.name}: delta_q must be positive")
        if not (self.mass > 0 and self.length > 0):
            raise DomainError(f"joint {self.name}: mass and length must be positive")
        if not self.torques:
            raise DomainError(f"joint {self.name}: torque list is empty")
        if any(b <= a for a, b in zip(self.torques, self.torques[1:])):
            raise DomainError(f"joint {self.name}: torques must be strictly increasing")
        if 0.0 not in self.torques:
            raise DomainError(f"joint {self.name}: torque list must contain 0")
        # the limit span must be an integer number of cells, else the grid
        # cannot represent the limits
        span = (self.q_max - self.q_min) / self.delta_q
        if not math.isfinite(span) or abs(span - round(span)) > _GRID_FIT_TOL:
            raise DomainError(
                f"joint {self.name}: (q_max - q_min)/delta_q = {span} is not an integer"
            )

    def within_limits(self, q, v):
        """Whether (q, v) lies inside the joint's limits; floats, or arrays elementwise."""
        return (self.q_min <= q) & (q <= self.q_max) & (self.v_min <= v) & (v <= self.v_max)


class RobotSpec(NamedTuple):
    """A robot: ordered joints plus the shared clock resolution."""

    joints: tuple[JointSpec, ...]
    delta_t: float
    gravity: float = 9.81

    def validate(self) -> None:
        if not self.joints:
            raise DomainError("robot needs at least one joint")
        if not (self.delta_t > 0):
            raise DomainError("delta_t must be positive")
        for i, j in enumerate(self.joints):
            j.validate()
            if self.delta_v(i) == math.inf:
                raise DomainError(f"joint {j.name}: delta_q / delta_t overflows a float")
            for lo, hi, step in self.grids(i):
                if not (step > 0 and max(abs(lo), abs(hi)) / step <= _MAX_CELLS_FROM_0):
                    raise DomainError(f"joint {j.name}: a limit is too many cells from 0")

    @property
    def n_joints(self) -> int:
        return len(self.joints)

    def delta_v(self, i: int) -> float:
        """Velocity resolution of joint i, the grid-step position change per tick."""
        return self.joints[i].delta_q / self.delta_t

    def grids(self, i: int) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
        """Joint i's position and velocity grids, each as grid_range's (lo, hi, step)."""
        j = self.joints[i]
        return (j.q_min, j.q_max, j.delta_q), (j.v_min, j.v_max, self.delta_v(i))

    def canonical_dict(self) -> dict:
        """Stable plain-data form of the internal state, used for hashing."""
        return {
            "delta_t": repr(self.delta_t),
            "gravity": repr(self.gravity),
            "joints": [
                {"name": j.name, "torques": [repr(t) for t in j.torques],
                 **{f: repr(getattr(j, f)) for f, _ in _JOINT_FIELDS.values()}}
                for j in self.joints
            ],
        }

    def content_hash(self) -> str:
        import hashlib

        blob = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ContinuousState(NamedTuple):
    """Internal representative between quantization events; never serialized."""

    q: tuple[float, ...]
    v: tuple[float, ...]


class QuantizedState(NamedTuple):
    """Integer grid coordinates; equality here IS distinguishability, and a state is its own key."""

    pos_idx: tuple[int, ...]
    vel_idx: tuple[int, ...]

    def key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(pos_idx, vel_idx) as a plain tuple for outside readers; equal to the state."""
        return (self.pos_idx, self.vel_idx)


def _round_half_away(x: float) -> int:
    # symmetric around 0, deterministic
    return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)


def quantize(state: ContinuousState, robot: RobotSpec) -> QuantizedState:
    """Snap a continuous state to the grid; reject grid points beyond the limits."""
    def snap(x: float, step: float):
        k = x / step
        # a quotient past the float range lies beyond every limit
        return _round_half_away(k) if math.isfinite(k) else k

    n = robot.n_joints
    pos = tuple(snap(state.q[i], robot.joints[i].delta_q) for i in range(n))
    vel = tuple(snap(state.v[i], robot.delta_v(i)) for i in range(n))
    return check_on_grid(QuantizedState(pos, vel), robot)


def check_on_grid(state: QuantizedState, robot: RobotSpec) -> QuantizedState:
    """`state` itself; DomainError if its width is not the robot's joint count, and
    OutOfRange naming the first index outside its joint's grid_range."""
    if not len(state.pos_idx) == len(state.vel_idx) == robot.n_joints:
        raise DomainError(f"state has {len(state.pos_idx)} position / {len(state.vel_idx)} "
                          f"velocity entries, robot has {robot.n_joints} joints")
    for i, j in enumerate(robot.joints):
        for k, grid, kind in zip((state.pos_idx[i], state.vel_idx[i]), robot.grids(i),
                                 ("position", "velocity")):
            first, last = grid_range(*grid)
            if not first <= k <= last:
                raise OutOfRange(f"joint {j.name}: {kind} grid point {k} outside limits")
    return state


def representative(state: QuantizedState, robot: RobotSpec) -> ContinuousState:
    """Grid cell center as the simulation start point; inverse of quantize on the grid."""
    q = tuple(state.pos_idx[i] * robot.joints[i].delta_q for i in range(robot.n_joints))
    v = tuple(state.vel_idx[i] * robot.delta_v(i) for i in range(robot.n_joints))
    return ContinuousState(q, v)


def grid_range(lo: float, hi: float, step: float) -> tuple[int, int]:
    """Inclusive (first, last) index k of the grid points k * step within [lo, hi].

    The one grid rule: quantize, discovery and state_space_size all admit
    exactly these indices. A point within 1e-9 cells of a limit counts as on it.
    """
    return math.ceil(lo / step - _GRID_FIT_TOL), math.floor(hi / step + _GRID_FIT_TOL)


def state_space_size(robot: RobotSpec) -> int:
    """Number of representable kinematic states: product of per-joint grid sizes."""
    robot.validate()
    ranges = [grid_range(*grid) for i in range(robot.n_joints) for grid in robot.grids(i)]
    return math.prod(last - first + 1 for first, last in ranges)


def action_space_size(robot: RobotSpec) -> int:
    """Number of distinct one-tick torque vectors."""
    robot.validate()
    return math.prod(len(j.torques) for j in robot.joints)


def check_count_work(what: str, steps: int, edges: int, fan_out: int) -> None:
    """ResourceLimit, before any work, if `steps` steps over `edges` edges cost too much.

    After s steps a count is at most fan_out ** s; every step is priced at the
    words of the last step's bound.
    """
    steps = min(steps, _COUNT_WORK_BUDGET + 1)    # past the budget either way
    words = 1 + steps * math.log2(max(fan_out, 1)) / 64
    if steps * (_STEP_CHARGE + edges * words) > _COUNT_WORK_BUDGET:
        raise ResourceLimit(
            f"{what} exceeds the work budget of {_COUNT_WORK_BUDGET} edge-hop words"
        )


def trajectory_upper_bound(robot: RobotSpec, m: int) -> int:
    """Bound on m-tick trajectories: every state times every torque string of length m.

    A bound of more than _BOUND_DIGIT_CAP decimal digits is refused with
    ResourceLimit before it is built.
    """
    if m < 0:
        raise DomainError("m must be >= 0")
    states, actions = state_space_size(robot), action_space_size(robot)
    if actions > 1 and m > (_BOUND_DIGIT_CAP - math.log10(states)) / math.log10(actions):
        raise ResourceLimit(
            f"the bound at m = {m} steps has more than {_BOUND_DIGIT_CAP} digits"
        )
    return states * actions ** m


# ---------------------------------------------------------------------------
# configuration ingestion

_DEG = math.pi / 180.0
_ROBOT_KEYS = {"delta_t_ms", "gravity", "joints"}
# numeric joint key: (JointSpec field, factor to SI units), in checking order
_JOINT_FIELDS = {
    "q_min_deg": ("q_min", _DEG),
    "q_max_deg": ("q_max", _DEG),
    "delta_q_deg": ("delta_q", _DEG),
    "v_min_deg_s": ("v_min", _DEG),
    "v_max_deg_s": ("v_max", _DEG),
    "mass_kg": ("mass", 1.0),
    "length_m": ("length", 1.0),
}
_JOINT_KEYS = {"name", "torques_nm", *_JOINT_FIELDS}


def _is_finite_number(val) -> bool:
    # a bool is an int to Python; NaN, the infinities and ints past the float
    # range all fail the comparison
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and abs(val) <= sys.float_info.max)


def _require_finite_number(obj: Mapping, key: str, where: str) -> float:
    val = obj.get(key)
    if not _is_finite_number(val):
        raise ConfigError(f"{where}: {key!r} must be a finite number")
    return float(val)


def robot_from_dict(cfg: Mapping) -> RobotSpec:
    """Build a RobotSpec from parsed configuration data. Unknown keys are rejected."""
    if not isinstance(cfg, Mapping):
        raise ConfigError("robot config must be a JSON object")
    if unknown := set(cfg) - _ROBOT_KEYS:
        raise ConfigError(f"unknown robot config keys: {sorted(unknown)}")
    delta_t_ms = _require_finite_number(cfg, "delta_t_ms", "robot")
    if delta_t_ms <= 0:
        raise ConfigError("robot: delta_t_ms must be positive")
    gravity = (_require_finite_number(cfg, "gravity", "robot") if "gravity" in cfg
               else RobotSpec._field_defaults["gravity"])
    joints_cfg = cfg.get("joints")
    if not isinstance(joints_cfg, Sequence) or isinstance(joints_cfg, (str, bytes)) or not joints_cfg:
        raise ConfigError("robot: 'joints' must be a non-empty list")
    joints = []
    for k, jc in enumerate(joints_cfg):
        where = f"joint[{k}]"
        if not isinstance(jc, Mapping):
            raise ConfigError(f"{where}: must be a JSON object")
        if unknown := set(jc) - _JOINT_KEYS:
            raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
        if missing := _JOINT_KEYS - set(jc):
            raise ConfigError(f"{where}: missing keys {sorted(missing)}")
        name = jc["name"]
        if not isinstance(name, str) or not name:
            raise ConfigError(f"{where}: 'name' must be a non-empty string")
        torques = jc["torques_nm"]
        if (not isinstance(torques, Sequence) or isinstance(torques, (str, bytes)) or not torques
                or not all(map(_is_finite_number, torques))):
            raise ConfigError(f"{where}: 'torques_nm' must be a list of finite numbers")
        fields = {f: _require_finite_number(jc, key, where) * unit
                  for key, (f, unit) in _JOINT_FIELDS.items()}
        joints.append(JointSpec(name=name, torques=tuple(float(t) for t in torques), **fields))

    robot = RobotSpec(joints=tuple(joints), delta_t=delta_t_ms / 1000.0, gravity=gravity)
    robot.validate()
    return robot


def read_file(path: str, parse: Callable[[IO[str]], object], name: str | None = None):
    """parse(fh) of the UTF-8 text file at `path`; every input file is read here. One
    that cannot be opened, read or decoded is a ConfigError naming it (`name`, or the path)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {name or path}: {exc}") from None


# what json raises on malformed text: a json.JSONDecodeError, or past
# Python's own limits a ValueError (an integer of over 4,300 digits) or a
# RecursionError (deep nesting)
_JSON_ERRORS = (ValueError, RecursionError)


def _json_message(exc: Exception) -> str:
    """str(exc), but an integer past Python's digit limit is said in dtraj's words:
    Python's own message advises a call that no user of the CLI can make."""
    if isinstance(exc, ValueError) and "set_int_max_str_digits" in str(exc):
        return f"an integer has more than {sys.get_int_max_str_digits():,} digits"
    return str(exc)


def load_robot(path: str) -> RobotSpec:
    """Load and validate a robot configuration file (UTF-8 JSON, degree units)."""
    try:
        cfg = read_file(path, json.load, f"robot config {path!r}")
    except _JSON_ERRORS as exc:
        raise ConfigError(f"robot config {path!r} is not valid JSON: {_json_message(exc)}") from exc
    return robot_from_dict(cfg)


# ---------------------------------------------------------------------------
# count display

_INT_PRINT_LIMIT = 10**18


def format_count(value: int) -> str:
    """Counts print as exact integers up to 1e18, then as 6-significant-digit scientific."""
    if value < 0:
        raise DomainError("counts are nonnegative")
    if value <= _INT_PRINT_LIMIT:
        return str(value)
    from decimal import Decimal

    return f"{Decimal(value):.5e}"
