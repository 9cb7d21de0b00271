import copy
import json
import math
import os

import pytest
from hypothesis import settings, strategies as st

from dtraj.model import JointSpec, RobotSpec

# the same examples on every run, and no database replaying an earlier run's
# failures, so two runs of one tree agree; each test keeps its max_examples
settings.register_profile("fixed", derandomize=True, database=None)
settings.load_profile("fixed")

DEG = math.pi / 180.0
CONFIG_PATH = os.path.join(os.path.dirname(__file__), "..", "configs", "pendulum.json")

# a transitions file of three states, a move each way and a static loop
THREE_STATE_TABLE = [
    {"format": "dtraj-transitions", "version": 1, "robot_hash": ""},
    {"from": {"pos": [0], "vel": [0]}, "torque_idx_seq": [[2]], "duration_s": 0.04,
     "to": {"pos": [1], "vel": [0]}},
    {"from": {"pos": [1], "vel": [0]}, "torque_idx_seq": [[0], [0]], "duration_s": 0.08,
     "to": {"pos": [0], "vel": [1]}},
    {"from": {"pos": [0], "vel": [1]}, "torque_idx_seq": [[1]], "duration_s": 0.04,
     "to": {"pos": [0], "vel": [1]}},
]

# a two-joint transitions file: the first joint moves a cell and stops, and
# both rest in place
TWO_JOINT_TABLE = [
    {"format": "dtraj-transitions", "version": 1, "robot_hash": ""},
    {"from": {"pos": [0, 0], "vel": [0, 0]}, "torque_idx_seq": [[1, 1]], "duration_s": 0.04,
     "to": {"pos": [0, 0], "vel": [0, 0]}},
    {"from": {"pos": [0, 0], "vel": [0, 0]}, "torque_idx_seq": [[2, 1]], "duration_s": 0.04,
     "to": {"pos": [1, 0], "vel": [1, 0]}},
    {"from": {"pos": [1, 0], "vel": [1, 0]}, "torque_idx_seq": [[0, 1]], "duration_s": 0.04,
     "to": {"pos": [1, 0], "vel": [0, 0]}},
]

# A literal copy of the benchmark's two-joint robot: +-12 deg in 6 deg cells,
# +-150 deg/s, torques -50/0/50 N*m (225 states, 1,745 transitions).
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

# field values at the edges of every rule; DELETE removes the field
DELETE = object()
EDGE_JSON = [0, 1, -1, 2 ** 63, 10 ** 100, 10 ** 400, 1.5, 2.0, -0.0, 1e-310, 5e-324,
             1e300, -1e300, float("nan"), float("inf"), float("-inf"),
             "2", "", True, None, [], {}, DELETE]


def paths(obj, prefix=()):
    """Every position in a JSON value, the value itself first."""
    yield prefix
    if isinstance(obj, (dict, list)):
        for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield from paths(value, prefix + (key,))


def mutated(obj, path, value):
    """A copy of obj with the value at path replaced, or removed for DELETE."""
    if not path:
        return {} if value is DELETE else value
    out = copy.deepcopy(obj)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


@st.composite
def one_field_mutation(draw, obj):
    path = draw(st.sampled_from(list(paths(obj))))
    return mutated(obj, path, draw(st.sampled_from(EDGE_JSON)))


def table_text(lines) -> str:
    """JSON values one per line, as json.dumps writes them."""
    return "".join(json.dumps(line) + "\n" for line in lines)


def write_table(path, lines) -> str:
    """Write JSON values one per line to path; returns the path as a string."""
    path.write_text(table_text(lines))
    return str(path)


def demo_joint() -> JointSpec:
    return JointSpec(
        name="joint1",
        q_min=-135 * DEG,
        q_max=135 * DEG,
        delta_q=2 * DEG,
        v_min=-180 * DEG,
        v_max=180 * DEG,
        mass=1.0,
        length=1.0,
        torques=(-50.0, -25.0, 0.0, 25.0, 50.0),
    )


@pytest.fixture(scope="session")
def pendulum() -> RobotSpec:
    return RobotSpec(delta_t=0.04, gravity=9.81, joints=(demo_joint(),))


@pytest.fixture(scope="session")
def pendulum_table(pendulum):
    # built once; several suites replay against it
    from dtraj.transitions import find_transitions

    return find_transitions(pendulum)


@pytest.fixture(scope="session")
def config_path() -> str:
    return os.path.abspath(CONFIG_PATH)
