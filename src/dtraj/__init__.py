"""Discrete robot trajectories: quantized states, atomic transitions, walk counting.

`import dtraj` loads no layer: each name below, and each submodule, is
imported on first use as an attribute (PEP 562). A caller that needs only the
corridor counts or the robot model never loads numpy or the discovery code.
"""

from importlib import import_module

__version__ = "0.1.0"

# the names each layer re-exports here, in layer order
_EXPORTS = {
    "errors": (
        "BudgetExceeded", "ConfigError", "DomainError", "DtrajError",
        "NoFeasibleTransition", "NumericalOverflow", "OutOfRange",
        "ResourceLimit", "UnknownState",
    ),
    "model": (
        "ContinuousState", "JointSpec", "QuantizedState", "RobotSpec",
        "action_space_size", "format_count", "load_robot", "quantize",
        "representative", "robot_from_dict", "state_space_size",
        "trajectory_upper_bound",
    ),
    "dynamics": ("act_sequence", "integrate_step", "validation_check"),
    "transitions": (
        "Transition", "TransitionTable", "export_dot", "read_jsonl", "write_jsonl",
    ),
    "discovery": ("find_transitions",),
    "trajectories": (
        "DesiredTrajectory", "PlanResult", "Trajectory", "count_trajectories",
        "enumerate_trajectories", "load_desired_csv", "plan_action_sequence",
        "write_plan_json",
    ),
    "lattice": (
        "CorridorSpec", "MoveSet", "PathCount", "approx_count_log10",
        "corridor_count_1d", "corridor_count_dp", "corridor_count_nd",
        "full_move_set", "joint_to_corridor", "scaling_table",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
