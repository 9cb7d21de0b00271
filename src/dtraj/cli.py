"""Single executable exposing every operation as a subcommand.

Design rules: degrees at the boundary, radians inside; all data on stdout or
--out, all diagnostics on stderr; byte-identical stdout for identical inputs.
Every dispatched run emits a one-line JSON manifest to stderr recording the
tool version, config hash, subcommand, flags, and wall-clock duration.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import math
import os
import re
import sys
import tempfile
import time
from typing import IO, Callable

from . import __version__
from .errors import ConfigError, DtrajError, ResourceLimit
from .model import (
    DEFAULT_ENUM_BUDGET,
    DEFAULT_MAX_SEQUENCES,
    DEFAULT_MAX_STATES,
    DEFAULT_NAL,
    QuantizedState,
    load_robot,
    read_file,
)

# count scaling's row cap, checked before any range is expanded; a column of
# n axes also sums n logarithms, and about 1000 of those cost one row
_SCALING_ROW_CAP = 400_000

# main reads the files a subcommand names (--config, then --transitions) and
# hands the handler what it read. Each handler imports its layer when it runs,
# so a subcommand loads only the modules it uses (only `transitions` loads
# discovery and the dynamics; it and walk counts load numpy, and no other
# subcommand does), and a name patched on a layer module is the one called.


def _write_output(path: str | None, emit: Callable[[IO[str]], None]) -> None:
    """Write via a temp file and rename; a failed write leaves nothing behind."""
    if path is None:
        if sys.stdout is None:    # the process started with fd 1 closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        emit(sys.stdout)
        return
    target = os.path.abspath(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".dtraj-", suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            emit(fh)
        os.replace(tmp, target)
    except BaseException as e:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(e, OSError):
            raise ConfigError(f"cannot write {path}: {e}") from None
        raise


def _parse_state(text: str, n_joints: int | None) -> QuantizedState:
    """A "pos,vel" state of n_joints joints, or of as many as `pos` has for None."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"state must look like 'pos,vel' (got {text!r})")
    try:
        pos = tuple(int(x) for x in parts[0].split())
        vel = tuple(int(x) for x in parts[1].split())
    except ValueError:
        raise ConfigError(f"state indices must be integers (got {text!r})") from None
    n_joints = len(pos) if n_joints is None else n_joints
    if len(pos) != n_joints or len(vel) != n_joints:
        raise ConfigError(
            f"state has {len(pos)} position / {len(vel)} velocity entries, "
            f"robot has {n_joints} joints"
        )
    return QuantizedState(pos, vel)


def _parse_ranges(text: str, flag: str) -> list[range]:
    """A list like "1-3,6" as its ranges, unexpanded."""
    out: list[range] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if "-" in chunk[1:]:
            lo_s, hi_s = chunk.split("-", 1)
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise ConfigError(f"{flag}: bad range {chunk!r}") from None
            if hi < lo:
                raise ConfigError(f"{flag}: empty range {chunk!r}")
        else:
            try:
                lo = hi = int(chunk)
            except ValueError:
                raise ConfigError(f"{flag}: bad integer {chunk!r}") from None
        out.append(range(lo, hi + 1))
    return out


def _parse_csv_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"{flag}: expected comma-separated integers, got {text!r}") from None


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_transitions(args, robot) -> None:
    from .discovery import find_transitions
    from .transitions import _dot_lines, write_jsonl

    start = _parse_state(args.start, robot.n_joints) if args.start else None
    table = find_transitions(
        robot,
        start=start,
        nal=args.nal,
        dedup=args.dedup,
        max_states=args.max_states,
        max_sequences=args.max_sequences,
    )
    _write_output(args.out, lambda fh: write_jsonl(table, fh))
    if args.dot:
        _write_output(args.dot, lambda fh: fh.writelines(_dot_lines(table)))


def _cmd_enumerate(args, table) -> None:
    from .model import format_count
    from .trajectories import count_trajectories, enumerate_trajectories
    from .transitions import _Rendered, state_label

    if args.start:
        # a table without states holds no start of any width
        width = len(table.states[0].pos_idx) if table.states else None
        starts = [_parse_state(args.start, width)]
        table.state_index(starts[0])
    else:
        starts = list(table.states)
    if args.count_only:
        counts = count_trajectories(table, args.steps)

        def emit(fh: IO[str]) -> None:
            for s in starts:
                fh.write(f"{state_label(s)}\t{format_count(counts[s])}\n")
    else:
        def emit(fh: IO[str]) -> None:
            labels = _Rendered(state_label)    # each state's label, rendered on first use
            for traj in enumerate_trajectories(table, starts, args.steps, budget=args.budget):
                fh.write("\t".join(map(labels.__getitem__, traj)) + "\n")
    _write_output(args.out, emit)


def _cmd_plan(args, robot, table) -> None:
    from .trajectories import load_desired_csv, plan_action_sequence, write_plan_json
    from .transitions import check_torque_menu

    if table.robot_hash and table.robot_hash != robot.content_hash():
        print(
            "warning: transition table was built from a different robot config",
            file=sys.stderr,
        )
    check_torque_menu(table, robot)
    desired = read_file(args.desired, load_desired_csv)
    result = plan_action_sequence(table, desired, robot)
    _write_output(args.out, lambda fh: write_plan_json(result, fh))


def _cmd_count_corridor(args) -> None:
    from .lattice import CorridorSpec, corridor_count_1d, corridor_count_dp, full_move_set

    if args.exact:
        spec = CorridorSpec(d=(args.d,), move_set=full_move_set(1))
        pc = corridor_count_dp(spec, (args.from_,), (args.to,), args.steps)
    else:
        pc = corridor_count_1d(args.d, args.from_, args.to, args.steps)
    _write_output(args.out, lambda fh: fh.write(pc.display() + "\n"))


def _cmd_count_ndim(args) -> None:
    from .lattice import CorridorSpec, corridor_count_nd, full_move_set

    d = _parse_csv_ints(args.d, "--d")
    a = _parse_csv_ints(args.from_, "--from")
    b = _parse_csv_ints(args.to, "--to")
    spec = CorridorSpec(d=d, move_set=full_move_set(len(d)))
    method = "direct" if args.direct else "factorized"
    pc = corridor_count_nd(spec, a, b, args.steps, method=method)
    _write_output(args.out, lambda fh: fh.write(pc.display() + "\n"))


def _cmd_count_bounds(args, robot) -> None:
    from .model import action_space_size, format_count, state_space_size, trajectory_upper_bound

    lines = [
        f"states {state_space_size(robot)}",
        f"actions {action_space_size(robot)}",
        f"upper_bound {format_count(trajectory_upper_bound(robot, args.steps))}",
    ]
    _write_output(args.out, lambda fh: fh.write("\n".join(lines) + "\n"))


def _cmd_count_scaling(args, robot) -> None:
    from .lattice import scaling_table, write_scaling_csv

    if robot.n_joints > 1:
        raise ConfigError(f"count scaling reads a one-joint config; this one has "
                          f"{robot.n_joints} joints")
    dof_ranges = _parse_ranges(args.dof, "--dof")
    step_ranges = _parse_ranges(args.steps, "--steps")
    # len() of a range is capped at sys.maxsize, so the sizes are counted here
    n_dofs, n_steps = (sum(r.stop - r.start for r in rs) for rs in (dof_ranges, step_ranges))
    widest = max(abs(k) for r in dof_ranges for k in (r.start, r.stop - 1))
    if n_dofs * (n_steps + widest // 1000) > _SCALING_ROW_CAP:
        raise ResourceLimit(f"--dof and --steps ask for {n_dofs} x {n_steps} rows of up to "
                            f"{widest} axes, more than the table's cap of {_SCALING_ROW_CAP} rows")
    # the steps are 1..n_steps when each range starts where the one before stopped
    if [r.start for r in step_ranges] != [1, *(r.stop for r in step_ranges[:-1])]:
        raise ConfigError("--steps must be a contiguous range starting at 1, e.g. 1-100")
    dofs = [k for r in dof_ranges for k in r]
    rows = scaling_table(robot.joints[0], dofs, n_steps, math.radians(args.separation_deg))
    _write_output(args.out, lambda fh: write_scaling_csv(rows, fh))


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dtraj",
        description="Quantized robot states, atomic transitions, and trajectory counting.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("transitions", help="discover atomic transitions by search")
    t.add_argument("--config", required=True, help="robot config JSON")
    t.add_argument("--start", default=None, help='start state "pos,vel" (default all-zero)')
    t.add_argument("--nal", type=int, default=DEFAULT_NAL,
                   help="ticks after which a quiescent sequence is static")
    t.add_argument("--dedup", choices=["all", "shortest"], default="all")
    t.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES)
    t.add_argument("--max-sequences", type=int, default=DEFAULT_MAX_SEQUENCES)
    t.add_argument("--out", default=None, help="output JSONL path (default stdout)")
    t.add_argument("--dot", default=None, help="also write a DOT graph here")
    t.set_defaults(func=_cmd_transitions)

    e = sub.add_parser("enumerate", help="enumerate or count fixed-length trajectories")
    e.add_argument("--transitions", required=True, help="transitions JSONL path")
    e.add_argument("--steps", type=int, required=True)
    e.add_argument("--start", default=None, help='restrict to one start state "pos,vel"')
    how = e.add_mutually_exclusive_group()
    how.add_argument("--count-only", action="store_true")
    how.add_argument("--budget", type=int, default=DEFAULT_ENUM_BUDGET)
    e.add_argument("--out", default=None)
    e.set_defaults(func=_cmd_enumerate)

    pl = sub.add_parser("plan", help="greedy action-sequence planning")
    pl.add_argument("--transitions", required=True)
    pl.add_argument("--config", required=True)
    pl.add_argument("--desired", required=True, help="CSV with header t_s,q1_deg[,...]")
    pl.add_argument("--out", default=None)
    pl.set_defaults(func=_cmd_plan)

    c = sub.add_parser("count", help="corridor walk counting and bounds")
    csub = c.add_subparsers(dest="count_command", required=True)

    cc = csub.add_parser("corridor", help="1-D corridor count")
    cc.add_argument("--d", type=int, required=True)
    cc.add_argument("--from", dest="from_", type=int, required=True)
    cc.add_argument("--to", type=int, required=True)
    cc.add_argument("--steps", type=int, required=True)
    cc.add_argument("--exact", action="store_true", help="count by the DP oracle")
    cc.add_argument("--out", default=None)
    cc.set_defaults(func=_cmd_count_corridor)

    cn = csub.add_parser("ndim", help="n-D corridor count (closed form)")
    cn.add_argument("--d", required=True, help="per-axis walls, e.g. 136,136,136")
    cn.add_argument("--from", dest="from_", required=True)
    cn.add_argument("--to", required=True)
    cn.add_argument("--steps", type=int, required=True)
    cn.add_argument("--direct", action="store_true",
                    help="full frequency-grid sum instead of the factorized fast path")
    cn.add_argument("--out", default=None)
    cn.set_defaults(func=_cmd_count_ndim)

    cb = csub.add_parser("bounds", help="state/action counts and the |S|*|A|^m bound")
    cb.add_argument("--config", required=True)
    cb.add_argument("--steps", type=int, required=True)
    cb.add_argument("--out", default=None)
    cb.set_defaults(func=_cmd_count_bounds)

    cs = csub.add_parser("scaling", help="path-count scaling table (CSV)")
    cs.add_argument("--config", required=True)
    cs.add_argument("--dof", required=True, help="dof counts, e.g. 1-6 or 1,2,3,6")
    cs.add_argument("--steps", required=True, help="step range starting at 1, e.g. 1-100")
    cs.add_argument("--separation-deg", type=float, required=True)
    cs.add_argument("--out", default=None)
    cs.set_defaults(func=_cmd_count_scaling)

    return p


def _emit_manifest(args, subcommand: str, config_hash: str | None, t0: float) -> None:
    flags = {k: v for k, v in vars(args).items() if k != "func"}
    manifest = {
        "tool_version": __version__,
        "config_hash": config_hash,
        "subcommand": subcommand,
        "flags": flags,
        "duration_s": time.monotonic() - t0,
    }
    print(json.dumps(manifest, sort_keys=True), file=sys.stderr)


def _join_negative_values(argv: list[str]) -> list[str]:
    """Turn "--flag -3,0" into "--flag=-3,0".

    argparse reads a separate token that starts with '-' as an option unless
    it is a plain number, so a state whose first index is negative would be
    refused; no dtraj option starts with '-' and a digit.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and re.match(r"-\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0

    subcommand = " ".join(filter(None, (args.command, getattr(args, "count_command", None))))
    config_hash, inputs = None, {}
    t0 = time.monotonic()
    try:
        if "config" in vars(args):
            inputs["robot"] = load_robot(args.config)
            config_hash = inputs["robot"].content_hash()
        if "transitions" in vars(args):
            from .transitions import read_jsonl
            inputs["table"] = read_file(args.transitions, read_jsonl)
        args.func(args, **inputs)
        if sys.stdout is not None:
            sys.stdout.flush()
        rc = 0
    except OSError as e:
        # stdout's reader is gone or fd 1 is closed; --out and inputs raise ConfigError
        if e.errno not in (errno.EPIPE, errno.EBADF):
            raise
        if sys.stdout is not None:    # fd 1 goes to devnull so the exit flush cannot raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {e}", file=sys.stderr)
        rc = ConfigError.exit_code
    except DtrajError as e:
        print(f"error: {e}", file=sys.stderr)
        rc = e.exit_code
    finally:
        _emit_manifest(args, subcommand, config_hash, t0)
    return rc


if __name__ == "__main__":
    sys.exit(main())
