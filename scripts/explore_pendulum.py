#!/usr/bin/env python3
"""Build the transition table for a robot config and summarize its shape."""

import argparse
import sys
from collections import Counter

from dtraj.discovery import find_transitions
from dtraj.errors import DtrajError
from dtraj.model import DEFAULT_NAL, QuantizedState, load_robot, state_space_size
from dtraj.trajectories import count_trajectories
from dtraj.transitions import export_dot, state_label, write_jsonl


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default="configs/pendulum.json")
    ap.add_argument("--nal", type=int, default=DEFAULT_NAL)
    ap.add_argument("--jsonl", default=None, help="write the table here")
    ap.add_argument("--dot", default=None, help="write a DOT rendering here")
    ap.add_argument("--hops", type=int, default=3,
                    help="walk-count horizon for the reachability summary")
    args = ap.parse_args()

    try:
        robot = load_robot(args.config)
    except DtrajError as e:
        # an unreadable or malformed config exits as the CLI would
        print(f"error: {e}", file=sys.stderr)
        sys.exit(e.exit_code)
    table = find_transitions(robot, nal=args.nal)

    total_grid = state_space_size(robot)
    statics = [t for t in table.transitions if t.is_static()]
    lens = Counter(len(t.actions) for t in table.transitions)

    print(f"robot hash        {table.robot_hash}")
    print(f"grid states       {total_grid}")
    print(f"reached states    {len(table.states)} "
          f"({100 * len(table.states) / total_grid:.1f}%)")
    print(f"transitions       {len(table.transitions)}")
    print(f"static self-loops {len(statics)} at "
          f"{[state_label(t.from_state) for t in statics]}")
    # every state's, sinks included
    degs = sorted(map(len, table.destinations()))
    print(f"out-degree        min {degs[0]}  median {degs[len(degs) // 2]}  "
          f"max {degs[-1]}")
    print("sequence lengths  " + ", ".join(
        f"{n}t x{c}" for n, c in sorted(lens.items())))
    # states that share every walk count share a class (TransitionTable.quotient)
    _, _, row_start = table.quotient()
    print(f"quotient classes  {len(row_start) - 1}")

    zero = QuantizedState((0,) * robot.n_joints, (0,) * robot.n_joints)
    if zero in table.states:
        print(f"walks from rest:")
        for n in range(args.hops + 1):
            c = count_trajectories(table, n)[zero]
            print(f"  {n} hops: {c}")

    if args.jsonl:
        with open(args.jsonl, "w") as fh:
            write_jsonl(table, fh)
        print(f"wrote {args.jsonl}")
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(export_dot(table))
        print(f"wrote {args.dot}")


if __name__ == "__main__":
    main()
