#!/usr/bin/env python3
"""Profile transition discovery in-process: where a search and its writers spend their time.

    python3 scripts/profile_discovery.py [CONFIG ...] [--reps 20]

For each robot config (configs/pendulum.json by default) the table is built
REPS times with `find_transitions`' defaults, each build written once by
each writer, and the median over the builds is printed of:

- the kernel, `dynamics.integrate_frontier`: its calls, rows and time;
- `_tick`'s rounding and masks: `discovery._tick`'s time less the kernel's;
- the static-hold replays, `discovery._static_hold`: calls, time and the
  scalar ticks they take, the calls of `dynamics.integrate_step` inside a
  search (counted, not timed: their time is the holds');
- table assembly: from the call of `discovery._search_order`, which
  orders the finished search's states, to the search's return;
- the loop's bookkeeping: the search's time less the four above;
- the search, `find_transitions`, whole;
- each writer: `write_jsonl` into memory, and `export_dot`.

The config's header line also names the schedule each build's search took,
as `discovery._search` runs it: "seeded", "reached", or "seeded then
reached" where a seeded attempt was refused and the reached schedule ran.

Each function is wrapped through its module, as the tests patch them, so
every call discovery makes through the module is seen, and each wrapper
is taken off again before the script ends. The wrappers' own cost, under a
microsecond a call, falls in the bookkeeping. Standard library and dtraj only.
"""

import argparse
import io
import statistics
import sys
import time

from dtraj import discovery, dynamics
from dtraj.errors import DtrajError
from dtraj.model import load_robot
from dtraj.transitions import export_dot, write_jsonl

# (label, module, name) of each function timed inside a search; table
# assembly is timed from its first call, `_search_order`, on
PARTS = (("kernel", dynamics, "integrate_frontier"), ("tick", discovery, "_tick"),
         ("static holds", discovery, "_static_hold"),
         ("table assembly", discovery, "_search_order"))
# the search on one schedule, whose calls name the schedules a build took
SEARCH = (discovery, "_search")
# the scalar step, whose calls inside a search are counted as the static holds' ticks
STEP = (dynamics, "integrate_step")


def wrapped(counts: dict, label: str, real):
    """`real`, adding its calls, its first argument's rows and its seconds to counts[label],
    and noting when its last call started as counts[label][3]."""
    def timed(*args, **kw):
        t0 = time.perf_counter()
        try:
            return real(*args, **kw)
        finally:
            c = counts[label]
            c[0] += 1
            c[1] += len(args[0]) if label == "kernel" else 0
            c[2] += time.perf_counter() - t0
            c[3] = t0
    return timed


def scheduled(took: list, real):
    """`real`, `discovery._search`, adding the schedule of each call to took."""
    def search(*args, seeded):
        took.append("seeded" if seeded else "reached")
        return real(*args, seeded=seeded)
    return search


def counting(count: list, real):
    """`real`, adding its calls to count[1]."""
    def step(*args, **kw):
        count[1] += 1
        return real(*args, **kw)
    return step


def profile(robot, reps: int) -> tuple[dict, object, list]:
    """Per part, the list over `reps` builds of its (calls, rows or ticks, seconds); the
    last table; and the schedules the builds took, each distinct one once."""
    runs: dict[str, list] = {}
    schedules: dict[str, None] = {}
    wraps = [(module, name) for _, module, name in PARTS] + [SEARCH, STEP]
    reals = [getattr(module, name) for module, name in wraps]
    try:
        for _ in range(reps):
            counts = {label: [0, 0, 0.0, 0.0] for label, *_ in PARTS}
            for (label, module, name), real in zip(PARTS, reals):
                setattr(module, name, wrapped(counts, label, real))
            took: list[str] = []
            setattr(*SEARCH, scheduled(took, reals[-2]))
            setattr(*STEP, counting(counts["static holds"], reals[-1]))
            t0 = time.perf_counter()
            table = discovery.find_transitions(robot)
            t1 = time.perf_counter()
            counts["search"] = [1, 0, t1 - t0]
            counts["table assembly"][2] = t1 - counts["table assembly"][3]
            for (module, name), real in zip(wraps, reals):
                setattr(module, name, real)
            schedules[" then ".join(took)] = None
            for label, write in (("write_jsonl", lambda t: write_jsonl(t, io.StringIO())),
                                 ("export_dot", export_dot)):
                t0 = time.perf_counter()
                write(table)
                counts[label] = [1, 0, time.perf_counter() - t0]
            # what is left of the search, and of _tick once the kernel is taken out
            counts["tick"][2] -= counts["kernel"][2]
            counts["bookkeeping"] = [1, 0, counts["search"][2] - sum(
                counts[label][2] for label, *_ in PARTS)]
            for label, c in counts.items():
                runs.setdefault(label, []).append(c)
    finally:
        for (module, name), real in zip(wraps, reals):
            setattr(module, name, real)
    return runs, table, list(schedules)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("configs", nargs="*", default=["configs/pendulum.json"])
    ap.add_argument("--reps", type=int, default=20, help="builds per config")
    args = ap.parse_args()
    if args.reps < 1:
        ap.error("--reps must be at least 1")

    for path in args.configs:
        try:
            robot = load_robot(path)
            runs, table, schedules = profile(robot, args.reps)
        except DtrajError as e:
            print(f"error: {e}", file=sys.stderr)
            sys.exit(e.exit_code)
        print(f"{path}: {len(table.states)} states, {len(table)} transitions, "
              f"median of {args.reps} builds, schedule {' or '.join(schedules)}")
        for label in ("kernel", "tick", "static holds", "bookkeeping", "table assembly",
                      "search", "write_jsonl", "export_dot"):
            calls, rows, secs = (statistics.median(c[k] for c in runs[label]) for k in range(3))
            name = "tick masks" if label == "tick" else label
            counted = f"{calls:>6g} calls" if label in ("kernel", "tick", "static holds") else ""
            unit = {"kernel": "rows", "static holds": "ticks"}.get(label)
            counted += f" {rows:>9g} {unit}" if unit else ""
            print(f"  {name:<15}{counted:<28}{1e3 * secs:9.3f} ms")


if __name__ == "__main__":
    main()
