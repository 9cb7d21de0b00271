#!/usr/bin/env python3
"""Time one discovery search, and take its peak memory, on two checkouts in alternated runs.

    python3 scripts/refusal_cost.py CONFIG BASE HEAD [--reps 3] [--dir DIR]

BASE and HEAD are each a git revision of this repository or a directory
holding a checkout, copied as `scripts/bench_pairs.py` copies them: into
`base` and `head` under one new temporary directory, so the two paths have
the same length. Each run is one child process that loads the robot config
CONFIG and calls that checkout's `find_transitions` on it with its defaults
(`--dedup all`, the default budgets). Rep k runs BASE first when k is even
and HEAD first when it is odd, one process at a time.

Each run prints the search's wall time (the call alone, not the child's
start-up), the child's peak resident memory (its `ru_maxrss` as `os.wait4`
reports it, in MiB) and its verdict: the refusal's error type and text, or
the table's size if it was built. Then each side's medians. It is meant for
refusals, whose cost a search that falls back pays twice: a refusal pays
for both searches, in memory too. The seeded attempt's freed arrays raise
glibc's dynamic mmap threshold, so the reached search after it peaks at
about 468 MiB on the 20 ms demo, against 431 MiB alone; refusing from the
seeded search itself (ROADMAP item 35, Step 2) would remove that gap.
Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

from bench_pairs import checkout

# the child: one search on the config, its time and verdict as one JSON line
CHILD = """
import json, sys, time
from dtraj.discovery import find_transitions
from dtraj.errors import DtrajError
from dtraj.model import load_robot

robot = load_robot(sys.argv[1])
t0 = time.perf_counter()
try:
    table = find_transitions(robot)
    verdict = f"built: {len(table.states)} states, {len(table)} transitions"
except DtrajError as e:
    verdict = f"{type(e).__name__}: {e}"
print(json.dumps({"wall_s": time.perf_counter() - t0, "verdict": verdict}))
"""


def run(tree: str, config: str) -> tuple[float, float, str]:
    """(search seconds, child peak MiB, verdict) of one child search in `tree`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    # one pipe, read to its end before the child is reaped by wait4, whose
    # resource usage is the child's own
    child = subprocess.Popen([sys.executable, "-c", CHILD, config], cwd=tree, env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    out = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise SystemExit(f"error: the search in {tree} exited with {child.returncode}: "
                         f"{out.strip()[-500:]}")
    result = json.loads(out.splitlines()[-1])
    return result["wall_s"], usage.ru_maxrss / 1024, result["verdict"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config", help="robot config JSON")
    ap.add_argument("base", help="git revision or checkout directory of the parent")
    ap.add_argument("head", help="git revision or checkout directory of the change")
    ap.add_argument("--reps", type=int, default=3, help="runs a side")
    ap.add_argument("--dir", help="where to make the temporary directory (the system's by default)")
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be at least 1")
    config = os.path.abspath(args.config)

    runs: dict[str, list] = {"base": [], "head": []}
    with tempfile.TemporaryDirectory(prefix="refusal-cost-", dir=args.dir) as tmp:
        trees = {side: os.path.join(tmp, side) for side in runs}
        for side, source in (("base", args.base), ("head", args.head)):
            checkout(source, trees[side])
        for k in range(args.reps):
            for side in ("base", "head") if k % 2 == 0 else ("head", "base"):
                wall, mib, verdict = run(trees[side], config)
                runs[side].append((wall, mib))
                print(f"run {k + 1} {side}: {wall:.3f} s, {mib:.1f} MiB, {verdict}", flush=True)
    for side, done in runs.items():
        print(f"median {side}: {statistics.median(w for w, _ in done):.3f} s, "
              f"{statistics.median(m for _, m in done):.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
