#!/usr/bin/env python3
"""Run alternated pairs of one benchmark workload on two checkouts and judge a claimed gain.

    python3 scripts/bench_pairs.py BASE HEAD --workload walks [--pairs 10] [--seed 4101]

BASE and HEAD are each a git revision of this repository or a directory
holding a checkout. Each is copied into a fresh directory, `base` or `head`
under one new temporary directory, so the two paths have the same length
(`peak_rss_mb` moves with the length of a checkout's path) and neither
holds bytecode or benchmark output from an earlier run. Pair k runs
`bench/run.py --workload W --seed SEED+k --seconds S` once in each, one
process at a time, S being the `run_seconds` of that checkout's
BENCHMARK.json; BASE goes first in even pairs and HEAD in odd ones, as a
workload can read slower on whichever side runs first.

It prints each pair's `op_p50_ms` (the claimed metric; every end-to-end
metric is better lower), then each metric's medians, each side's `src/`
line count (the lines of `src/dtraj/*.py`, summed as `bench/run.py`
records them under `--trace 1`, which untraced runs do not) and both counts
of each of those files whose count differs between the sides, each end-to-end
metric whose HEAD median is worse than BASE's by more than its `bound` in
BASE's BENCHMARK.json (a fraction of BASE's median), each other one left
unresolved (BASE's interquartile range is wider than its bound times BASE's
median, so the pairs cannot tell a change within the bound from none, and
not every HEAD run is better than every BASE run), BASE's interquartile
range of `op_p50_ms`, and the verdict:
a gain is shown when HEAD is lower in at least 9 of every 10 pairs and the
medians are apart by more than BASE's interquartile range. Quartiles are
`statistics.quantiles`' (its exclusive method). Standard library only.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
METRIC = "op_p50_ms"
# what a copied directory leaves behind: history, bytecode, test and bench output
_NOT_COPIED = shutil.ignore_patterns(".git", "__pycache__", ".bench_out", ".benchmarks",
                                     ".hypothesis", ".pytest_cache")


class Verdict(NamedTuple):
    wins: int           # pairs in which HEAD's value is lower than BASE's
    pairs: int
    base_median: float
    head_median: float
    base_iqr: float     # BASE's third quartile less its first
    shown: bool         # wins in at least 9 of 10 pairs, medians apart by more than base_iqr


def verdict(base: list[float], head: list[float]) -> Verdict:
    """Whether HEAD's values, paired with BASE's, show a gain of a lower-is-better metric."""
    if len(base) != len(head) or len(base) < 2:
        raise ValueError("need two or more pairs")
    wins = sum(h < b for b, h in zip(base, head))
    q1, _, q3 = statistics.quantiles(base, n=4)
    b, h = statistics.median(base), statistics.median(head)
    return Verdict(wins, len(base), b, h, q3 - q1,
                   10 * wins >= 9 * len(base) and b - h > q3 - q1)


def past_bounds(base: dict[str, float], head: dict[str, float],
                end_to_end: list[dict]) -> list[tuple[str, float, float]]:
    """(name, change, bound) of each metric whose HEAD median is worse than BASE's by
    more than its bound.

    `base` and `head` are medians by metric name, `end_to_end` is BENCHMARK.json's
    list of metrics, each with its name, its `better` direction and its
    `bound`, a fraction of BASE's median. The change is HEAD's median over
    BASE's, less 1. A metric the runs lack is skipped.
    """
    out = []
    for m in end_to_end:
        name, bound = m["name"], m["bound"]
        if name in base and name in head:
            b, h = base[name], head[name]
            worse = h - b if m["better"] == "lower" else b - h
            if worse > bound * b:
                out.append((name, h / b - 1, bound))
    return out


def unresolved(base: dict[str, list[float]], head: dict[str, list[float]],
               end_to_end: list[dict]) -> list[tuple[str, float, float]]:
    """(name, BASE's interquartile range, bound times BASE's median) of each metric
    whose BASE runs spread wider than its bound, unless every HEAD run is better
    than every BASE run.

    `base` and `head` are each metric's values by name, one per run; a metric
    the runs lack is skipped.
    """
    out = []
    for m in end_to_end:
        name = m["name"]
        if name in base and name in head:
            q1, _, q3 = statistics.quantiles(base[name], n=4)
            allowed = m["bound"] * statistics.median(base[name])
            clear = (max(head[name]) < min(base[name]) if m["better"] == "lower"
                     else min(head[name]) > max(base[name]))
            if q3 - q1 > allowed and not clear:
                out.append((name, q3 - q1, allowed))
    return out


def checkout(source: str, dest: str) -> None:
    """A fresh copy of a directory, or of a git revision's committed files, at dest."""
    if os.path.isdir(source):
        shutil.copytree(source, dest, ignore=_NOT_COPIED)
        return
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", "--format=tar", source],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or untar.returncode:
        raise SystemExit(f"error: could not check out {source!r}")


def src_lines(tree: str) -> dict[str, int]:
    """The lines of each `src/dtraj/*.py` file in `tree`, by file name."""
    pkg = os.path.join(tree, "src", "dtraj")
    lines = {}
    for name in os.listdir(pkg):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                lines[name] = sum(1 for _ in fh)
    return lines


def changed_modules(base: dict[str, int], head: dict[str, int]) -> list[tuple[str, int, int]]:
    """(name, BASE's lines, HEAD's lines) of each file whose count differs, by name;
    a file one side lacks has 0 lines there."""
    counts = ((name, base.get(name, 0), head.get(name, 0))
              for name in sorted(base.keys() | head.keys()))
    return [c for c in counts if c[1] != c[2]]


def declaration(tree: str) -> dict:
    """The benchmark that `tree`'s BENCHMARK.json declares."""
    with open(os.path.join(tree, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bench(tree: str, workload: str, seed: int) -> dict:
    """The metric values of one untraced run of the workload in `tree`."""
    seconds = declaration(tree)["run_seconds"]
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
    if not result.get("correct") or result.get("failed"):
        raise SystemExit(f"error: {workload} seed {seed} in {tree} did not pass: "
                         f"{(lines or [''])[-1][:300]} {done.stderr[-500:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="git revision or checkout directory of the parent")
    ap.add_argument("head", help="git revision or checkout directory of the change")
    ap.add_argument("--workload", required=True, choices=["discover", "walks", "corridor", "cli"])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=4101, help="the first pair's seed")
    ap.add_argument("--dir", help="where to make the temporary directory (the system's by default)")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-pairs-", dir=args.dir) as tmp:
        trees = {side: os.path.join(tmp, side) for side in ("base", "head")}
        for side, source in (("base", args.base), ("head", args.head)):
            checkout(source, trees[side])
        runs: dict[str, list[dict]] = {"base": [], "head": []}
        for k in range(args.pairs):
            order = ("base", "head") if k % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(bench(trees[side], args.workload, args.seed + k))
            b, h = (runs[side][-1][METRIC] for side in ("base", "head"))
            print(f"pair {k + 1:2d} seed {args.seed + k} {order[0]} first: "
                  f"{METRIC} base {b:.4g} head {h:.4g} ({h / b - 1:+.1%})", flush=True)

        end_to_end = declaration(trees["base"])["end_to_end"]
        lines = {side: src_lines(tree) for side, tree in trees.items()}

    values = {side: {name: [r[name] for r in runs[side]] for name in runs["base"][0]}
              for side in ("base", "head")}
    medians = {side: {name: statistics.median(v) for name, v in values[side].items()}
               for side in ("base", "head")}
    for name, b in medians["base"].items():
        h = medians["head"][name]
        print(f"median {name}: base {b:.4g} head {h:.4g} ({h / b - 1:+.1%})")
    b, h = (sum(lines[side].values()) for side in ("base", "head"))
    print(f"src/ lines: base {b} head {h} ({h - b:+d})")
    for name, b, h in changed_modules(lines["base"], lines["head"]):
        print(f"  {name}: base {b} head {h} ({h - b:+d})")
    worse = past_bounds(medians["base"], medians["head"], end_to_end)
    for name, change, bound in worse:
        print(f"worse past its bound: {name} {change:+.1%} (bound {bound:.0%})")
    if not worse:
        print("no end-to-end metric worse past its bound")
    flagged = {name for name, *_ in worse}
    for name, iqr, allowed in unresolved(values["base"], values["head"], end_to_end):
        if name not in flagged:
            print(f"unresolved: {name} base interquartile range {iqr:.4g} is wider than "
                  f"its bound times base's median, {allowed:.4g}")
    v = verdict(*([r[METRIC] for r in runs[side]] for side in ("base", "head")))
    print(f"{METRIC}: head lower in {v.wins}/{v.pairs} pairs (needs "
          f"{math.ceil(0.9 * v.pairs)}); medians apart by {v.base_median - v.head_median:.4g}, "
          f"base interquartile range {v.base_iqr:.4g}")
    print("gain shown" if v.shown else "gain not shown")
    return 0


if __name__ == "__main__":
    sys.exit(main())
