#!/usr/bin/env python3
"""Regenerate the path-count scaling study and print slope diagnostics.

Writes the CSV through `dtraj count scaling` (one row per dof/step pair plus
the reference rows), so the CLI's checks and caps apply, and reports the
growth slopes fitted to the rows it wrote so a change in the counting code
shows up as a number, not just a diff. A refused table exits with the CLI's
code; the fits read the library's rows for the dof counts the CSV lists.
"""

import argparse
import csv
import math
import sys

import numpy as np

from dtraj import load_robot, scaling_table
from dtraj.cli import main as dtraj


def fitted_slope(column, nodes):
    # the approx columns carry a -n*log10(2m+1) correction; fit it out
    A = np.array([[m, math.log10(2 * m + 1), 1.0] for m in nodes])
    y = np.array([column[m] for m in nodes])
    return float(np.linalg.solve(A, y)[0])


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default="configs/pendulum.json")
    ap.add_argument("--dof", default="1-6")
    ap.add_argument("--max-steps", type=int, default=100)
    ap.add_argument("--separation-deg", type=float, default=20.0)
    ap.add_argument("--out", default="scaling.csv")
    args = ap.parse_args()

    rc = dtraj(["count", "scaling", "--config", args.config, "--dof", args.dof,
                "--steps", f"1-{args.max_steps}", "--separation-deg", repr(args.separation_deg),
                "--out", args.out])
    if rc:
        sys.exit(rc)
    # the fits take the library's rows for the dof counts the CSV lists, at
    # full precision: the CSV's 6 decimals can move a fitted slope by 1e-6
    with open(args.out, newline="") as fh:
        dofs = [r["n"] for r in csv.DictReader(fh) if r["m"] == "1" and r["method"] != "reference"]
    rows = list(scaling_table(load_robot(args.config).joints[0], list(map(int, dofs)),
                              args.max_steps, math.radians(args.separation_deg)))
    print(f"wrote {len(rows)} rows to {args.out}")

    # the forced-path row (exactly 1 walk) and the rows below it are "exact"
    # rows of the step limit, not of the growth, so no fit goes through them
    forced = max(int(r.m) for r in rows if r.method == "exact")
    columns = {}
    for r in rows:
        if r.log10_count is not None and r.m != "*" and int(r.m) > forced:
            columns.setdefault(r.n, {})[int(r.m)] = r.log10_count

    hi = args.max_steps
    lo = max(hi // 2, forced + 1)
    nodes = (lo, (lo + hi) // 2, hi)
    print(f"fitted log10-count slopes at steps {nodes}:")
    for tag in dofs + ["go"]:
        col = columns.get(tag, {})
        if len(set(nodes)) < 3 or any(m not in col for m in nodes):
            print(f"  n={tag:>2}: skipped, needs three steps above the forced row "
                  f"m = {forced}", file=sys.stderr)
            continue
        slope = fitted_slope(col, nodes)
        print(f"  n={tag:>2}: {slope:.6f}")
    n_max = max(map(int, dofs))
    print(f"reference: {n_max}*log10(3) = {n_max * math.log10(3):.6f}, "
          f"log10(361) = {math.log10(361):.6f}")


if __name__ == "__main__":
    main()
