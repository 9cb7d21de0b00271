"""Benchmark of dtraj: discovery, walk queries, corridor counts and the CLI.

    python3 bench/run.py --workload {discover,walks,corridor,cli} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is imported from its src/.
The last line of stdout is one JSON object: correct, attempted, failed and the
metrics, end-to-end ones with --trace 0 and per-layer ones with --trace 1.
The line before it gives the run's make-up and the reference loop's time.
A copy of the result, and with --trace 1 the spans, go to .bench_out/.
See bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

# one thread per numpy pool; set before anything imports numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = ("model", "dynamics", "transitions", "trajectories", "lattice", "cli", "errors")
CLI_COMMANDS = ("transitions", "enumerate", "enumerate_count_only", "plan", "count_corridor",
                "count_corridor_exact", "count_ndim", "count_ndim_direct", "count_bounds",
                "count_scaling")

perf = time.perf_counter


def load_package():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "dtraj", "__init__.py")) or not os.path.isfile(
            os.path.join(ROOT, "configs", "pendulum.json")):
        raise SystemExit(f"error: no dtraj source tree under {ROOT} (src/dtraj and configs/ needed)")
    sys.path.insert(0, src)
    import dtraj
    import dtraj.cli  # noqa: F401  (the tracer patches its imported names)
    if not os.path.abspath(dtraj.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported dtraj from {dtraj.__file__}, not from {src}")
    return dtraj


def self_test() -> None:
    """The reflection formula against a brute-force count on small corridors."""
    import reference as ref
    for d in range(2, 7):
        for a in range(1, d):
            cur = {a: 1}
            for m in range(9):
                for b in range(1, d):
                    if ref.corridor_1d(d, a, b, m) != cur.get(b, 0):
                        raise SystemExit("error: reference corridor count fails its self-test")
                nxt: dict[int, int] = {}
                for x, c in cur.items():
                    for y in (x - 1, x, x + 1):
                        if 1 <= y <= d - 1:
                            nxt[y] = nxt.get(y, 0) + c
                cur = nxt


def tail(times: list[float]) -> float:
    """Highest sample with at least ten samples above it."""
    return sorted(times)[len(times) - 11]


def line_counts() -> dict[str, int]:
    out, total = {}, 0
    pkg = os.path.join(ROOT, "src", "dtraj")
    for f in sorted(os.listdir(pkg)):
        if f.endswith(".py"):
            with open(os.path.join(pkg, f)) as fh:
                n = sum(1 for _ in fh)
            total += n
            if f[:-3] in MODULES:
                out[f"{f[:-3]}.lines"] = n
    out["src.lines"] = total
    return out


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def self_time(spans, i, children) -> float:
    name, parent, phase, rnd, t0, t1, leaves, info = spans[i]
    inner = sum(spans[c][5] - spans[c][4] for c in children.get(i, ()))
    inner += sum(v[1] for v in leaves.values())
    return (t1 - t0) - inner


def layer_metrics(spans, n_rounds: int) -> tuple[dict, list[str]]:
    """Every per-layer metric over one scope: the traced setup, one round, and the
    once-per-run extras. Totals of the traced rounds are divided by their number;
    counts must come out the same in every round."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s[1], []).append(i)

    per_round: dict[int, dict] = {}
    totals: dict[str, float] = {}
    calls: dict[str, list[float]] = {}
    counts_keys = ("dynamics.step_calls", "model.quantize_calls", "trajectories.count_edge_hops",
                   "trajectories.walks_emitted", "trajectories.plans_committed",
                   "lattice.dp_cell_steps", "lattice.direct_terms", "edges")

    def add(key, value, phase, rnd):
        w = 1.0 / n_rounds if phase == "round" else 1.0
        totals[key] = totals.get(key, 0.0) + value * w
        if phase == "round" and key in counts_keys:
            per_round.setdefault(rnd, {})
            per_round[rnd][key] = per_round[rnd].get(key, 0) + value

    max_bits = 0
    max_rel = 0.0
    for i, (name, parent, phase, rnd, t0, t1, leaves, info) in enumerate(spans):
        dur = t1 - t0
        for leaf, (n, secs) in leaves.items():
            if leaf == "dynamics.integrate_step":
                add("dynamics.step_calls", n, phase, rnd)
                add("dynamics.busy_s", secs, phase, rnd)
            else:
                if leaf == "model.quantize":
                    add("model.quantize_calls", n, phase, rnd)
                add("model.busy_s", secs, phase, rnd)
        if name.startswith("bench."):
            if name == "bench.headline_direct":
                add("lattice.direct_headline_s", dur, phase, rnd)
            continue
        calls.setdefault(name, []).append(dur)
        if name.startswith("transitions.find_transitions"):
            add("transitions.self_s", self_time(spans, i, children), phase, rnd)
            add("edges", info.get("edges", 0), phase, rnd)
        elif name == "transitions.write_jsonl":
            add("transitions.write_jsonl_s", dur, phase, rnd)
            add("transitions.jsonl_mb", info.get("bytes", 0) / 1e6, phase, rnd)
        elif name == "transitions.export_dot":
            add("transitions.export_dot_s", dur, phase, rnd)
        elif name == "transitions.read_jsonl":
            add("transitions.read_jsonl_s", dur, phase, rnd)
        elif name == "trajectories.count_trajectories":
            nested = parent >= 0 and spans[parent][0] == "trajectories.enumerate_trajectories"
            add("trajectories.enumerate_precount_s" if nested else "trajectories.count_s", dur, phase, rnd)
            add("trajectories.count_edge_hops", info.get("edge_hops", 0), phase, rnd)
            max_bits = max(max_bits, info.get("bits", 0))
        elif name == "trajectories.enumerate_trajectories":
            add("trajectories.enumerate_s", dur, phase, rnd)
            add("trajectories.walks_emitted", info.get("walks", 0), phase, rnd)
        elif name == "trajectories.plan_action_sequence":
            add("trajectories.plans_committed", info.get("committed", 0), phase, rnd)
        elif name == "lattice.corridor_count_dp":
            add("lattice.dp_cell_steps", info.get("cell_steps", 0), phase, rnd)
        elif name == "lattice.corridor_count_nd[direct]" and phase != "extra":
            add("lattice.direct_ms", dur * 1e3, phase, rnd)
            add("lattice.direct_terms", info.get("terms", 0), phase, rnd)
        elif name == "lattice.scaling_table":
            add("lattice.scaling_ms", dur * 1e3, phase, rnd)
        if phase == "round" and name.startswith("lattice.corridor_count_") and "rel_err" in info:
            max_rel = max(max_rel, info["rel_err"])

    problems = []
    rounds = list(per_round.values())
    if any(r != rounds[0] for r in rounds):
        problems.append("per-round counts differ between traced rounds")

    def med(name, scale=1.0):
        return statistics.median(calls[name]) * scale if name in calls else 0.0

    steps = totals.get("dynamics.step_calls", 0)
    out = {
        "dynamics.step_calls": steps,
        "dynamics.busy_s": totals.get("dynamics.busy_s", 0.0),
        "dynamics.step_us": totals.get("dynamics.busy_s", 0.0) / steps * 1e6 if steps else 0.0,
        "model.quantize_calls": totals.get("model.quantize_calls", 0),
        "model.busy_s": totals.get("model.busy_s", 0.0),
        "transitions.find_demo_s": med("transitions.find_transitions[demo]"),
        "transitions.find_2j_s": med("transitions.find_transitions[2j]"),
        "transitions.self_s": totals.get("transitions.self_s", 0.0),
        "transitions.edges_per_step": totals.get("edges", 0) / steps if steps else 0.0,
        "transitions.write_jsonl_s": totals.get("transitions.write_jsonl_s", 0.0),
        "transitions.export_dot_s": totals.get("transitions.export_dot_s", 0.0),
        "transitions.jsonl_mb": totals.get("transitions.jsonl_mb", 0.0),
        "transitions.read_jsonl_s": totals.get("transitions.read_jsonl_s", 0.0),
        "trajectories.count_s": totals.get("trajectories.count_s", 0.0),
        "trajectories.count_edge_hops": totals.get("trajectories.count_edge_hops", 0),
        "trajectories.count_max_bits": max_bits,
        "trajectories.enumerate_s": totals.get("trajectories.enumerate_s", 0.0),
        "trajectories.enumerate_precount_s": totals.get("trajectories.enumerate_precount_s", 0.0),
        "trajectories.walks_emitted": totals.get("trajectories.walks_emitted", 0),
        "trajectories.plan_ms": med("trajectories.plan_action_sequence", 1e3),
        "trajectories.plans_committed": totals.get("trajectories.plans_committed", 0),
        "lattice.dp_ms": med("lattice.corridor_count_dp", 1e3),
        "lattice.dp_cell_steps": totals.get("lattice.dp_cell_steps", 0),
        "lattice.closed_1d_us": med("lattice.corridor_count_1d", 1e6),
        "lattice.factorized_us": med("lattice.corridor_count_nd[factorized]", 1e6),
        "lattice.max_rel_err": max_rel,
        "lattice.direct_ms": totals.get("lattice.direct_ms", 0.0),
        "lattice.direct_terms": totals.get("lattice.direct_terms", 0),
        "lattice.direct_headline_s": totals.get("lattice.direct_headline_s", 0.0),
        "lattice.scaling_ms": totals.get("lattice.scaling_ms", 0.0),
    }
    for key in counts_keys:
        if key in out:
            out[key] = round(out[key])
    return out, problems


UNITS = {"_calls": "count", "_hops": "count", "_emitted": "count", "_committed": "count",
         "_cell_steps": "count", "_terms": "count", "_bits": "bits", "_s": "s", "_ms": "ms",
         "_us": "us", "_mb": "MB", "_per_step": "ratio", "_err": "ratio", ".lines": "lines"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


# ---------------------------------------------------------------------------


def run(args) -> dict:
    dtraj = load_package()
    self_test()
    import workloads
    from tracer import Tracer, install

    out_dir = os.path.join(ROOT, ".bench_out")
    work = os.path.join(out_dir, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    tracer = Tracer() if args.trace else None
    cls = {"discover": workloads.Discover, "walks": workloads.Walks,
           "corridor": workloads.Corridor, "cli": workloads.Cli}[args.workload]
    # set-up is in-process work everywhere; operations use the workload's reference
    setup_pacer = workloads.Pacer(workloads.reference_loop, workloads.REF_NOMINAL_S)
    pacer = workloads.Pacer(*cls.pace)
    w = cls(dtraj, ROOT, work, args.seed, pacer, tracer)
    faults: list[str] = []
    ops: list[tuple[float, bool]] = []
    try:
        setup_times, setup_raw = [], []
        for _ in range(w.setup_reps):
            t0 = perf()
            w.setup()
            setup_raw.append(perf() - t0)
            setup_times.append(setup_pacer.scale(setup_raw[-1]))
        w.prepare()
        w.warmup()

        n_rounds = w.rounds(args.seconds)
        untraced = n_rounds if not args.trace else max(1, n_rounds // 2)
        round_times = []
        deadline = perf() + 5 * args.seconds
        for r in range(untraced):
            got = w.round()
            ops += got
            round_times.append(sum(t for t, _ in got))
            if perf() > deadline and len(ops) >= 40:
                break
        extras_s = 0.0 if args.trace else w.extras()
        wall_s = sum(round_times) + extras_s

        per_layer = {}
        if args.trace:
            install(tracer, dtraj)
            if w.traced_setup:
                tracer.phase = "setup"
                with tracer.span("bench.setup"):
                    w.setup()
            traced_times = []
            tracer.phase = "round"
            for r in range(len(round_times)):
                tracer.round = r
                with tracer.span("bench.round"):
                    traced_times.append(sum(t for t, _ in w.round()))
            tracer.phase, tracer.round = "extra", -1
            with tracer.span("bench.extras"):
                w.extras()
            tracer.active = False
            spans = tracer.spans
            if args.workload == "cli":
                spans = []
                for child in w.child_spans:
                    base = len(spans)
                    spans += [[s[0], s[1] + base if s[1] >= 0 else -1] + s[2:] for s in child]
            per_layer, problems = layer_metrics(spans, len(traced_times))
            faults += problems
            k = len(round_times)
            per_layer["trace.overhead_s"] = (
                statistics.mean(traced_times) - statistics.mean(round_times)) * n_rounds
            if args.workload == "cli":
                for name in CLI_COMMANDS:
                    per_layer[f"cli.{name}_ms"] = statistics.median(w.walltimes[name][:k]) * 1e3
                per_layer["cli.import_ms"] = statistics.median(w.import_s) * 1e3
                per_layer["cli.overhead_ms"] = statistics.median(w.overheads[:k * len(CLI_COMMANDS)]) * 1e3
            else:
                for name in CLI_COMMANDS:
                    per_layer[f"cli.{name}_ms"] = 0.0
                per_layer["cli.import_ms"] = per_layer["cli.overhead_ms"] = 0.0
            per_layer.update(line_counts())
            tracer.dump(os.path.join(out_dir, f"{args.workload}-seed{args.seed}.spans.jsonl"))
    except workloads.Fault as e:
        faults.append(str(e))
    except Exception as e:
        # the program raised where it should have answered: report, do not crash
        traceback.print_exc()
        faults.append(f"{type(e).__name__}: {e}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if faults:
        print("FAULT: " + "; ".join(faults), file=sys.stderr)
        return {"correct": False, "attempted": max(1, len(ops)), "failed": 0, "metrics": {}}

    good = [t for t, failed in ops if not failed]
    if args.trace:
        metrics = per_layer
    else:
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall_s,
            "op_p50_ms": statistics.median(good) * 1e3,
            "op_tail_ms": tail(good) * 1e3,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        }
    units = {"setup_s": "s", "wall_s": "ref-s", "op_p50_ms": "ref-ms", "op_tail_ms": "ref-ms",
             "peak_rss_mb": "MB"}
    result = {
        "correct": True,
        "attempted": len(ops),
        "failed": sum(1 for _, failed in ops if failed),
        "metrics": {k: {"value": v, "unit": units.get(k) or unit_of(k)} for k, v in metrics.items()},
    }
    print(f"# {args.workload} seed={args.seed} trace={args.trace} rounds={len(round_times)} "
          f"ops={len(ops)} reference_loop_ms={statistics.median(setup_pacer.samples) * 1e3:.3f} "
          f"operation_reference_ms={statistics.median(pacer.samples) * 1e3:.3f}")
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"reference_loop_s": setup_pacer.samples, "operation_reference_s": pacer.samples,
                   "setup_raw_s": setup_raw,
                   "round_times_s": round_times, **result}, fh, indent=1)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["discover", "walks", "corridor", "cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
