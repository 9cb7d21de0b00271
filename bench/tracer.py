"""Spans around the calls the layers make, kept in memory until the run ends.

`install` replaces module-level names in the dtraj modules with timing
wrappers, so a call that one layer makes into another (discovery into the
integrator, enumeration into the counter, the CLI into everything) is seen at
the boundary it crosses. Calls with no children that run tens of thousands of
times per operation (the integrator tick, quantize) are kept as a count and a
total on their parent span instead of as spans of their own.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

from reference import dp_cell_steps

perf = time.perf_counter


class Tracer:
    def __init__(self):
        # span: [name, parent, phase, round, start, end, leaves, info]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phase = "setup"
        self.round = -1
        self.active = False

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, self.phase, self.round, perf(), None, {}, {}])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, sid: int, info: dict | None = None, end: float | None = None) -> None:
        span = self.spans[sid]
        span[5] = perf() if end is None else end
        if info:
            span[7].update(info)
        self.stack.pop()

    def leaf(self, name: str, dt: float) -> None:
        # the runner and the CLI child always hold a span open around layer calls
        leaves = self.spans[self.stack[-1]][6]
        acc = leaves.get(name)
        if acc is None:
            leaves[name] = [1, dt]
        else:
            acc[0] += 1
            acc[1] += dt

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, parent, phase, rnd, t0, t1, leaves, info) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "parent": parent, "name": name, "phase": phase, "round": rnd,
                    "start_s": t0, "dur_s": t1 - t0, "leaves": leaves, "info": info,
                }) + "\n")


def _wrap_leaf(tr: Tracer, fn, name: str):
    def wrapper(*args, **kwargs):
        if not tr.active:
            return fn(*args, **kwargs)
        t0 = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            tr.leaf(name, perf() - t0)
    return wrapper


def _wrap_span(tr: Tracer, fn, name, info=None):
    def wrapper(*args, **kwargs):
        if not tr.active:
            return fn(*args, **kwargs)
        sid = tr.open(name(args, kwargs) if callable(name) else name)
        done = False
        try:
            out = fn(*args, **kwargs)
            done = True
            return out
        finally:
            end = perf()
            tr.close(sid, info(args, kwargs, out) if info and done else None, end)
    return wrapper


def _wrap_generator(tr: Tracer, fn, name: str):
    # the span runs from the first resume to exhaustion, so it covers the
    # up-front count and every walk the consumer pulls
    def wrapper(*args, **kwargs):
        if not tr.active:
            return fn(*args, **kwargs)

        def run():
            sid = tr.open(name)
            emitted = 0
            try:
                for item in fn(*args, **kwargs):
                    emitted += 1
                    yield item
            finally:
                tr.close(sid, {"walks": emitted})
        return run()
    return wrapper


def _find_name(args, kwargs):
    robot = args[0] if args else kwargs["robot"]
    return "transitions.find_transitions[demo]" if robot.n_joints == 1 else "transitions.find_transitions[2j]"


def _nd_name(args, kwargs):
    return f"lattice.corridor_count_nd[{kwargs.get('method', args[4] if len(args) > 4 else 'auto')}]"


def _count_info(args, kwargs, out):
    table = args[0] if args else kwargs["table"]
    hops = args[1] if len(args) > 1 else kwargs["n_steps"]
    bits = max((v.bit_length() for v in out.values()), default=0)
    return {"edge_hops": len(table.transitions) * hops, "bits": bits}


def _pathcount_info(args, kwargs, out):
    return {"rel_err": out.rel_err}


def _dp_info(args, kwargs, out):
    spec, a, _, m = args
    return {"cell_steps": dp_cell_steps(spec.d, a, m)}


def _nd_info(args, kwargs, out):
    info = {"rel_err": out.rel_err}
    if _nd_name(args, kwargs).endswith("[direct]"):
        info["terms"] = math.prod(2 * dj for dj in args[0].d)
    return info


def _write_info(args, kwargs, out):
    try:
        return {"bytes": args[1].tell()}
    except (OSError, ValueError):
        # a pipe has no position; only files and buffers are measured
        return {}


def install(tr: Tracer, dtraj) -> None:
    """Route every cross-layer call of the dtraj package through the tracer."""
    dyn, mod, trn, trj, lat, cli = (dtraj.dynamics, dtraj.model, dtraj.transitions,
                                    dtraj.trajectories, dtraj.lattice, dtraj.cli)
    step = _wrap_leaf(tr, dyn.integrate_step, "dynamics.integrate_step")
    quantize = _wrap_leaf(tr, mod.quantize, "model.quantize")
    represent = _wrap_leaf(tr, mod.representative, "model.representative")
    for m in (trn, dyn):
        m.integrate_step = step
        m.quantize = quantize
        m.representative = represent
    trj.quantize = quantize

    find = _wrap_span(tr, trn.find_transitions, _find_name,
                      lambda a, k, out: {"edges": len(out.transitions)})
    write = _wrap_span(tr, trn.write_jsonl, "transitions.write_jsonl", _write_info)
    read = _wrap_span(tr, trn.read_jsonl, "transitions.read_jsonl")
    dot = _wrap_span(tr, trn.export_dot, "transitions.export_dot")
    count = _wrap_span(tr, trj.count_trajectories, "trajectories.count_trajectories", _count_info)
    enum = _wrap_generator(tr, trj.enumerate_trajectories, "trajectories.enumerate_trajectories")
    plan = _wrap_span(tr, trj.plan_action_sequence, "trajectories.plan_action_sequence",
                      lambda a, k, out: {"committed": len(out.sequences)})
    c1d = _wrap_span(tr, lat.corridor_count_1d, "lattice.corridor_count_1d", _pathcount_info)
    dp = _wrap_span(tr, lat.corridor_count_dp, "lattice.corridor_count_dp", _dp_info)
    nd = _wrap_span(tr, lat.corridor_count_nd, _nd_name, _nd_info)
    fact = _wrap_span(tr, lat.corridor_count_factorized, "lattice.corridor_count_factorized")
    scaling = _wrap_span(tr, lat.scaling_table, "lattice.scaling_table")

    for m in (trn, cli):
        m.find_transitions, m.write_jsonl, m.read_jsonl, m.export_dot = find, write, read, dot
    for m in (trj, cli):
        m.count_trajectories, m.enumerate_trajectories, m.plan_action_sequence = count, enum, plan
    for m in (lat, cli):
        m.corridor_count_1d, m.corridor_count_dp, m.corridor_count_nd = c1d, dp, nd
        m.scaling_table = scaling
    lat.corridor_count_factorized = fact
    tr.active = True
