"""The exit-code contract as a property: whatever a subcommand is given, it
succeeds or fails with a documented exit code (2, 3, 4 or 5), lets no
exception escape, and finishes within a wall-clock cap.

Flag values are drawn at the edges: 0, negatives, huge integers, NaN and
infinities, non-integers, and points on or past a corridor wall. Input files
are a valid robot config, transition table or desired path with one field
replaced by such a value, or removed, and a table with no transitions. The
robot config may also be a fine-cell one, whose cells are so small that a
finite angle or separation is more cells from 0 than a float can hold, or a
two-joint one, with its own table, desired path and two-wide states. A plan
may also draw the table of the other joint count, which must be refused
with exit 2. Discovery draws its start, horizon (`--nal`), state budget and
dedup mode, under a sequence budget of 20,000, and a horizon of 10^9 or
10^400 must meet that budget, not be sized before it. Every subcommand that
takes steps, or a horizon, also runs a small valid input at each count
between 10^4 and 10^7, where a loop's cost, not the size of its answer, has
to be capped. No run may raise a warning.
"""

import contextlib
import copy
import io
import json
import time
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from dtraj.cli import main
from conftest import (CONFIG_PATH, DELETE, THREE_STATE_TABLE as TABLE, TWO_JOINT,
                      TWO_JOINT_TABLE, mutated, one_field_mutation, paths, write_table)

WALL_CAP_S = 10.0
EXIT_CODES = {0, 2, 3, 4, 5}

EDGE_INTS = ["0", "1", "2", "3", "-1", "-2", "5", "136", "10000",
             str(2 ** 63), str(10 ** 100), str(-10 ** 100)]
EDGE_OTHERS = ["nan", "inf", "-inf", "1.5", "1e3", "", "x", "0x10", " 7"]
edge = st.sampled_from(EDGE_INTS + EDGE_OTHERS) | st.integers(-300, 300).map(str)
edge_list = st.lists(edge, min_size=1, max_size=3).map(",".join)

with open(CONFIG_PATH) as fh:
    CONFIG = json.load(fh)
# the demo config with a thousandth of a degree per cell over +-1 degree
FINE_CONFIG = copy.deepcopy(CONFIG)
FINE_CONFIG["joints"][0].update(q_min_deg=-1.0, q_max_deg=1.0, delta_q_deg=0.001)

# one cell up on the first tick of the demo config, then a wait; and the
# same for the first joint of the two-joint config
DESIRED = [["t_s", "q1_deg"], ["0", "0"], ["0.04", "2"], ["0.08", "2"]]
DESIRED_2J = [["t_s", "q1_deg", "q2_deg"], ["0", "0", "0"], ["0.04", "6", "0"],
              ["0.08", "6", "0"]]
EDGE_CSV = ["nan", "inf", "-inf", "1e400", "1e308", "-1e308", "", "x", DELETE]
# --start states: on, beside and past the demo grid and the two-joint one,
# past the float range, of the wrong width, and with an index that is no integer
EDGE_STARTS = ["0,0", "67,0", "68,0", "-67,0", "0,3", "0,4", "99999999999999999999999,0",
               f"{10 ** 400},0", f"-{10 ** 400},0", "0 0,0 0", "0,", "x", "a,0", "0 x,0 0",
               "0,1.5",
               "2 -2,1 -1", "3 0,0 0", "0 -3,0 0", "0 0,0 2", "0 0,-2 0", "0 0,0",
               f"0 {10 ** 400},0 0", f"0 0,-{10 ** 400} 0", "0 0 0,0 0 0"]

MID_STEPS = [20_000, 50_000, 100_000, 1_000_000, 10_000_000]
# a valid run of each subcommand that takes steps, for each of MID_STEPS
MID_RUNS = {
    "corridor": "count corridor --d=136 --from=68 --to=78 --steps={m}",
    "corridor-exact-narrow": "count corridor --d=5 --from=2 --to=2 --steps={m} --exact",
    "corridor-exact-wide": "count corridor --d=136 --from=68 --to=78 --steps={m} --exact",
    "ndim": "count ndim --d=136,136,136 --from=68,68,68 --to=88,58,108 --steps={m}",
    "ndim-direct": "count ndim --d=6,6 --from=2,3 --to=3,3 --steps={m} --direct",
    "bounds": "count bounds --config={config} --steps={m}",
    "transitions": "transitions --config={config} --nal={m} --max-sequences=20000",
    "scaling": "count scaling --config={config} --dof=1-6 --steps=1-{m} --separation-deg=20",
    "enumerate": "enumerate --transitions={table} --steps={m}",
    "enumerate-count": "enumerate --transitions={table} --steps={m} --count-only",
}


@st.composite
def one_cell_mutation(draw, rows):
    """A copy of CSV rows with one field replaced by an edge value, or removed."""
    r = draw(st.integers(0, len(rows) - 1))
    c = draw(st.integers(0, len(rows[r]) - 1))
    return mutated(rows, (r, c), draw(st.sampled_from(EDGE_CSV)))


configs = st.sampled_from([CONFIG, FINE_CONFIG, TWO_JOINT])
mutated_configs = st.sampled_from([CONFIG, TWO_JOINT]).flatmap(
    lambda config: one_field_mutation(config) | st.just(config))


def run(argv) -> tuple[int, str, str]:
    """Run argv in-process under the contract; returns its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    elapsed = time.monotonic() - t0
    assert rc in EXIT_CODES, (rc, argv, err.getvalue()[-500:])
    assert not caught, ([str(w.message) for w in caught], argv)
    assert elapsed < WALL_CAP_S, (elapsed, argv)
    if rc:
        assert err.getvalue().startswith("error: ") or "usage:" in err.getvalue(), argv
    return rc, out.getvalue(), err.getvalue()


def flags(**values) -> list[str]:
    # "--flag=value", so a value that starts with '-' is never read as a flag
    return [f"--{name.replace('_', '-')}={v}" for name, v in values.items()]


def config_file(tmp_path_factory, config) -> str:
    path = tmp_path_factory.mktemp("config") / "robot.json"
    path.write_text(json.dumps(config))
    return str(path)


@settings(max_examples=150, deadline=None)
@given(d=edge, frm=edge, to=edge, steps=edge, exact=st.booleans())
@example(d=str(10 ** 100), frm="5", to="6", steps="3", exact=True)
# the most steps the DP's work budget admits on the 4 cells of d = 5
@example(d="5", frm="2", to="2", steps="39287", exact=True)
def test_count_corridor(d, frm, to, steps, exact):
    run(["count", "corridor", *flags(d=d, steps=steps, to=to), f"--from={frm}"]
        + ["--exact"] * exact)


@settings(max_examples=150, deadline=None)
@given(d=edge_list, frm=edge_list, to=edge_list, steps=edge, direct=st.booleans())
@example(d="136,136,136", frm="68,68,68", to="88,58,108", steps="50000", direct=True)
# the most steps the spectral price admits over 136^3, and one step more
@example(d="136,136,136", frm="68,68,68", to="88,58,108", steps="5796", direct=True)
@example(d="136,136,136", frm="68,68,68", to="88,58,108", steps="5797", direct=True)
@example(d=str(10 ** 100), frm="1", to="2", steps="5", direct=True)
def test_count_ndim(d, frm, to, steps, direct):
    run(["count", "ndim", *flags(d=d, steps=steps, to=to), f"--from={frm}"]
        + ["--direct"] * direct)


@settings(max_examples=150, deadline=None)
@given(config=mutated_configs, steps=edge)
def test_count_bounds(tmp_path_factory, config, steps):
    run(["count", "bounds", "--config", config_file(tmp_path_factory, config),
         f"--steps={steps}"])


@settings(max_examples=150, deadline=None)
@given(config=configs, dof=edge | st.tuples(edge, edge).map("-".join),
       steps=edge | edge.map("1-{}".format),
       separation=edge | st.sampled_from(["2", "20", "-20", "270", "1e308", "-1e308"]))
@example(config=FINE_CONFIG, dof="1", steps="1-3", separation="1e308")
def test_count_scaling(tmp_path_factory, config, dof, steps, separation):
    run(["count", "scaling", "--config", config_file(tmp_path_factory, config),
         *flags(dof=dof, steps=steps, separation_deg=separation)])


@settings(max_examples=100, deadline=None)
@given(config=mutated_configs, start=st.none() | st.sampled_from(EDGE_STARTS),
       nal=st.none() | edge, max_states=st.none() | edge,
       dedup=st.none() | st.sampled_from(["all", "shortest"]) | edge)
@example(config=CONFIG, start=f"{10 ** 400},0", nal=None, max_states=None, dedup=None)
@example(config=TWO_JOINT, start="2 -2,1 -1", nal=None, max_states=None, dedup=None)
@example(config=TWO_JOINT, start="0 x,0 0", nal=None, max_states=None, dedup=None)
@example(config=mutated(CONFIG, ("joints", 0, "delta_q_deg"), 1e-19), start=None, nal=None,
         max_states=None, dedup=None)
# a horizon far past the sequence budget is refused by the budget, not sized first
@example(config=CONFIG, start=None, nal="1000000000", max_states=None, dedup=None)
@example(config=CONFIG, start=None, nal=str(10 ** 400), max_states=None, dedup="shortest")
def test_transitions(tmp_path_factory, config, start, nal, max_states, dedup):
    drawn = {"start": start, "nal": nal, "max_states": max_states, "dedup": dedup}
    run(["transitions", "--config", config_file(tmp_path_factory, config),
         "--max-sequences=20000"] + flags(**{k: v for k, v in drawn.items() if v is not None}))


@st.composite
def one_line_mutation(draw, lines):
    """A copy of a table's lines with one field of one line mutated."""
    k = draw(st.integers(0, len(lines) - 1))
    return lines[:k] + [draw(one_field_mutation(lines[k]))] + lines[k + 1:]


@settings(max_examples=200, deadline=None)
@given(lines=one_line_mutation(TABLE), steps=edge,
       start=st.none() | st.sampled_from(["0,0", "0,1", "7,0", "x"]),
       count_only=st.booleans(), budget=st.none() | edge)
# a duration of one tick, read on a one-tick line, then on a two-tick line
@example(lines=mutated(TABLE, (2, "duration_s"), 0.04), steps="2", start=None,
         count_only=True, budget=None)
def test_enumerate(tmp_path_factory, lines, steps, start, count_only, budget):
    # a listing takes --budget, and --count-only does not
    path = write_table(tmp_path_factory.mktemp("table") / "table.jsonl", lines)
    how = ["--count-only"] if count_only else [] if budget is None else [f"--budget={budget}"]
    run(["enumerate", "--transitions", path, f"--steps={steps}"]
        + ([f"--start={start}"] if start else []) + how)


@settings(max_examples=50, deadline=None)
@given(steps=edge, start=st.sampled_from(["0,0", "0 0,0 0", "0,1 2", "x"]),
       count_only=st.booleans())
def test_enumerate_table_without_states(tmp_path_factory, steps, start, count_only):
    path = write_table(tmp_path_factory.mktemp("table") / "table.jsonl", TABLE[:1])
    run(["enumerate", "--transitions", path, f"--steps={steps}", f"--start={start}"]
        + ["--count-only"] * count_only)


@settings(max_examples=100, deadline=None)
@given(config=configs, table=st.sampled_from([TABLE, TWO_JOINT_TABLE]),
       desired=st.sampled_from([DESIRED, DESIRED_2J]).flatmap(one_cell_mutation))
@example(config=FINE_CONFIG, table=TABLE, desired=mutated(DESIRED, (1, 1), "1e308"))
@example(config=TWO_JOINT, table=TWO_JOINT_TABLE, desired=DESIRED_2J)
@example(config=TWO_JOINT, table=TABLE, desired=DESIRED_2J)
@example(config=CONFIG, table=TWO_JOINT_TABLE, desired=DESIRED)
def test_plan(tmp_path_factory, config, table, desired):
    # a table of the other config's joint count is refused before the desired path is read
    tmp = tmp_path_factory.mktemp("plan")
    path = tmp / "desired.csv"
    path.write_text("".join(",".join(row) + "\n" for row in desired))
    rc, out, err = run(["plan", "--transitions", write_table(tmp / "table.jsonl", table),
                        "--config", config_file(tmp_path_factory, config), "--desired", str(path)])
    assert "NaN" not in out and "Infinity" not in out, out
    width, joints = (2 if table is TWO_JOINT_TABLE else 1), len(config["joints"])
    if width != joints:
        assert (rc, err.splitlines()[0]) == (2, f"error: the transition table's joint count "
                                                f"{width} is not the robot config's {joints}")


# JSON that json parses only within Python's own limits: an integer of more
# digits than int() converts from text, and an array nested past the
# recursion limit; json.dumps cannot write the first, so both go in as text
PAST_PYTHON_LIMITS = ["9" * 4301, "[" * 100_000 + "]" * 100_000]


def with_text(obj, path, text: str) -> str:
    """json.dumps of obj with the value at path written as `text`."""
    return json.dumps(mutated(obj, path, "\0")).replace('"\\u0000"', text)


@settings(max_examples=60, deadline=None)
@given(text=st.sampled_from(PAST_PYTHON_LIMITS), in_config=st.booleans(), data=st.data())
def test_values_past_pythons_limits(tmp_path_factory, text, in_config, data):
    # a config field, or a field of any line of a table, header included
    tmp = tmp_path_factory.mktemp("limits")
    if in_config:
        path = data.draw(st.sampled_from(list(paths(CONFIG))))
        (tmp / "robot.json").write_text(with_text(CONFIG, path, text))
        argv = ["count", "bounds", f"--config={tmp / 'robot.json'}", "--steps=3"]
    else:
        k = data.draw(st.integers(0, len(TABLE) - 1))
        path = data.draw(st.sampled_from(list(paths(TABLE[k]))))
        (tmp / "table.jsonl").write_text("".join(
            (with_text(line, path, text) if i == k else json.dumps(line)) + "\n"
            for i, line in enumerate(TABLE)))
        argv = ["enumerate", f"--transitions={tmp / 'table.jsonl'}", "--steps=2"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(argv) == 2
    errors = [ln for ln in err.getvalue().splitlines() if not ln.startswith("{")]    # no manifest
    assert len(errors) == 1 and errors[0].startswith("error: "), errors
    # Python's advice to raise its limit is no remedy for a user of the CLI
    assert "set_int_max_str_digits" not in err.getvalue(), errors


@pytest.mark.parametrize("steps", MID_STEPS)
@pytest.mark.parametrize("name", MID_RUNS)
def test_mid_step_counts(tmp_path, name, steps):
    table = write_table(tmp_path / "table.jsonl", TABLE)
    run([arg.format(m=steps, config=CONFIG_PATH, table=table) for arg in MID_RUNS[name].split()])
