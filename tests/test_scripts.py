"""The scripts in scripts/, run as subprocesses and checked against the library."""

import io
import json
import math
import os
import re
import runpy
import subprocess
import sys
import time

from dtraj.discovery import find_transitions
from dtraj.lattice import scaling_table, write_scaling_csv
from dtraj.model import robot_from_dict
from dtraj.transitions import export_dot, write_jsonl
from conftest import CONFIG_PATH, bench_config, bench_robot

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def run_script(name: str, *args: str, code: int = 0) -> subprocess.CompletedProcess:
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    done = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == code, done.stderr
    return done


def demo_robot():
    with open(CONFIG_PATH) as fh:
        return robot_from_dict(json.load(fh))


def test_explore_pendulum_writes_the_library_bytes(tmp_path):
    jsonl, dot = tmp_path / "a.jsonl", tmp_path / "b.dot"
    out = run_script("explore_pendulum.py", "--jsonl", str(jsonl), "--dot", str(dot)).stdout
    assert "transitions       6353" in out
    table = find_transitions(demo_robot())
    buf = io.StringIO()
    write_jsonl(table, buf)
    assert jsonl.read_text() == buf.getvalue()
    assert dot.read_text() == export_dot(table)


def test_explore_pendulum_counts_sink_states():
    # out-degrees are every state's, so states without a transition count as 0
    out = run_script("explore_pendulum.py").stdout
    table = find_transitions(demo_robot())
    degrees = sorted(len(table.outgoing(s)) for s in table.states)
    assert degrees[0] == 0
    line = next(ln for ln in out.splitlines() if ln.startswith("out-degree"))
    assert line.split() == ["out-degree", "min", str(degrees[0]), "median",
                            str(degrees[len(degrees) // 2]), "max", str(degrees[-1])]


def test_explore_pendulum_prints_the_quotient_class_count():
    out = run_script("explore_pendulum.py").stdout
    assert "quotient classes  470\n" in out


def slopes(stdout: str) -> dict[str, float]:
    lines = [line.split(":") for line in stdout.splitlines() if line.startswith("  n=")]
    return {tag.strip(): float(value) for tag, value in lines}


def test_run_scaling_study_writes_the_library_csv(tmp_path):
    csv = tmp_path / "scaling.csv"
    done = run_script("run_scaling_study.py", "--max-steps", "20", "--out", str(csv))
    rows = list(scaling_table(demo_robot().joints[0], range(1, 7), 20, math.radians(20.0)))
    buf = io.StringIO()
    write_scaling_csv(rows, buf)
    assert csv.read_text() == buf.getvalue()
    assert f"wrote {len(rows)} rows to {csv}" in done.stdout
    # 20 deg is 10 demo cells, so m = 10 is the forced row (log10 0) and
    # m < 10 are the empty rows; the fit starts above them
    assert "fitted log10-count slopes at steps (11, 15, 20):" in done.stdout
    got = slopes(done.stdout)
    assert list(got) == ["n= 1", "n= 2", "n= 3", "n= 4", "n= 5", "n= 6", "n=go"]
    assert all(v > 0 for v in got.values())
    # the estimate's -n log10(2m+1) term is fitted out, leaving n log10(3)
    for n in (4, 5, 6):
        assert math.isclose(got[f"n= {n}"], n * math.log10(3), abs_tol=1e-6)
    assert math.isclose(got["n=go"], math.log10(361), abs_tol=1e-6)
    assert "skipped" not in done.stderr


def test_run_scaling_study_patches_nothing(tmp_path, monkeypatch, capsys):
    # run in this process, so a name it rebound on the library would show here
    import dtraj.lattice as lattice

    names = dict(vars(lattice))
    csv = tmp_path / "scaling.csv"
    monkeypatch.setattr(sys, "argv", ["run_scaling_study.py", "--config", CONFIG_PATH,
                                      "--max-steps", "20", "--out", str(csv)])
    runpy.run_path(os.path.join(ROOT, "scripts", "run_scaling_study.py"), run_name="__main__")
    assert vars(lattice) == names
    assert capsys.readouterr().out.splitlines() == [
        f"wrote 141 rows to {csv}",
        "fitted log10-count slopes at steps (11, 15, 20):",
        "  n= 1: 0.139251", "  n= 2: 0.278502", "  n= 3: 0.417752", "  n= 4: 1.908485",
        "  n= 5: 2.385606", "  n= 6: 2.862728", "  n=go: 2.557507",
        "reference: 6*log10(3) = 2.862728, log10(361) = 2.557507",
    ]


def test_run_scaling_study_skips_columns_without_three_nodes(tmp_path):
    # steps 11 and 12 alone lie above the forced row: no column gets a slope
    done = run_script("run_scaling_study.py", "--max-steps", "12", "--out",
                      str(tmp_path / "scaling.csv"))
    assert slopes(done.stdout) == {}
    skipped = [line for line in done.stderr.splitlines() if "skipped" in line]
    assert len(skipped) == 7
    assert all("forced row m = 10" in line for line in skipped)


def test_run_scaling_study_exits_with_the_cli_refusal(tmp_path):
    # 5,000 dof counts x 100 steps pass the table's row cap: count scaling
    # refuses them before any range is expanded, and so does the script
    csv = tmp_path / "scaling.csv"
    t0 = time.monotonic()
    done = run_script("run_scaling_study.py", "--dof", "1-5000", "--out", str(csv), code=4)
    assert time.monotonic() - t0 < 1.0
    assert "more than the table's cap of 400000 rows" in done.stderr
    assert done.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_profile_discovery_counts_the_demo_and_restores_what_it_wraps(monkeypatch, capsys):
    # run in this process, so a wrapper left on the library would show here
    from dtraj import discovery, dynamics

    names = dict(vars(discovery)), dict(vars(dynamics))
    monkeypatch.setattr(sys, "argv", ["profile_discovery.py", CONFIG_PATH, "--reps", "2"])
    runpy.run_path(os.path.join(ROOT, "scripts", "profile_discovery.py"), run_name="__main__")
    assert (dict(vars(discovery)), dict(vars(dynamics))) == names
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (f"{CONFIG_PATH}: 943 states, 6353 transitions, median of 2 builds, "
                        f"schedule seeded")
    parts = [line.split() for line in lines[1:]]
    assert [p[:-2] for p in parts] == [
        ["kernel", "25", "calls", "8085", "rows"], ["tick", "masks", "25", "calls"],
        ["static", "holds", "5", "calls", "100", "ticks"], ["bookkeeping"],
        ["table", "assembly"], ["search"], ["write_jsonl"], ["export_dot"]]
    assert all(p[-1] == "ms" and float(p[-2]) > 0 for p in parts)


def test_profile_discovery_names_the_reached_schedule(tmp_path):
    # the bench robot with a third joint: its first tick would be wider than one chunk
    config = tmp_path / "three.json"
    config.write_text(json.dumps(bench_config(3)))
    table = find_transitions(bench_robot(3))
    done = run_script("profile_discovery.py", str(config), "--reps", "1")
    assert done.stdout.splitlines()[0] == (
        f"{config}: {len(table.states)} states, {len(table)} transitions, "
        f"median of 1 builds, schedule reached")


def test_profile_discovery_refuses_a_missing_config(tmp_path):
    # read through load_robot, so a missing file is one error line and the CLI's code
    missing = str(tmp_path / "missing.json")
    done = run_script("profile_discovery.py", missing, code=2)
    assert done.stderr.splitlines() == [
        f"error: cannot read robot config {missing!r}: "
        f"[Errno 2] No such file or directory: {missing!r}"]
    assert done.stdout == ""


def test_refusal_cost_runs_each_side_in_alternated_children(tmp_path):
    # the demo with a mass that overflows the dynamics: the search refuses
    # on its first tick, here in the same checkout copied twice
    with open(CONFIG_PATH) as fh:
        cfg = json.load(fh)
    cfg["joints"][0]["mass_kg"] = 1e-308
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(cfg))
    done = run_script("refusal_cost.py", str(config), ROOT, ROOT, "--reps", "2",
                      "--dir", str(tmp_path))
    lines = done.stdout.splitlines()
    runs = [re.fullmatch(r"run (\d) (base|head): (\S+) s, (\S+) MiB, (.*)", line).groups()
            for line in lines[:4]]
    assert [run[:2] for run in runs] == [("1", "base"), ("1", "head"), ("2", "head"),
                                         ("2", "base")]
    assert {run[4] for run in runs} == {
        "NumericalOverflow: joint joint1: non-finite state after integration"}
    # numpy alone takes more than 10 MiB
    assert all(0 < float(run[2]) < 60 and float(run[3]) > 10 for run in runs)
    assert [line.split(":")[0] for line in lines[4:]] == ["median base", "median head"]
    assert [p.name for p in tmp_path.iterdir()] == ["tiny.json"]


def test_explore_pendulum_refuses_a_missing_config(tmp_path):
    # read through load_robot, so a missing file is one error line and the CLI's code
    missing = str(tmp_path / "missing.json")
    done = run_script("explore_pendulum.py", "--config", missing, code=2)
    assert done.stderr.splitlines() == [
        f"error: cannot read robot config {missing!r}: "
        f"[Errno 2] No such file or directory: {missing!r}"]
    assert done.stdout == ""


def test_explore_pendulum_refuses_a_malformed_config(tmp_path):
    cfg = tmp_path / "robot.json"
    cfg.write_text('{"delta_t_ms": 40, "joints": []}')
    done = run_script("explore_pendulum.py", "--config", str(cfg), code=2)
    assert done.stderr.splitlines() == ["error: robot: 'joints' must be a non-empty list"]
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


def bench_pairs_verdict():
    return runpy.run_path(os.path.join(ROOT, "scripts", "bench_pairs.py"))["verdict"]


def test_bench_pairs_flags_each_metric_worse_past_its_bound():
    past_bounds = runpy.run_path(os.path.join(ROOT, "scripts", "bench_pairs.py"))["past_bounds"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]
    base = {"setup_s": 0.1, "wall_s": 4.0, "op_p50_ms": 100.0, "op_tail_ms": 120.0,
            "peak_rss_mb": 40.0}
    # op_p50_ms 19% worse and op_tail_ms 25% worse sit within bounds of 20%
    # and 25%; wall_s 25% worse is past its 20%, peak_rss_mb 16% past its 15%;
    # setup_s, better by half, is no regression
    head = {"setup_s": 0.05, "wall_s": 5.0, "op_p50_ms": 119.0, "op_tail_ms": 150.0,
            "peak_rss_mb": 46.4}
    got = past_bounds(base, head, end_to_end)
    assert [(name, bound) for name, _, bound in got] == [("wall_s", 0.2), ("peak_rss_mb", 0.15)]
    assert [round(change, 6) for _, change, _ in got] == [0.25, 0.16]
    assert past_bounds(base, base, end_to_end) == []
    # a higher-is-better metric is worse when it falls; one the runs lack is skipped
    rate = [{"name": "ops_s", "better": "higher", "bound": 0.1},
            {"name": "absent", "better": "lower", "bound": 0.1}]
    assert [name for name, *_ in past_bounds({"ops_s": 10.0}, {"ops_s": 8.9}, rate)] == ["ops_s"]
    assert past_bounds({"ops_s": 10.0}, {"ops_s": 9.5}, rate) == []


def test_bench_pairs_calls_a_metric_spread_past_its_bound_unresolved():
    unresolved = runpy.run_path(os.path.join(ROOT, "scripts", "bench_pairs.py"))["unresolved"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]
    # setup_s: BASE's exclusive quartiles 0.08 and 0.13 are 0.05 apart, past
    # its 25% bound of the 0.1 median; op_p50_ms's 2 apart sit within 20% of 100
    base = {"setup_s": [0.08, 0.08, 0.1, 0.13, 0.13],
            "op_p50_ms": [99.0, 99.0, 100.0, 101.0, 101.0]}
    head = {"setup_s": [0.1] * 5, "op_p50_ms": [100.0] * 5}
    got = unresolved(base, head, end_to_end)
    assert [name for name, *_ in got] == ["setup_s"]
    assert [(round(iqr, 6), round(allowed, 6)) for _, iqr, allowed in got] == [(0.05, 0.025)]
    # unless every HEAD run is better than every BASE run
    assert unresolved(base, dict(head, setup_s=[0.07] * 5), end_to_end) == []
    # a higher-is-better metric is clear when every HEAD run is higher; one
    # the runs lack is skipped
    rate = [{"name": "ops_s", "better": "higher", "bound": 0.1},
            {"name": "absent", "better": "lower", "bound": 0.1}]
    spread = {"ops_s": [8.0, 8.0, 10.0, 12.0, 12.0]}
    assert [name for name, *_ in unresolved(spread, {"ops_s": [10.0] * 5}, rate)] == ["ops_s"]
    assert unresolved(spread, {"ops_s": [13.0] * 5}, rate) == []


def test_bench_pairs_counts_the_package_lines(tmp_path):
    script = runpy.run_path(os.path.join(ROOT, "scripts", "bench_pairs.py"))
    src_lines, changed_modules = script["src_lines"], script["changed_modules"]
    pkg = tmp_path / "src" / "dtraj"
    pkg.mkdir(parents=True)
    # a last line without a newline counts, as does an empty one; files
    # that are not Python, and Python outside the package, do not
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text("x = 1\n\ny = 2")
    (pkg / "b.py").write_text("z = 3\n")
    (pkg / "notes.txt").write_text("1\n2\n")
    (pkg / "__pycache__").mkdir()
    (tmp_path / "src" / "other.py").write_text("w = 4\n")
    base = src_lines(str(tmp_path))
    assert base == {"__init__.py": 0, "a.py": 3, "b.py": 1}
    # a file whose count moved, a new one and a gone one are named, in name
    # order, with both counts; a file whose count stayed is not
    (pkg / "a.py").write_text("x = 1\n")
    (pkg / "b.py").unlink()
    (pkg / "c.py").write_text("w = 5\nv = 6\n")
    assert changed_modules(base, src_lines(str(tmp_path))) == [
        ("a.py", 3, 1), ("b.py", 1, 0), ("c.py", 0, 2)]


def test_bench_pairs_verdict_shows_a_clear_gain():
    # ten alternated walks pairs, op_p50_ms: lower in 10/10, apart by 0.337
    base = [1.648, 1.787, 1.713, 1.637, 1.663, 1.583, 1.684, 1.766, 1.748, 1.780]
    head = [1.345, 1.341, 1.426, 1.376, 1.311, 1.264, 1.392, 1.344, 1.415, 1.403]
    v = bench_pairs_verdict()(base, head)
    assert (v.wins, v.pairs, v.shown) == (10, 10, True)
    assert math.isclose(v.base_median, 1.6985) and math.isclose(v.head_median, 1.3605)
    # exclusive quartiles 1.64525 and 1.7695
    assert math.isclose(v.base_iqr, 0.12425)


def test_bench_pairs_verdict_needs_nine_wins_in_ten_and_a_gap_past_the_spread():
    verdict = bench_pairs_verdict()
    base = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # 9 wins, and medians 14.5 and 5.0 apart by 9.5 against an interquartile range of 5.5
    nine = [5.0] * 9 + [20.0]
    assert verdict(base, nine)[:2] == (9, 10) and verdict(base, nine).shown
    # 8 wins, however far apart
    assert not verdict(base, [5.0] * 8 + [20.0] * 2).shown
    # 10 wins, but medians 14.5 and 10.0 are apart by less than 5.5
    assert not verdict(base, [b - 4.5 for b in base]).shown
    # a loss in every pair
    assert not verdict(base, [b + 1 for b in base]).shown
