"""The scripts in scripts/, run as subprocesses and checked against the library."""

import io
import json
import math
import os
import subprocess
import sys

from dtraj.lattice import scaling_table, write_scaling_csv
from dtraj.model import robot_from_dict
from dtraj.transitions import export_dot, find_transitions, write_jsonl
from conftest import CONFIG_PATH

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def run_script(name: str, *args: str) -> str:
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    done = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def demo_robot():
    with open(CONFIG_PATH) as fh:
        return robot_from_dict(json.load(fh))


def test_explore_pendulum_writes_the_library_bytes(tmp_path):
    jsonl, dot = tmp_path / "a.jsonl", tmp_path / "b.dot"
    out = run_script("explore_pendulum.py", "--jsonl", str(jsonl), "--dot", str(dot))
    assert "transitions       6353" in out
    table = find_transitions(demo_robot())
    buf = io.StringIO()
    write_jsonl(table, buf)
    assert jsonl.read_text() == buf.getvalue()
    assert dot.read_text() == export_dot(table)


def test_run_scaling_study_writes_the_library_csv(tmp_path):
    csv = tmp_path / "scaling.csv"
    out = run_script("run_scaling_study.py", "--max-steps", "20", "--out", str(csv))
    rows = scaling_table(demo_robot().joints[0], range(1, 7), 20, math.radians(20.0))
    buf = io.StringIO()
    write_scaling_csv(rows, buf)
    assert csv.read_text() == buf.getvalue()
    assert f"wrote {len(rows)} rows to {csv}" in out
    assert "n= 1:" in out and "n=go:" in out
