"""The benchmark runs on a copy of the tree: short traced `walks`, `corridor` and `discover` runs.

`--trace 1` wraps every package function the benchmark names, so a run
fails here when one it reads is renamed or gone. A `discover` run also
replays every discovered transition with bench/reference.py's scalar
integrator and checks that repeated builds are byte-identical. The copy
keeps the run's results out of the checkout.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    for name in ("src", "bench", "configs"):
        shutil.copytree(os.path.join(ROOT, name), root / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    return root


@pytest.mark.parametrize("workload", ["walks", "corridor", "discover"])
def test_a_short_traced_run_is_correct(tree, workload):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", "1"],
        cwd=tree, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    if workload == "discover":
        # discovery replays static candidates through `dynamics.integrate_step`,
        # the name the tracer wraps; a name bound in discovery would count none
        assert result["metrics"]["dynamics.step_calls"]["value"] > 0
