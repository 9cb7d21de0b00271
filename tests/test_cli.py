"""End-to-end command tests, in-process through main(); the import tests run
in child processes, so what a command loads is seen from a fresh interpreter."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
import warnings

import pytest

from dtraj.cli import build_parser, main
from dtraj.model import read_file
from dtraj.transitions import read_jsonl, state_label
from conftest import CONFIG_PATH, THREE_STATE_TABLE, TWO_JOINT, TWO_JOINT_TABLE, write_table
from test_trajectories import reference_enumerate

CFG = str(CONFIG_PATH)
DEMO_HASH = "sha256:67ff0fba73b6aa327c0264e4d189bfb9af931b1bef250787e58490c04d94372b"


@pytest.fixture(scope="module")
def table_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "transitions.jsonl"
    rc = main(["transitions", "--config", CFG, "--out", str(path)])
    assert rc == 0
    return path


def last_manifest(capsys):
    err = capsys.readouterr().err
    lines = [ln for ln in err.strip().splitlines() if ln.startswith("{")]
    return json.loads(lines[-1])


def refused_fast(capsys, argv, code=4) -> str:
    """Run argv, expecting `code` within 1 s, no output and one error line; returns it."""
    t0 = time.monotonic()
    rc = main(argv)
    assert rc == code
    assert time.monotonic() - t0 < 1.0
    out = capsys.readouterr()
    assert out.out == ""
    errors = [ln for ln in out.err.splitlines() if ln.startswith("error: ")]
    assert len(errors) == 1
    return errors[0]


def three_state_table(tmp_path, transitions=3) -> str:
    return write_table(tmp_path / "three.jsonl", THREE_STATE_TABLE[:1 + transitions])


def demo_config_with(tmp_path, **joint) -> str:
    """The demo config with the first joint's fields updated, as a file path."""
    with open(CFG) as fh:
        cfg = json.load(fh)
    cfg["joints"][0].update(joint)
    path = tmp_path / "robot.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# a thousandth of a degree per cell: 1e308 deg is past the float range in cells
FINE_CELLS = dict(q_min_deg=-1.0, q_max_deg=1.0, delta_q_deg=0.001)


class TestCorridorCommands:
    def test_closed_form(self, capsys):
        rc = main(["count", "corridor", "--d", "5", "--from", "2", "--to", "3",
                   "--steps", "4"])
        assert rc == 0
        assert capsys.readouterr().out == "16\n"

    def test_exact_oracle(self, capsys):
        rc = main(["count", "corridor", "--d", "5", "--from", "2", "--to", "3",
                   "--steps", "4", "--exact"])
        assert rc == 0
        assert capsys.readouterr().out == "16\n"

    def test_wall_start_is_domain_error(self, capsys):
        rc = main(["count", "corridor", "--d", "5", "--from", "0", "--to", "3",
                   "--steps", "4"])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("frm, to, steps, want", [
        # past 2^53, beyond float precision
        ("68", "68", "36", "12159131877715993"),
        # at and just past the reach limit, where the images cancel hardest
        ("1", "135", "134", "1"),
        ("1", "135", "140", "11525622990"),
    ])
    def test_closed_form_prints_exact_count(self, capsys, frm, to, steps, want):
        rc = main(["count", "corridor", "--d", "136", "--from", frm, "--to", to,
                   "--steps", steps])
        assert rc == 0
        assert capsys.readouterr().out == want + "\n"

    @pytest.mark.parametrize("argv, steps", [
        (["corridor", "--d", "136", "--from", "68", "--to", "78"], 10 ** 9),
        (["ndim", "--d", "136", "--from", "68", "--to", "78"], 60_000),
        # the step cap answers before the spectral price, which 60,000 steps also exceed
        (["ndim", "--d", "136", "--from", "68", "--to", "78", "--direct"], 60_000),
    ], ids=["corridor", "ndim", "ndim-direct"])
    def test_closed_form_step_cap(self, capsys, argv, steps):
        err = refused_fast(capsys, ["count"] + argv + ["--steps", str(steps)])
        assert f"m = {steps} steps, cap is 50000" in err

    def test_exact_oracle_step_budget(self, capsys):
        t0 = time.monotonic()
        rc = main(["count", "corridor", "--d", "5", "--from", "2", "--to", "3",
                   "--steps", "1000000000", "--exact"])
        assert rc == 4
        assert time.monotonic() - t0 < 1.0
        assert "DP over 4 cells x 3 moves x 1000000000 steps exceeds the work budget" in (
            capsys.readouterr().err)

    def test_exact_oracle_work_budget(self, capsys):
        # four cells, but its counts grow to 10^6 * log2(3) bits
        err = refused_fast(capsys, ["count", "corridor", "--d", "5", "--from", "2", "--to", "2",
                                    "--steps", "1000000", "--exact"])
        assert "DP over 4 cells x 3 moves x 1000000 steps exceeds the work budget" in err

    def test_exact_oracle_budget_edge(self, capsys):
        # one step past the most the budget admits at d = 5 (test_exit_codes
        # runs those 39,287 steps within its time cap)
        err = refused_fast(capsys, ["count", "corridor", "--d", "5", "--from", "2", "--to", "2",
                                    "--steps", "39288", "--exact"])
        assert "DP over 4 cells x 3 moves x 39288 steps exceeds the work budget" in err

    @pytest.mark.parametrize("argv", [
        ["corridor", "--d", "136", "--from", "1", "--to", "135", "--steps", "40"],
        ["corridor", "--d", "136", "--from", "1", "--to", "135", "--steps", "40", "--exact"],
        ["ndim", "--d", "136", "--from", "1", "--to", "135", "--steps", "40"],
        ["ndim", "--d", "136", "--from", "1", "--to", "135", "--steps", "40", "--direct"],
    ])
    def test_beyond_reach_prints_zero(self, capsys, argv):
        # a walk moves at most one cell per step, so 134 cells need 134 steps
        rc = main(["count"] + argv)
        assert rc == 0
        assert capsys.readouterr().out == "0\n"

    def test_cross_check_disagreement_exits_5(self, capsys, monkeypatch):
        import dtraj.lattice as lattice
        monkeypatch.setattr(lattice, "_images_count", lambda *args: 1)
        rc = main(["count", "ndim", "--d", "6,6", "--from", "2,3", "--to", "3,3",
                   "--steps", "5", "--direct"])
        assert rc == 5
        err = capsys.readouterr().err
        assert "error: direct and factorized corridor counts disagree" in err
        manifest = json.loads([ln for ln in err.splitlines() if ln.startswith("{")][-1])
        assert manifest["subcommand"] == "count ndim"

    def test_direct_sum_past_float_range_is_exact(self, capsys):
        # kern ** 1000 overflowed float64; the integer sum is exact, with no
        # warning
        argv = ["count", "ndim", "--d", "136", "--from", "68", "--to", "68", "--steps", "1000"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--direct"]) == 0
        direct = capsys.readouterr().out
        assert main(argv) == 0
        assert direct == capsys.readouterr().out
        assert direct.endswith("e+475\n")

    def test_direct_price_edge(self, capsys):
        # one step past the most the spectral price admits over 136^3
        # (test_exit_codes runs those 5,796 steps within its time cap)
        err = refused_fast(capsys, ["count", "ndim", "--d", "136,136,136", "--from", "68,68,68",
                                    "--to", "88,58,108", "--steps", "5797", "--direct"])
        assert "spectral sum over walls (136, 136, 136) at 5797 steps exceeds the work cap" in err

    def test_unknown_move_set(self, capsys):
        rc = main(["count", "corridor", "--d", "5", "--from", "2", "--to", "3",
                   "--steps", "4", "--move-set", "diag"])
        assert rc == 2

    def test_ndim_fast_equals_direct(self, capsys):
        rc = main(["count", "ndim", "--d", "6,6", "--from", "2,3", "--to", "3,3",
                   "--steps", "5"])
        assert rc == 0
        fast = capsys.readouterr().out
        rc = main(["count", "ndim", "--d", "6,6", "--from", "2,3", "--to", "3,3",
                   "--steps", "5", "--direct"])
        assert rc == 0
        assert capsys.readouterr().out == fast == "2244\n"

    def test_direct_any_dimension(self, capsys):
        argv = ["count", "ndim", "--d", "3,3,3,3", "--from", "1,1,1,1", "--to", "1,1,1,1",
                "--steps", "4"]
        assert main(argv + ["--direct"]) == 0
        assert capsys.readouterr().out == "4096\n"
        assert main(argv) == 0
        assert capsys.readouterr().out == "4096\n"

    def test_bounds_output(self, capsys):
        rc = main(["count", "bounds", "--config", CFG, "--steps", "50"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["states 945", "actions 5", "upper_bound 8.39329e+37"]

    @pytest.mark.parametrize("steps", ["286132", "10000000", str(10 ** 400)])
    def test_bounds_digit_cap_refused_before_any_work(self, capsys, steps):
        t0 = time.monotonic()
        rc = main(["count", "bounds", "--config", CFG, "--steps", steps])
        assert rc == 4
        assert time.monotonic() - t0 < 1.0
        out = capsys.readouterr()
        assert out.out == ""
        assert "more than 200000 digits" in out.err


class TestScalingCommand:
    def test_csv_shape_and_rows(self, capsys, tmp_path):
        out = tmp_path / "scaling.csv"
        rc = main(["count", "scaling", "--config", CFG, "--dof", "1-3,6",
                   "--steps", "1-12", "--separation-deg", "20",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,m,log10_count,method"
        assert lines[-1] == "atoms,*,80.000000,reference"
        assert "6,10,0.000000,exact" in lines
        assert "1,1,,exact" in lines           # below the minimum step count
        assert "go,1,2.557507,reference" in lines
        # header + 4 dof columns x 12 steps + go x 12 + atoms
        assert len(lines) == 1 + 4 * 12 + 12 + 1

    def test_step_cap_refused_before_any_work(self, capsys):
        t0 = time.monotonic()
        rc = main(["count", "scaling", "--config", CFG, "--dof", "1-6",
                   "--steps", "1-50001", "--separation-deg", "20"])
        assert rc == 4
        assert time.monotonic() - t0 < 1.0
        out = capsys.readouterr()
        assert out.out == ""
        assert "walk vector over 135 cells x 50001 steps exceeds the work budget" in out.err

    def test_walk_vector_work_budget(self, capsys):
        # inside the step cap, but 50,000 steps of 135 cells of growing counts
        err = refused_fast(capsys, ["count", "scaling", "--config", CFG, "--dof", "1",
                                    "--steps", "1-50000", "--separation-deg", "20"])
        assert "walk vector over 135 cells x 50000 steps exceeds the work budget" in err

    def test_estimate_columns_have_no_step_cap(self, capsys):
        rc = main(["count", "scaling", "--config", CFG, "--dof", "6",
                   "--steps", "1-50001", "--separation-deg", "20"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[50001].startswith("6,50001,") and lines[50001].endswith(",approx")

    @pytest.mark.parametrize("separation", ["nan", "inf", "-inf"])
    def test_separation_not_finite_is_domain_error(self, capsys, separation):
        rc = main(["count", "scaling", "--config", CFG, "--dof", "1", "--steps", "1-3",
                   f"--separation-deg={separation}"])
        assert rc == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert "separation must be finite" in out.err

    @pytest.mark.parametrize("dof, steps", [
        ("1-1000000000", "1-20"), ("1-20", "1-1000000000"), ("1000000000", "1-20"),
        ("1-13000", "1-20"), ("4", "1-400001"),
    ])
    def test_oversized_table_refused_before_any_work(self, capsys, dof, steps):
        t0 = time.monotonic()
        rc = main(["count", "scaling", "--config", CFG, "--dof", dof, "--steps", steps,
                   "--separation-deg", "20"])
        assert rc == 4
        assert time.monotonic() - t0 < 1.0
        out = capsys.readouterr()
        assert out.out == ""
        assert "more than the table's cap of 400000 rows" in out.err

    def test_estimate_rows_equal_the_estimate(self, capsys):
        from dtraj.lattice import approx_count_log10

        rc = main(["count", "scaling", "--config", CFG, "--dof", "4,5,37,1000",
                   "--steps", "1-20", "--separation-deg", "20"])
        assert rc == 0
        rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()]
        approx = [(int(n), int(m), val) for n, m, val, method in rows if method == "approx"]
        assert len(approx) == 4 * 10
        for n, m, val in approx:
            assert val == f"{approx_count_log10([3] * n, m, n):.6f}"

    @pytest.mark.parametrize("separation", ["1e308", "-1e308"])
    def test_separation_past_the_float_range_in_cells(self, capsys, tmp_path, separation):
        err = refused_fast(capsys, ["count", "scaling", "--config",
                                    demo_config_with(tmp_path, **FINE_CELLS), "--dof", "1",
                                    "--steps", "1-3", f"--separation-deg={separation}"], code=3)
        assert err.startswith("error: separation must be finite")

    def test_a_config_of_several_joints_is_refused(self, capsys, tmp_path):
        path = tmp_path / "two_joint.json"
        path.write_text(json.dumps(TWO_JOINT))
        # the row cap would refuse this --dof (exit 4) if it were read first
        err = refused_fast(capsys, ["count", "scaling", "--config", str(path), "--dof",
                                    "1-1000000000", "--steps", "1-20",
                                    "--separation-deg", "20"], code=2)
        assert err == "error: count scaling reads a one-joint config; this one has 2 joints"

    def test_steps_must_start_at_one(self, capsys):
        rc = main(["count", "scaling", "--config", CFG, "--dof", "1",
                   "--steps", "5-10", "--separation-deg", "20"])
        assert rc == 2

    @pytest.mark.parametrize("steps, whole", [("1-5,6-10", "1-10"), ("1,2,3", "1-3")])
    def test_steps_in_adjoining_ranges(self, capsys, steps, whole):
        def table(steps):
            assert main(["count", "scaling", "--config", CFG, "--dof", "1",
                         "--steps", steps, "--separation-deg", "2"]) == 0
            return capsys.readouterr().out

        assert table(steps) == table(whole)

    @pytest.mark.parametrize("steps", ["1-5,7-10", "1-3,3-5", "2-5"])
    def test_steps_with_a_gap_overlap_or_late_start(self, capsys, steps):
        err = refused_fast(capsys, ["count", "scaling", "--config", CFG, "--dof", "1",
                                    "--steps", steps, "--separation-deg", "20"], code=2)
        assert err == "error: --steps must be a contiguous range starting at 1, e.g. 1-100"


class TestTransitionsCommand:
    def test_jsonl_header(self, table_file):
        first = table_file.read_text().splitlines()[0]
        head = json.loads(first)
        assert head["format"] == "dtraj-transitions"
        assert head["version"] == 1
        assert head["robot_hash"].startswith("sha256:")

    def test_reruns_byte_identical(self, table_file, tmp_path):
        again = tmp_path / "again.jsonl"
        rc = main(["transitions", "--config", CFG, "--out", str(again)])
        assert rc == 0
        assert again.read_bytes() == table_file.read_bytes()

    def test_dot_export(self, tmp_path):
        dot = tmp_path / "map.dot"
        out = tmp_path / "t.jsonl"
        rc = main(["transitions", "--config", CFG, "--nal", "2",
                   "--out", str(out), "--dot", str(dot)])
        assert rc == 0
        text = dot.read_text()
        assert text.startswith("digraph transitions {")
        assert text.rstrip().endswith("}")

    def test_dot_is_streamed_line_by_line(self, tmp_path, monkeypatch):
        # `--dot` hands the DOT to its file one line at a time, never joined:
        # the lines are export_dot's text, and each write is one of them
        import dtraj.cli as cli
        from dtraj.discovery import find_transitions
        from dtraj.model import load_robot
        from dtraj.transitions import export_dot

        writes = []

        class Lines:
            def write(self, text):
                writes.append(text)

            def writelines(self, lines):
                for line in lines:
                    self.write(line)

        dot = str(tmp_path / "map.dot")
        real = cli._write_output
        monkeypatch.setattr(cli, "_write_output", lambda path, emit: (
            emit(Lines()) if path == dot else real(path, emit)))
        rc = main(["transitions", "--config", CFG, "--out", str(tmp_path / "t.jsonl"),
                   "--dot", dot])
        assert rc == 0
        table = find_transitions(load_robot(CFG))
        assert "".join(writes) == export_dot(table)
        assert len(writes) == 2 + len(table.states) + len(table)
        assert all(w.count("\n") == 1 and w.endswith("\n") for w in writes)

    def test_budget_exit_code(self, capsys, tmp_path):
        rc = main(["transitions", "--config", CFG, "--max-sequences", "50",
                   "--out", str(tmp_path / "x.jsonl")])
        assert rc == 4
        assert not (tmp_path / "x.jsonl").exists()

    def test_overflow_exit_code(self, capsys, tmp_path):
        with open(CFG) as fh:
            cfg = json.load(fh)
        cfg["joints"][0]["mass_kg"] = 1e-308
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "t.jsonl"
        rc = main(["transitions", "--config", str(path), "--out", str(out)])
        assert rc == 5
        assert not out.exists()
        err = capsys.readouterr().err
        assert "non-finite" in err and "RuntimeWarning" not in err

    def test_negative_start_as_separate_argument(self, capsys, tmp_path):
        texts = []
        for k, start in enumerate((["--start", "-3,0"], ["--start=-3,0"])):
            out = tmp_path / f"t{k}.jsonl"
            assert main(["transitions", "--config", CFG, "--out", str(out)] + start) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]
        assert '{"from": {"pos": [-3], "vel": [0]}' in texts[0].splitlines()[1]

    @pytest.mark.parametrize("pos", ["1" + "0" * 400, "99999999999999999999999"],
                             ids=["10^400", "10^23-1"])
    def test_start_past_the_float_range(self, capsys, pos):
        err = refused_fast(capsys, ["transitions", "--config", CFG, "--start", f"{pos},0"],
                           code=3)
        assert err == f"error: joint joint1: position grid point {pos} outside limits"

    def test_grid_too_fine_for_floats(self, capsys, tmp_path):
        # 135 deg is 1.35e21 cells of 1e-19 deg: no numpy warning, no search
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = refused_fast(capsys, ["transitions", "--config",
                                        demo_config_with(tmp_path, delta_q_deg=1e-19)], code=3)
        assert err == "error: joint joint1: a limit is too many cells from 0"

    def test_a_start_without_transitions_is_kept(self, capsys, tmp_path):
        # every action from (67, 3) leaves the limits: the table is the start alone
        path = str(tmp_path / "lone.jsonl")
        assert main(["transitions", "--config", CFG, "--start", "67,3", "--out", path]) == 0
        for start in (["--start", "67,3"], []):
            assert main(["enumerate", "--transitions", path, "--steps", "0", *start]) == 0
            assert capsys.readouterr().out == "67,3\n"

    def test_bad_start_state(self, capsys):
        rc = main(["transitions", "--config", CFG, "--start", "zero"])
        assert rc == 2

    def test_a_start_index_must_be_an_integer(self, capsys):
        err = refused_fast(capsys, ["transitions", "--config", CFG, "--start", "a,0"], code=2)
        assert err == "error: state indices must be integers (got 'a,0')"

    def test_unwritable_out_leaves_no_partial(self, capsys, tmp_path):
        target = tmp_path / "no-such-dir" / "t.jsonl"
        rc = main(["transitions", "--config", CFG, "--out", str(target)])
        assert rc == 2
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []


class TestEnumerateCommand:
    @pytest.mark.parametrize("steps", ["1728", "1735", str(2 ** 63)])
    def test_count_work_cap_refused_before_any_work(self, capsys, table_file, steps):
        # 1,727 hops is the most the demo table's counts fit in the work budget
        t0 = time.monotonic()
        rc = main(["enumerate", "--transitions", str(table_file), "--steps", steps,
                   "--count-only"])
        assert rc == 4
        assert time.monotonic() - t0 < 2.0
        out = capsys.readouterr()
        assert out.out == ""
        assert "exceeds the work budget of 2000000000 edge-hop words" in out.err

    def test_listing_refused_with_the_count_only_line(self, capsys, table_file):
        errs = []
        for extra in (["--count-only"], ["--start=0,0"], []):
            errs.append(refused_fast(capsys, ["enumerate", "--transitions", str(table_file),
                                              "--steps", "1728", *extra]))
        assert errs[0] == errs[1] == errs[2]
        assert errs[0].startswith("error: counting 1728-hop walks over 6353 transitions exceeds")

    def test_count_work_prices_each_hop(self, capsys, tmp_path):
        # three transitions and counts of one word, but ten million hops
        err = refused_fast(capsys, ["enumerate", "--transitions", three_state_table(tmp_path),
                                    "--steps", "10000000", "--count-only"])
        assert "counting 10000000-hop walks over 3 transitions exceeds" in err

    def test_start_on_a_table_without_states(self, capsys, tmp_path):
        err = refused_fast(capsys, ["enumerate", "--transitions",
                                    three_state_table(tmp_path, transitions=0),
                                    "--steps", "2", "--start", "0,0"], code=3)
        assert "not in table" in err

    def test_refused_count_past_the_digit_limit(self, capsys, tmp_path):
        # ten self-loops at one state: 10^5000 walks of 5,000 hops, a number
        # of more digits than Python writes as decimal text
        loops = [{"from": {"pos": [0], "vel": [0]}, "torque_idx_seq": [[k]], "duration_s": 0.04,
                  "to": {"pos": [0], "vel": [0]}} for k in range(10)]
        path = write_table(tmp_path / "loops.jsonl", THREE_STATE_TABLE[:1] + loops)
        err = refused_fast(capsys, ["enumerate", "--transitions", path, "--steps", "5000"])
        assert err == "error: enumeration would yield 1.00000e+5000 trajectories, budget is 10000000"

    def test_count_only_from_origin(self, capsys, table_file):
        rc = main(["enumerate", "--transitions", str(table_file),
                   "--steps", "2", "--start", "0,0", "--count-only"])
        assert rc == 0
        assert capsys.readouterr().out == "0,0\t551\n"

    def test_walk_listing(self, capsys, table_file):
        rc = main(["enumerate", "--transitions", str(table_file),
                   "--steps", "1", "--start", "0,0"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 101
        assert all(ln.startswith("0,0\t") for ln in lines)

    # sha256 of the stdout as literals: the expected text is built from the
    # reference enumerator and state_label, so only a literal sees a change
    # that moves both sides
    LISTINGS = {
        "3 hops from 0,0": (3, "0,0",
                            "b5cf6944b6307a55d20bb143903040267468ebacc96f815f1990c51e5a00defe"),
        "1 hop from every state": (1, None,
                                   "b084eef5ba78147446ae0d6d7602170683b2c269f5556f3f82f1ae3874692263"),
        "0 hops from every state": (0, None,
                                    "bcf22de6af78733f7f23f5adde9177c83df296b6313e64be603c4a089630c922"),
    }

    @pytest.mark.parametrize("case", sorted(LISTINGS))
    def test_listing_bytes(self, capsys, table_file, case):
        steps, start, digest = self.LISTINGS[case]
        argv = ["enumerate", "--transitions", str(table_file), "--steps", str(steps)]
        assert main(argv + ([f"--start={start}"] if start else [])) == 0
        out = capsys.readouterr().out
        table = read_file(str(table_file), read_jsonl)
        starts = [s for s in table.states if start in (None, state_label(s))]
        walks = reference_enumerate(table, starts, steps)
        # compared as lists, whose first difference pytest reports without a full diff
        want = ["\t".join(state_label(s) for s in w.states()) for w in walks]
        assert out.split("\n") == want + [""]
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_budget_exit(self, capsys, table_file):
        rc = main(["enumerate", "--transitions", str(table_file),
                   "--steps", "3", "--budget", "1000"])
        assert rc == 4

    @pytest.mark.parametrize("budget", ["0", "1000", "10000000"])
    def test_budget_with_count_only_is_a_usage_error(self, capsys, table_file, budget):
        # --count-only lists no walks, so a walk budget beside it would be ignored
        rc = main(["enumerate", "--transitions", str(table_file), "--steps", "2",
                   "--budget", budget, "--count-only"])
        assert rc == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "argument --count-only: not allowed with argument --budget" in out.err

    def test_negative_start_as_separate_argument(self, capsys, table_file):
        outs = []
        for start in (["--start", "-3,0"], ["--start=-3,0"]):
            rc = main(["enumerate", "--transitions", str(table_file), "--steps", "2"] + start)
            assert rc == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert outs[0].startswith("-3,0\t")

    def test_malformed_table_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"format":"dtraj-transitions","version":1,"robot_hash":""}\n'
            '{"from":{"pos":[1],"vel":[2,0]},"torque_idx_seq":[],"duration_s":NaN,'
            '"to":{"pos":[1],"vel":[2,0]}}\n'
        )
        rc = main(["enumerate", "--transitions", str(path), "--steps", "1", "--count-only"])
        assert rc == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "line 2" in out.err

    def test_inconsistent_duration_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"format":"dtraj-transitions","version":1,"robot_hash":""}\n'
            '{"from":{"pos":[0],"vel":[0]},"torque_idx_seq":[[2]],"duration_s":0.04,'
            '"to":{"pos":[1],"vel":[0]}}\n'
            '{"from":{"pos":[1],"vel":[0]},"torque_idx_seq":[[2],[2]],"duration_s":0.04,'
            '"to":{"pos":[0],"vel":[0]}}\n'
        )
        rc = main(["enumerate", "--transitions", str(path), "--steps", "1", "--count-only"])
        assert rc == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "line 3" in out.err and "duration_s" in out.err

    def test_missing_file(self, capsys):
        rc = main(["enumerate", "--transitions", "/no/such/file.jsonl",
                   "--steps", "1"])
        assert rc == 2


class TestPlanCommand:
    def test_ramp_end_to_end(self, capsys, table_file, tmp_path):
        desired = tmp_path / "desired.csv"
        rows = ["t_s,q1_deg"] + [f"{k * 0.04},{2 * k}" for k in range(6)]
        desired.write_text("\n".join(rows) + "\n")
        out = tmp_path / "plan.json"
        rc = main(["plan", "--transitions", str(table_file), "--config", CFG,
                   "--desired", str(desired), "--out", str(out)])
        assert rc == 0
        plan = json.loads(out.read_text())
        assert plan["final_state"]["pos"] == [5]
        assert plan["miss_deg"] == [0.0]
        assert "warnings" not in plan
        assert len(plan["sequences"]) == 5

    def test_hash_mismatch_warns(self, capsys, table_file, tmp_path):
        lines = table_file.read_text().splitlines(keepends=True)
        head = json.loads(lines[0])
        head["robot_hash"] = "sha256:" + "0" * 64
        doctored = tmp_path / "doctored.jsonl"
        doctored.write_text(json.dumps(head) + "\n" + "".join(lines[1:]))
        desired = tmp_path / "d.csv"
        desired.write_text("t_s,q1_deg\n0,0\n")
        rc = main(["plan", "--transitions", str(doctored), "--config", CFG,
                   "--desired", str(desired)])
        assert rc == 0
        assert "different robot config" in capsys.readouterr().err


    def test_torque_outside_menu_is_config_error(self, capsys, table_file, tmp_path):
        # every torque index set to 9, where the demo menu has 5 torques
        lines = table_file.read_text().splitlines(keepends=True)
        bad = tmp_path / "bad.jsonl"
        with bad.open("w") as fh:
            fh.write(lines[0])
            for line in lines[1:]:
                obj = json.loads(line)
                obj["torque_idx_seq"] = [[9] for _ in obj["torque_idx_seq"]]
                fh.write(json.dumps(obj) + "\n")
        desired = tmp_path / "d.csv"
        desired.write_text("t_s,q1_deg\n" + "".join(f"{k * 0.04},{2 * k}\n" for k in range(6)))
        rc = main(["plan", "--transitions", str(bad), "--config", CFG,
                   "--desired", str(desired)])
        assert rc == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "error: joint joint1: torque index 9 is outside its menu of 5 torques" in out.err

    @pytest.mark.parametrize(("table", "joints"), [(TWO_JOINT_TABLE, 1), (THREE_STATE_TABLE, 2)],
                             ids=["two-joint-table", "two-joint-config"])
    def test_joint_counts_of_table_and_config_differ(self, capsys, tmp_path, table, joints):
        # refused as such, not as a start state missing from the table (exit 3)
        config = CFG
        if joints == 2:
            config = tmp_path / "two_joint.json"
            config.write_text(json.dumps(TWO_JOINT))
        desired = tmp_path / "d.csv"
        desired.write_text("t_s" + "".join(f",q{k}_deg" for k in range(1, joints + 1))
                           + "\n0" + ",0" * joints + "\n")
        path = write_table(tmp_path / "t.jsonl", table)
        err = refused_fast(capsys, ["plan", "--transitions", path, "--config", str(config),
                                    "--desired", str(desired)], code=2)
        assert err == (f"error: the transition table's joint count {3 - joints} is not "
                       f"the robot config's {joints}")

    @pytest.mark.parametrize("times, code", [
        ("0,1e-6,2e-6", 0), ("0,2e-6", 3), ("0,0.5e-6", 3), ("0,2e-6,2.5e-6", 3),
    ])
    def test_waypoints_on_microsecond_ticks(self, capsys, tmp_path, times, code):
        # the tick rule is a millionth of a tick: an absolute 1 us would put a
        # waypoint 1 us from its tick on the wrong one
        with open(CFG) as fh:
            cfg = dict(json.load(fh), delta_t_ms=0.001)
        config = tmp_path / "robot.json"
        config.write_text(json.dumps(cfg))
        t = times.split(",")
        desired = tmp_path / "d.csv"
        desired.write_text("t_s,q1_deg\n0,0\n" + "".join(f"{x},2\n" for x in t[1:]))
        rc = main(["plan", "--transitions", three_state_table(tmp_path), "--config", str(config),
                   "--desired", str(desired)])
        assert rc == code
        if code:
            assert capsys.readouterr().err.splitlines()[0] == (
                f"error: waypoint 1 at t={float(t[1])}, expected consecutive ticks of 1e-06")

    @pytest.mark.parametrize("angle, k", [("1e308", "inf"), ("-1e308", "-inf")])
    def test_start_past_the_float_range_in_cells(self, capsys, tmp_path, angle, k):
        desired = tmp_path / "d.csv"
        desired.write_text(f"t_s,q1_deg\n0,{angle}\n0.04,0\n")
        err = refused_fast(capsys, ["plan", "--transitions", three_state_table(tmp_path),
                                    "--config", demo_config_with(tmp_path, **FINE_CELLS),
                                    "--desired", str(desired)], code=3)
        assert err == f"error: joint joint1: position grid point {k} outside limits"

    @pytest.mark.parametrize("field", ["t_s", "q1_deg"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_value_not_finite_is_config_error(self, capsys, tmp_path, field, value):
        rows = [["0", "0"], ["0.04", "2"], ["0.08", "2"]]
        rows[1][["t_s", "q1_deg"].index(field)] = value
        desired = tmp_path / "d.csv"
        desired.write_text("t_s,q1_deg\n" + "".join(",".join(r) + "\n" for r in rows))
        err = refused_fast(capsys, ["plan", "--transitions", three_state_table(tmp_path),
                                    "--config", CFG, "--desired", str(desired)], code=2)
        assert err == "error: line 3: t_s and every angle must be finite"

    def test_field_past_the_csv_limit_is_config_error(self, capsys, tmp_path):
        desired = tmp_path / "d.csv"
        desired.write_text("t_s,q1_deg\n0," + "1" * 140_000 + "\n")
        err = refused_fast(capsys, ["plan", "--transitions", three_state_table(tmp_path),
                                    "--config", CFG, "--desired", str(desired)], code=2)
        assert err == "error: line 2: field larger than field limit (131072)"


class TestInputEncoding:
    HEADER = json.dumps(THREE_STATE_TABLE[0]).encode() + b"\n"

    @pytest.mark.parametrize("which", ["table", "table line 2", "config", "desired"])
    def test_non_utf8_input_is_one_error_line(self, capsys, tmp_path, which):
        # every input file is read as UTF-8; one that is not is named, with
        # the byte's position in the file
        bad = tmp_path / "bad"
        at = len(self.HEADER) if which == "table line 2" else 0
        bad.write_bytes(self.HEADER[:at] + b"\xff\n")
        argv = {
            "table": ["enumerate", "--transitions", str(bad), "--steps", "1"],
            "config": ["count", "bounds", "--config", str(bad), "--steps", "1"],
            "desired": ["plan", "--transitions", three_state_table(tmp_path), "--config", CFG,
                        "--desired", str(bad)],
        }[which.split()[0]]
        name = f"robot config {str(bad)!r}" if which == "config" else str(bad)
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        error, manifest = out.err.splitlines()
        assert error == (f"error: cannot read {name}: 'utf-8' codec can't decode byte 0xff "
                         f"in position {at}: invalid start byte")
        assert json.loads(manifest)["subcommand"] == " ".join(argv[:2 if argv[0] == "count" else 1])


class TestHarness:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_workers_flag_removed(self, capsys):
        assert main(["count", "ndim", "--d", "6,6", "--from", "2,3", "--to", "3,3",
                     "--steps", "5", "--workers", "2"]) == 2

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip() == "0.1.0"

    def test_manifest_shape(self, capsys):
        rc = main(["count", "bounds", "--config", CFG, "--steps", "10"])
        assert rc == 0
        m = last_manifest(capsys)
        assert m["tool_version"] == "0.1.0"
        assert m["subcommand"] == "count bounds"
        assert m["config_hash"].startswith("sha256:")
        assert m["flags"]["steps"] == 10
        assert m["duration_s"] >= 0

    def test_manifest_stable_across_runs(self, capsys):
        argv = ["count", "corridor", "--d", "5", "--from", "2", "--to", "3",
                "--steps", "4"]
        main(argv)
        a = last_manifest(capsys)
        main(argv)
        b = last_manifest(capsys)
        a.pop("duration_s"), b.pop("duration_s")
        assert a == b
        assert a["config_hash"] is None

    def test_manifest_emitted_on_failure(self, capsys):
        rc = main(["count", "corridor", "--d", "5", "--from", "0", "--to", "3",
                   "--steps", "4"])
        assert rc == 3
        m = last_manifest(capsys)
        assert m["subcommand"] == "count corridor"

    @pytest.mark.parametrize("argv, config_hash", [
        (["transitions", "--config", CFG, "--dedup", "shortest"], DEMO_HASH),
        (["enumerate", "--transitions", "TABLE", "--steps", "2", "--count-only"], None),
        (["plan", "--transitions", "TABLE", "--config", CFG, "--desired", "DESIRED"], DEMO_HASH),
        (["count", "corridor", "--d", "5", "--from", "2", "--to", "3", "--steps", "4"], None),
        (["count", "ndim", "--d", "6,6", "--from", "2,3", "--to", "3,3", "--steps", "5"], None),
        (["count", "bounds", "--config", CFG, "--steps", "10"], DEMO_HASH),
        (["count", "scaling", "--config", CFG, "--dof", "1-2", "--steps", "1-5",
          "--separation-deg", "20"], DEMO_HASH),
    ], ids=["transitions", "enumerate", "plan", "corridor", "ndim", "bounds", "scaling"])
    def test_manifest_of_every_subcommand(self, capsys, table_file, desired_file, argv,
                                          config_hash):
        files = {"TABLE": str(table_file), "DESIRED": str(desired_file)}
        argv = [files.get(a, a) for a in argv]
        assert main(argv) == 0
        m = last_manifest(capsys)
        assert m["config_hash"] == config_hash
        assert m["subcommand"] == " ".join(argv[:2] if argv[0] == "count" else argv[:1])
        # the flags are the parser's destinations only: no input read for the
        # handler leaks into them
        parsed = vars(build_parser().parse_args(argv))
        assert m["flags"] == {k: v for k, v in parsed.items() if k != "func"}

    def test_config_is_read_before_the_table(self, capsys, tmp_path):
        missing = str(tmp_path / "missing")
        rc = main(["plan", "--transitions", missing + ".jsonl", "--config", missing + ".json",
                   "--desired", missing + ".csv"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()[0]
        assert err.startswith(f"error: cannot read robot config {missing + '.json'!r}")

    def test_table_is_read_before_the_start(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.jsonl")
        rc = main(["enumerate", "--transitions", missing, "--steps", "2", "--start", "x"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()[0]
        assert err.startswith(f"error: cannot read {missing}: ")

    def test_manifest_keys_sorted(self, capsys):
        main(["count", "corridor", "--d", "5", "--from", "2", "--to", "3",
              "--steps", "4"])
        err = capsys.readouterr().err
        line = [ln for ln in err.strip().splitlines() if ln.startswith("{")][-1]
        obj = json.loads(line)
        assert line == json.dumps(obj, sort_keys=True)


# ---------------------------------------------------------------------------
# what a command loads


SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

# `python -m dtraj.cli ARGS` that reports the modules it loaded as the last
# line of stderr, after the manifest
RUN_CLI = (
    "import atexit, json, runpy, sys\n"
    "atexit.register(lambda: print(json.dumps(sorted(sys.modules)), file=sys.stderr))\n"
    "runpy.run_module('dtraj.cli', run_name='__main__', alter_sys=True)\n"
)


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC if not path else SRC + os.pathsep + path)


def run_child(code: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *argv], env=child_env(),
                          capture_output=True, text=True, timeout=120)


def cli_modules(*argv: str) -> set[str]:
    done = run_child(RUN_CLI, *argv)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stderr.splitlines()[-1]))


def dtraj_modules(loaded: set[str]) -> set[str]:
    return {m for m in loaded if m == "dtraj" or m.startswith("dtraj.")}


@pytest.fixture(scope="module")
def desired_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "desired.csv"
    path.write_text("t_s,q1_deg\n" + "".join(f"{k * 0.04},{2 * k}\n" for k in range(6)))
    return path


class TestImports:
    @pytest.mark.parametrize("argv", [
        ["count", "corridor", "--d", "5", "--from", "2", "--to", "3", "--steps", "4"],
        ["count", "corridor", "--d", "5", "--from", "2", "--to", "3", "--steps", "4", "--exact"],
        ["count", "ndim", "--d", "6,6", "--from", "2,3", "--to", "3,3", "--steps", "5"],
        ["count", "ndim", "--d", "6,6", "--from", "2,3", "--to", "3,3", "--steps", "5", "--direct"],
        ["count", "bounds", "--config", CFG, "--steps", "50"],
        ["count", "scaling", "--config", CFG, "--dof", "1-6", "--steps", "1-20",
         "--separation-deg", "20"],
        ["--version"],
        ["--help"],
    ], ids=["corridor", "exact", "ndim", "direct", "bounds", "scaling", "version", "help"])
    def test_command_does_not_load_numpy(self, argv):
        loaded = cli_modules(*argv)
        assert "numpy" not in loaded
        assert "fractions" not in loaded
        if "--exact" in argv:
            # the DP oracle packs its counts into one Python integer, in its
            # layer only; the CLI itself runs as __main__
            assert dtraj_modules(loaded) == {"dtraj", "dtraj.errors", "dtraj.lattice",
                                             "dtraj.model"}

    @pytest.mark.parametrize("argv", [
        ["count", "corridor", "--d", "5", "--from", "2", "--to", "3", "--steps", "4"],
        ["count", "ndim", "--d", "6,6", "--from", "2,3", "--to", "3,3", "--steps", "5", "--direct"],
    ], ids=["corridor", "direct"])
    def test_small_counts_load_neither_hashlib_nor_decimal(self, argv):
        # hashlib serves only the config hash, decimal only counts above 1e18
        loaded = cli_modules(*argv)
        assert "hashlib" not in loaded
        assert "decimal" not in loaded

    def test_count_corridor_loads_no_dataclasses(self):
        # records are named tuples: neither dataclasses nor the inspect module
        # it loads is on any command's import path, directly or not
        code = (
            "import json, sys\n"
            "from dtraj.cli import main\n"
            "main(['count', 'corridor', '--d', '5', '--from', '2', '--to', '3', '--steps', '4'])\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
        done = run_child(code)
        out = done.stdout.splitlines()
        assert out[0] == "16"
        loaded = set(json.loads(out[-1]))
        assert "dataclasses" not in loaded
        assert "inspect" not in loaded

    def test_plan_does_not_load_numpy(self, table_file, desired_file):
        loaded = cli_modules("plan", "--transitions", str(table_file), "--config", CFG,
                             "--desired", str(desired_file))
        assert "numpy" not in loaded
        # the table module loads neither discovery nor the dynamics
        assert dtraj_modules(loaded) == {"dtraj", "dtraj.errors", "dtraj.model",
                                         "dtraj.trajectories", "dtraj.transitions"}

    @pytest.mark.parametrize("start", [["--start=0,0"], []], ids=["start", "all"])
    def test_walk_listing_does_not_load_numpy(self, table_file, start):
        # its budget check counts walks in pure Python
        loaded = cli_modules("enumerate", "--transitions", str(table_file), "--steps", "2", *start)
        assert "numpy" not in loaded
        assert dtraj_modules(loaded) == {"dtraj", "dtraj.errors", "dtraj.model",
                                         "dtraj.trajectories", "dtraj.transitions"}

    def test_array_routes_load_numpy_and_their_layer_only(self, table_file):
        # the walk counter's quotient rows are numpy arrays
        loaded = cli_modules("enumerate", "--transitions", str(table_file), "--steps", "3",
                             "--count-only")
        assert "numpy" in loaded
        # the CLI itself runs as __main__
        assert dtraj_modules(loaded) == {"dtraj", "dtraj.errors", "dtraj.model",
                                         "dtraj.trajectories", "dtraj.transitions"}

    def test_bare_import_loads_no_layer(self):
        done = run_child("import json, sys, dtraj; print(json.dumps(sorted(sys.modules)))")
        loaded = set(json.loads(done.stdout))
        assert dtraj_modules(loaded) == {"dtraj"}
        assert "numpy" not in loaded

    def test_every_export_and_submodule_resolves(self):
        code = (
            "import importlib, json, pkgutil, dtraj\n"
            "subs = [m.name for m in pkgutil.iter_modules(dtraj.__path__)]\n"
            "wrong = [n for n in subs\n"
            "         if getattr(dtraj, n) is not importlib.import_module('dtraj.' + n)]\n"
            "wrong += [n for n in dtraj.__all__ if getattr(dtraj, n, None) is None]\n"
            "print(json.dumps([subs, wrong]))\n"
        )
        subs, wrong = json.loads(run_child(code).stdout)
        assert set(subs) == {"cli", "discovery", "dynamics", "errors", "lattice", "model",
                             "trajectories", "transitions"}
        assert wrong == []

    def test_exports_are_the_layer_objects(self):
        import dtraj
        for name in dtraj.__all__[1:]:
            assert getattr(dtraj, name) is getattr(getattr(dtraj, dtraj._HOME[name]), name)
        with pytest.raises(AttributeError):
            dtraj.no_such_name

    def test_star_import_binds_all(self):
        code = (
            "import json\n"
            "from dtraj import *\n"
            "import dtraj\n"
            "print(json.dumps([n for n in dtraj.__all__ if n not in globals()]))\n"
        )
        assert json.loads(run_child(code).stdout) == []

    def test_handler_calls_the_layer_name(self, capsys, monkeypatch):
        # handlers look their layer's functions up when they run, so a name
        # patched on the layer module (as a tracer does) is the one called
        import dtraj.lattice as lattice
        monkeypatch.setattr(lattice, "corridor_count_1d",
                            lambda *args: lattice.PathCount.from_int(7))
        assert main(["count", "corridor", "--d", "5", "--from", "2", "--to", "3",
                     "--steps", "4"]) == 0
        assert capsys.readouterr().out == "7\n"


# ---------------------------------------------------------------------------
# a reader that leaves early


@pytest.mark.parametrize("argv", [
    ["transitions", "--config", CFG],
    ["enumerate", "--transitions", "TABLE", "--steps", "3"],
], ids=["transitions", "enumerate"])
def test_closed_stdout_is_one_error_line(table_file, argv):
    # as `dtraj ... | head -1`: the reader closes the pipe after one line
    argv = [str(table_file) if a == "TABLE" else a for a in argv]
    with subprocess.Popen([sys.executable, "-m", "dtraj.cli", *argv], env=child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as child:
        assert child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=120) == 2
    assert "Traceback" not in err and "Exception ignored" not in err
    lines = err.splitlines()
    assert len(lines) == 2
    assert lines[0] == "error: cannot write stdout: [Errno 32] Broken pipe"
    assert json.loads(lines[1])["subcommand"] == argv[0]


def run_without_stdout(*argv: str) -> subprocess.CompletedProcess:
    """Run the CLI as `dtraj ... >&-`: it starts with fd 1 closed, so sys.stdout is None."""
    cmd = " ".join(shlex.quote(a) for a in (sys.executable, "-m", "dtraj.cli", *argv))
    return subprocess.run(["sh", "-c", cmd + " >&-"], env=child_env(),
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", [
    ["count", "corridor", "--d", "5", "--from", "2", "--to", "3", "--steps", "4"],
    ["transitions", "--config", CFG],
], ids=["count corridor", "transitions"])
def test_stdout_closed_at_start_is_one_error_line(argv):
    done = run_without_stdout(*argv)
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 2, done.stderr
    assert lines[0] == "error: cannot write stdout: [Errno 9] Bad file descriptor"
    assert json.loads(lines[1])["subcommand"] == " ".join(argv[:2 if argv[0] == "count" else 1])


def test_stdout_closed_at_start_is_no_error_with_out(tmp_path):
    out = tmp_path / "count.txt"
    done = run_without_stdout("count", "corridor", "--d", "5", "--from", "2", "--to", "3",
                              "--steps", "4", "--out", str(out))
    assert done.returncode == 0
    assert len(done.stderr.splitlines()) == 1     # the manifest
    assert out.read_text() == "16\n"
