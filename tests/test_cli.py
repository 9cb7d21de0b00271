"""End-to-end command tests; everything runs in-process through main()."""

import json
import os
import time

import pytest

from dtraj.cli import main
from conftest import CONFIG_PATH

CFG = str(CONFIG_PATH)


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

    def test_closed_form_step_cap(self, capsys):
        t0 = time.monotonic()
        rc = main(["count", "corridor", "--d", "136", "--from", "68", "--to", "78",
                   "--steps", "1000000000"])
        assert rc == 4
        assert time.monotonic() - t0 < 1.0
        err = capsys.readouterr().err
        assert "m = 1000000000" in err and "cap is 50000" in err

    def test_exact_oracle_step_budget(self, capsys):
        t0 = time.monotonic()
        rc = main(["count", "corridor", "--d", "5", "--from", "2", "--to", "3",
                   "--steps", "1000000000", "--exact"])
        assert rc == 4
        assert time.monotonic() - t0 < 1.0
        assert "cell-steps" in capsys.readouterr().err

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
        from dtraj.lattice import PathCount
        monkeypatch.setattr(lattice, "corridor_count_factorized",
                            lambda *args: PathCount.from_int(1))
        rc = main(["count", "ndim", "--d", "6,6", "--from", "2,3", "--to", "3,3",
                   "--steps", "5", "--direct"])
        assert rc == 5
        err = capsys.readouterr().err
        assert "error: direct and factorized corridor counts disagree" in err
        manifest = json.loads([ln for ln in err.splitlines() if ln.startswith("{")][-1])
        assert manifest["subcommand"] == "count ndim"

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

    def test_direct_dimension_cap(self, capsys):
        rc = main(["count", "ndim", "--d", "3,3,3,3", "--from", "1,1,1,1",
                   "--to", "1,1,1,1", "--steps", "4", "--direct"])
        assert rc == 4

    def test_bounds_output(self, capsys):
        rc = main(["count", "bounds", "--config", CFG, "--steps", "50"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["states 945", "actions 5", "upper_bound 8.39329e+37"]


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

    def test_steps_must_start_at_one(self, capsys):
        rc = main(["count", "scaling", "--config", CFG, "--dof", "1",
                   "--steps", "5-10", "--separation-deg", "20"])
        assert rc == 2


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

    def test_bad_start_state(self, capsys):
        rc = main(["transitions", "--config", CFG, "--start", "zero"])
        assert rc == 2

    def test_unwritable_out_leaves_no_partial(self, capsys, tmp_path):
        target = tmp_path / "no-such-dir" / "t.jsonl"
        rc = main(["transitions", "--config", CFG, "--out", str(target)])
        assert rc == 2
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []


class TestEnumerateCommand:
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

    def test_budget_exit(self, capsys, table_file):
        rc = main(["enumerate", "--transitions", str(table_file),
                   "--steps", "3", "--budget", "1000"])
        assert rc == 4

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

    def test_manifest_keys_sorted(self, capsys):
        main(["count", "corridor", "--d", "5", "--from", "2", "--to", "3",
              "--steps", "4"])
        err = capsys.readouterr().err
        line = [ln for ln in err.strip().splitlines() if ln.startswith("{")][-1]
        obj = json.loads(line)
        assert line == json.dumps(obj, sort_keys=True)
