"""Command-line contract tests: exit codes, artifacts, overrides, sweeps."""

import csv
import json
from pathlib import Path

import pytest

from coresel import influence
from coresel.cli import ConfigError, RunConfig, main, parse_flat_file

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

BASE_CONFIG = """
# minimal smoke configuration
selector.kind = regularized_if
criterion.m = 20
stream.num_tasks = 2
stream.classes_per_task = 2
stream.samples_per_class = 12
stream.dim = 2
stream.batch_size = 6
stream.seed = 3
model.num_classes = 4
fit.epochs = 2
seed = 7
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CONFIG)
    return path


class TestRunCommand:
    def test_writes_all_artifacts(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
        for name in ("report.json", "acc_matrix.csv", "metrics.csv", "buffer_trace.csv"):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert report["schema"] == "coresel-report-v1"
        assert report["seed"] == 7

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_bad_key_exits_2_and_names_it(self, config_file, tmp_path, capsys):
        code = main(["run", "--config", str(config_file),
                     "--set", "criterion.muu=0.3", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "criterion.muu" in capsys.readouterr().err

    def test_bad_value_exits_2_and_names_key(self, config_file, tmp_path, capsys):
        code = main(["run", "--config", str(config_file),
                     "--set", "criterion.mu=1.5", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "criterion" in capsys.readouterr().err

    def test_seed_flag_repeats_byte_identically(self, config_file, tmp_path, capsys):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["run", "--config", str(config_file), "--seed", "11",
                         "--out", str(out)]) == 0
        blobs = [(out / "report.json").read_bytes() for out in outs]
        assert blobs[0] == blobs[1]

    def test_set_override_applies(self, config_file, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["run", "--config", str(config_file), "--out", str(out),
                     "--set", "selector.kind=reservoir"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["selector"] == "reservoir"

    def test_disabled_oracle_leaves_tau_blank(self, config_file, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["run", "--config", str(config_file), "--out", str(out),
                     "--set", "oracle.enabled=false"]) == 0
        with (out / "metrics.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["tau"] == "" for r in rows)

    def test_model_stream_dim_mismatch_exits_2(self, config_file, tmp_path, capsys):
        code = main(["run", "--config", str(config_file), "--out", str(tmp_path / "o"),
                     "--set", "model.dim=3"])
        assert code == 2
        assert "model.dim" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, named", [
        (["harness.damping=-1"], "damping"),
        (["harness.reweight_constant=-1"], "reweight_constant"),
        (["stream.batch_size=1", "oracle.min_overlap=1"], "min_overlap"),
        (["criterion.m=100000"], "budget"),
        (["fit.epochs=0"], "epochs"),
        (["fit.learning_rate=-1"], "learning_rate"),
    ])
    def test_bad_run_value_exits_2_before_step_0(self, config_file, tmp_path, capsys,
                                                 overrides, named):
        out = tmp_path / "o"
        argv = ["run", "--config", str(config_file), "--out", str(out)]
        for assignment in overrides:
            argv += ["--set", assignment]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert named in err and "step" not in err
        assert not out.exists()

    @pytest.mark.parametrize("assignment", [
        "fit.method=newton", "fit.batch_size=3", "fit.grad_tolerance=0.5",
        "fit.max_steps=1", "fit.seed=9", "oracle.epsilon=0.5",
    ])
    def test_deleted_key_exits_2_and_names_it(self, config_file, tmp_path, capsys,
                                              assignment):
        code = main(["run", "--config", str(config_file), "--out", str(tmp_path / "o"),
                     "--set", assignment])
        assert code == 2
        key = assignment.split("=")[0]
        assert f"unknown config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("assignment", ["fit.learning_rate=0.03", "fit.epochs=3"])
    def test_schedule_keys_change_the_report(self, config_file, tmp_path, capsys,
                                             assignment):
        def report_without_echo(out, *extra):
            assert main(["run", "--config", str(config_file), "--out", str(out),
                         *extra]) == 0
            report = json.loads((out / "report.json").read_text())
            del report["config"]
            return report
        base = report_without_echo(tmp_path / "base")
        changed = report_without_echo(tmp_path / "changed", "--set", assignment)
        assert changed != base


    def test_csv_stream_repeated_id_exits_2_and_names_row(self, tmp_path, capsys):
        header = "id,task,label,f0,f1\n"
        train = tmp_path / "train.csv"
        train.write_text(header + "0,0,0,1.0,0.0\n1,0,1,0.0,1.0\n"
                         "0,1,2,-1.0,0.0\n3,1,3,0.0,-1.0\n")
        test = tmp_path / "test.csv"
        test.write_text(header + "10,0,0,1.0,0.0\n11,1,2,-1.0,0.0\n")
        config = tmp_path / "csv.cfg"
        config.write_text(f"selector.kind = regularized_if\ncriterion.m = 2\n"
                          f"stream.source = csv\nstream.train_csv = {train}\n"
                          f"stream.test_csv = {test}\nstream.batch_size = 2\n")
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "train.csv: row 4: sample id 0 already used at row 2" in err


class TestShippedConfigs:
    def test_example_run_config_runs(self, tmp_path, capsys):
        assert main(["run", "--config", str(CONFIGS / "example_run.cfg"),
                     "--out", str(tmp_path / "o")]) == 0

    def test_example_grid_config_sweeps(self, config_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(config_file),
                     "--grid", str(CONFIGS / "example_grid.cfg"), "--out", str(out)]) == 0
        with (out / "sweep.csv").open() as fh:
            assert len(list(csv.DictReader(fh))) == 12


class TestConfigRoundTrip:
    def test_echo_reparses_to_equal_config(self, config_file):
        cfg = RunConfig.from_flat(parse_flat_file(config_file))
        assert RunConfig.from_flat(cfg.to_flat()) == cfg

    def test_echo_survives_json(self, config_file):
        cfg = RunConfig.from_flat(parse_flat_file(config_file))
        recovered = RunConfig.from_flat(json.loads(json.dumps(cfg.to_flat())))
        assert recovered == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            RunConfig.from_flat({"selector.kind": "reservoir", "criterion.m": "5",
                                 "bogus.key": "1"})

    def test_required_key_enforced(self):
        with pytest.raises(ConfigError, match="criterion.m"):
            RunConfig.from_flat({"selector.kind": "reservoir"})


class TestValidateCommand:
    def test_filter_runs_single_suite(self, capsys):
        assert main(["validate", "--filter", "neumann"]) == 0
        out = capsys.readouterr().out
        assert "neumann_expansion" in out and "PASS" in out
        assert "greedy_quality" not in out

    def test_unmatched_filter_exits_2(self, capsys):
        assert main(["validate", "--filter", "no_such_suite"]) == 2

    def test_sign_flip_mutation_is_caught(self, capsys, monkeypatch):
        """Flipping the curvature-correction sign must fail the joint-case
        oracle and name it in the output."""
        monkeypatch.setattr(influence, "_JOINT_PERTURBATION_SIGN", -1.0)
        assert main(["validate", "--filter", "second_order"]) == 1
        out = capsys.readouterr().out
        assert "second_order_oracles" in out and "FAIL" in out
        assert "joint-case" in out


class TestSweepCommand:
    def test_nu_grid(self, config_file, tmp_path, capsys):
        grid = tmp_path / "grid.cfg"
        grid.write_text("grid.nu = 0, 0.001, 0.01, 0.1\n")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(config_file), "--grid", str(grid),
                     "--out", str(out)]) == 0
        with (out / "sweep.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert [float(r["nu"]) for r in rows] == [0.0, 0.001, 0.01, 0.1]

    def test_nu_zero_point_matches_vanilla_run(self, config_file, tmp_path, capsys):
        grid = tmp_path / "grid.cfg"
        grid.write_text("grid.nu = 0\n")
        sweep_out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(config_file), "--grid", str(grid),
                     "--out", str(sweep_out)]) == 0
        with (sweep_out / "sweep.csv").open() as fh:
            sweep_acc = float(next(csv.DictReader(fh))["acc"])
        run_out = tmp_path / "vanilla"
        assert main(["run", "--config", str(config_file), "--out", str(run_out),
                     "--set", "selector.kind=vanilla_if", "--set", "criterion.nu=0"]) == 0
        vanilla_acc = json.loads((run_out / "report.json").read_text())["acc"]
        assert sweep_acc == vanilla_acc

    def test_oversized_grid_rejected(self, config_file, tmp_path, capsys):
        grid = tmp_path / "grid.cfg"
        grid.write_text("grid.mu = " + ",".join(str(i / 100) for i in range(11)) + "\n"
                        + "grid.nu = " + ",".join(str(i / 100) for i in range(10)) + "\n")
        assert main(["sweep", "--config", str(config_file), "--grid", str(grid),
                     "--out", str(tmp_path / "s")]) == 2


class TestSelectCommand:
    def test_one_shot_selection_prints_ids(self, tmp_path, capsys):
        rows = ["id,task,label,f0,f1"]
        rng_rows = [
            (0, 0, 0, -2.0, 0.1), (1, 0, 0, -1.8, -0.2), (2, 0, 0, -2.2, 0.0),
            (3, 0, 1, 2.0, 0.1), (4, 0, 1, 1.9, -0.1), (5, 0, 1, 2.1, 0.2),
        ]
        rows += [",".join(str(v) for v in r) for r in rng_rows]
        data = tmp_path / "pool.csv"
        data.write_text("\n".join(rows) + "\n")
        assert main(["select", "--data", str(data), "--m", "4"]) == 0
        printed = capsys.readouterr().out.strip().split()
        assert len(printed) == 4
        assert set(printed) <= {str(i) for i in range(6)}

    def test_repeated_id_exits_2_and_names_row(self, tmp_path, capsys):
        data = tmp_path / "pool.csv"
        data.write_text("id,task,label,f0\n0,0,0,-1.0\n1,0,1,1.0\n1,0,0,-2.0\n")
        assert main(["select", "--data", str(data), "--m", "2"]) == 2
        assert "pool.csv: row 4: sample id 1 already used at row 3" in capsys.readouterr().err

    def test_usage_error_exits_2(self, capsys):
        assert main(["select", "--data", "x.csv"]) == 2  # missing --m
