"""Command-line contract tests: exit codes, artifacts, overrides, sweeps."""

import csv
import json
from pathlib import Path

import pytest

from coresel import cli, influence
from coresel.cli import _SCHEMA, ConfigError, RunConfig, main, parse_flat_file

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


@pytest.fixture
def csv_config_file(tmp_path):
    """A run config on a two-task csv stream."""
    header = "id,task,label,f0,f1\n"
    train = tmp_path / "train.csv"
    train.write_text(header + "".join(
        f"{i},{i // 4},{i % 4},{i % 3 - 1}.0,{i % 2}.0\n" for i in range(8)))
    test = tmp_path / "test.csv"
    test.write_text(header + "10,0,0,1.0,0.0\n11,1,2,-1.0,0.0\n")
    path = tmp_path / "csv.cfg"
    path.write_text(f"selector.kind = regularized_if\ncriterion.m = 2\n"
                    f"stream.source = csv\nstream.train_csv = {train}\n"
                    f"stream.test_csv = {test}\nstream.batch_size = 2\n")
    return path


# the config key behind each run argument of test_bad_run_value_exits_2_before_step_0
RUN_VALUE_KEYS = {
    "damping": "harness.damping",
    "reweight_constant": "harness.reweight_constant",
    "min_overlap": "oracle.min_overlap",
    "budget": "criterion.m",
    "epochs": "fit.epochs",
    "learning_rate": "fit.learning_rate",
}

# One case per config key for test_schedule_keys_change_the_report:
# (config, assignments of the changed run only, assignments of both runs,
# exit code of the changed run). The key's own assignment comes first, then
# any key that must move with it; "{dir}" is the directory that holds the
# config files and the csv fixture's train.csv and test.csv.
KEY_CASES = [
    ("synthetic", ["seed=8"], [], 0),
    ("synthetic", ["selector.kind=vanilla_if"], [], 0),
    ("synthetic", ["stream.source=csv"], [], 2),
    ("synthetic", ["stream.num_tasks=3"], ["model.num_classes=6"], 0),
    ("synthetic", ["stream.classes_per_task=1"], [], 0),
    ("synthetic", ["stream.samples_per_class=10"], [], 0),
    ("synthetic", ["stream.dim=3", "model.dim=3"], [], 0),
    ("synthetic", ["stream.batch_size=4"], [], 0),
    ("synthetic", ["stream.seed=4"], [], 0),
    ("synthetic", ["stream.mean_scale=1.0"], [], 0),
    ("synthetic", ["stream.within_std=2.0"], [], 0),
    ("synthetic", ["stream.drift_offsets=0,1"], [], 0),
    ("synthetic", ["stream.label_noise=0.3,0.3"], [], 0),
    ("synthetic", ["stream.test_fraction=0.5"], [], 0),
    ("csv", ["stream.train_csv={dir}/test.csv"], [], 0),
    ("csv", ["stream.test_csv={dir}/train.csv"], [], 0),
    ("synthetic", ["model.kind=quad1d"], [], 2),
    ("synthetic", ["model.dim=3", "stream.dim=3"], [], 0),
    ("synthetic", ["model.num_classes=5"], [], 0),
    ("synthetic", ["model.l2_strength=0.5"], [], 0),
    ("synthetic", ["criterion.m=10"], [], 0),
    ("synthetic", ["criterion.mu=0"], ["criterion.nu=10"], 0),
    ("synthetic", ["criterion.nu=0"], [], 0),
    ("synthetic", ["fit.learning_rate=0.03"], [], 0),
    ("synthetic", ["fit.epochs=3"], [], 0),
    ("synthetic", ["harness.damping=1.0"], [], 0),
    ("synthetic", ["harness.refit_at_selection=true"], [], 0),
    ("synthetic", ["harness.reweight_constant=0.5"], [], 0),
    ("synthetic", ["oracle.enabled=false"], [], 0),
    ("synthetic", ["oracle.buffer_multiplier=1"], [], 0),
    ("synthetic", ["oracle.min_overlap=30"], [], 0),
]


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

    @pytest.mark.parametrize("assignment, message", [
        ("model.dim=3", "config key 'model.dim': 3 does not match stream.dim 2"),
        ("model.num_classes=3",
         "config key 'model.num_classes': 3 is below the stream's 4 classes"),
    ])
    def test_csv_stream_model_mismatch_exits_2_and_names_key(
            self, csv_config_file, tmp_path, capsys, assignment, message):
        out = tmp_path / "o"
        code = main(["run", "--config", str(csv_config_file), "--out", str(out),
                     "--set", assignment])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and "step" not in err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, named", [
        (["harness.damping=-1"], "damping"),
        (["harness.reweight_constant=-1"], "reweight_constant"),
        (["stream.batch_size=1", "oracle.min_overlap=1"], "min_overlap"),
        (["criterion.m=100000"], "budget"),
        (["fit.epochs=0"], "epochs"),
        (["fit.learning_rate=-1"], "learning_rate"),
        (["oracle.enabled=false", "oracle.min_overlap=1"], "min_overlap"),
        (["harness.damping=inf"], "damping"),
        (["fit.learning_rate=inf"], "learning_rate"),
        (["harness.reweight_constant=inf"], "reweight_constant"),
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
        assert f"config key '{RUN_VALUE_KEYS[named]}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("assignment, section", [
        ("criterion.nu=nan", "criterion"),
        ("criterion.nu=inf", "criterion"),
        ("model.l2_strength=nan", "model"),
        ("model.l2_strength=inf", "model"),
    ])
    def test_non_finite_criterion_or_model_value_exits_2_before_step_0(
            self, config_file, tmp_path, capsys, assignment, section):
        out = tmp_path / "o"
        assert main(["run", "--config", str(config_file), "--out", str(out),
                     "--set", assignment]) == 2
        err = capsys.readouterr().err
        field = assignment.split(".")[1].split("=")[0]
        assert f"config section '{section}': {field} must be finite" in err
        assert "step" not in err
        assert not out.exists()

    @pytest.mark.parametrize("assignment", [
        "stream.num_tasks=7", "stream.seed=9", "stream.mean_scale=0.1",
        "stream.dim=2", "stream.drift_offsets=0,1", "stream.test_fraction=0.3",
    ])
    def test_synthetic_key_on_csv_stream_exits_2_and_names_it(
            self, csv_config_file, tmp_path, capsys, assignment):
        code = main(["run", "--config", str(csv_config_file), "--out", str(tmp_path / "o"),
                     "--set", assignment])
        assert code == 2
        key = assignment.split("=")[0]
        assert f"config key '{key}' does not apply to a csv stream" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["stream.train_csv", "stream.test_csv"])
    def test_csv_key_on_synthetic_stream_exits_2_and_names_it(
            self, config_file, csv_config_file, tmp_path, capsys, key):
        code = main(["run", "--config", str(config_file), "--out", str(tmp_path / "o"),
                     "--set", f"{key}={csv_config_file}"])
        assert code == 2
        assert (f"config key '{key}' does not apply to a synthetic_gaussian stream"
                in capsys.readouterr().err)

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

    @pytest.mark.parametrize("source, changed, shared, code", [
        pytest.param(*case, id=case[1][0]) for case in KEY_CASES])
    def test_schedule_keys_change_the_report(self, config_file, csv_config_file, tmp_path,
                                             capsys, source, changed, shared, code):
        """Every key either changes the report body or is rejected."""
        config = csv_config_file if source == "csv" else config_file

        def report_without_echo(out, assignments, expected_code):
            argv = ["run", "--config", str(config), "--out", str(out)]
            for assignment in assignments:
                argv += ["--set", assignment.format(dir=tmp_path)]
            assert main(argv) == expected_code
            if expected_code:
                return None
            report = json.loads((out / "report.json").read_text())
            del report["config"]
            return report
        base = report_without_echo(tmp_path / "base", shared, 0)
        if code:
            assert report_without_echo(tmp_path / "changed", shared + changed, code) is None
        else:
            assert report_without_echo(tmp_path / "changed", shared + changed, 0) != base

    def test_schedule_key_cases_cover_the_schema(self):
        keys = [changed[0].split("=")[0] for _, changed, _, _ in KEY_CASES]
        assert sorted(keys) == sorted(_SCHEMA)


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

    def test_csv_echo_reparses_to_equal_config(self, csv_config_file):
        cfg = RunConfig.from_flat(parse_flat_file(csv_config_file))
        echo = cfg.to_flat()
        assert RunConfig.from_flat(echo) == cfg
        assert RunConfig.from_flat(json.loads(json.dumps(echo))) == cfg
        assert not [key for key in echo if key in (
            "stream.num_tasks", "stream.seed", "stream.dim", "stream.mean_scale")]

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

    @pytest.mark.parametrize("flags, message", [
        (["--m", "0"], "--m: budget must be at least 1"),
        (["--m", "4", "--mu", "2"], "--mu: mu must lie in [0, 1]"),
        (["--m", "4", "--nu", "-1"], "--nu: nu must be finite and nonnegative"),
        (["--m", "4", "--l2", "-1"], "--l2: l2_strength must be finite and nonnegative"),
        (["--m", "4", "--damping", "-1"], "--damping: damping must be finite and nonnegative"),
        (["--m", "4", "--nu", "nan"], "--nu: nu must be finite and nonnegative"),
    ])
    def test_bad_flag_exits_2_and_names_it_before_fitting(self, tmp_path, capsys,
                                                          monkeypatch, flags, message):
        data = tmp_path / "pool.csv"
        data.write_text("id,task,label,f0\n0,0,0,-1.0\n1,0,1,1.0\n2,0,0,-2.0\n3,0,1,2.0\n"
                        "4,0,0,-1.5\n")
        def no_fit(*args):
            raise AssertionError("fit called")
        monkeypatch.setattr(cli, "fit", no_fit)
        assert main(["select", "--data", str(data)] + flags) == 2
        assert message in capsys.readouterr().err

    def test_repeated_id_exits_2_and_names_row(self, tmp_path, capsys):
        data = tmp_path / "pool.csv"
        data.write_text("id,task,label,f0\n0,0,0,-1.0\n1,0,1,1.0\n1,0,0,-2.0\n")
        assert main(["select", "--data", str(data), "--m", "2"]) == 2
        assert "pool.csv: row 4: sample id 1 already used at row 3" in capsys.readouterr().err

    def test_usage_error_exits_2(self, capsys):
        assert main(["select", "--data", "x.csv"]) == 2  # missing --m
