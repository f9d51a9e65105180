"""Command-line contract tests: exit codes, artifacts, overrides, sweeps."""

import ast
import csv
import gc
import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from coresel import cli, harness, influence, models, oracles, selection
from coresel.cli import _SCHEMA, RunConfig, main, parse_flat_file
from coresel.numkit import ArgumentError

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

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


def as_bytes(text):
    return text if isinstance(text, bytes) else text.encode()


def write_csv_config(tmp_path, train_extra="", test_extra=""):
    """A run config on a two-task csv stream of 8 train rows (file rows 2-9)
    and 2 test rows (rows 2-3), each file followed by its extra rows (text
    or bytes)."""
    header = "id,task,label,f0,f1\n"
    train = tmp_path / "train.csv"
    train.write_bytes((header + "".join(
        f"{i},{i // 4},{i % 4},{i % 3 - 1}.0,{i % 2}.0\n" for i in range(8))).encode()
        + as_bytes(train_extra))
    test = tmp_path / "test.csv"
    test.write_bytes((header + "10,0,0,1.0,0.0\n11,1,2,-1.0,0.0\n").encode() + as_bytes(test_extra))
    path = tmp_path / "csv.cfg"
    path.write_text(f"selector.kind = regularized_if\ncriterion.m = 2\n"
                    f"stream.source = csv\nstream.train_csv = {train}\n"
                    f"stream.test_csv = {test}\nstream.batch_size = 2\n")
    return path


@pytest.fixture
def csv_config_file(tmp_path):
    return write_csv_config(tmp_path)


# The cases of test_bad_run_value_exits_2_before_step_0: (assignments, the
# field the error names). The assignment to that field's key is the bad
# one; the cases from "stream.num_tasks=1" on give each numeric stream,
# model, criterion and oracle key an out-of-range value.
RUN_VALUE_CASES = [
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
    (["stream.num_tasks=1"], "num_tasks"),
    (["stream.classes_per_task=0"], "classes_per_task"),
    (["stream.samples_per_class=0"], "samples_per_class"),
    (["stream.dim=0"], "dim"),
    (["stream.batch_size=0"], "batch_size"),
    (["stream.seed=-5"], "seed"),
    (["stream.mean_scale=-inf"], "mean_scale"),
    (["stream.within_std=inf"], "within_std"),
    (["stream.drift_offsets=0"], "drift_offsets"),
    (["stream.label_noise=0.1"], "label_noise"),
    (["stream.test_fraction=1"], "test_fraction"),
    (["model.dim=0"], "dim"),
    (["model.num_classes=0"], "num_classes"),
    (["model.l2_strength=-1"], "l2_strength"),
    (["criterion.m=0"], "budget"),
    (["criterion.mu=-0.5"], "mu"),
    (["criterion.nu=-1"], "nu"),
    (["oracle.buffer_multiplier=0"], "buffer_multiplier"),
]


def bad_value_key(assignments, named):
    """The config key of the assignment to the field ``named``."""
    keys = [assignment.split("=")[0] for assignment in assignments]
    return next(key for key in keys if _SCHEMA[key].field == named)

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
    ("synthetic", ["model.dim=3", "stream.dim=3"], [], 0),
    ("synthetic", ["model.num_classes=5"], [], 0),
    ("synthetic", ["model.l2_strength=0.5"], [], 0),
    ("synthetic", ["criterion.m=10"], [], 0),
    ("synthetic", ["criterion.mu=0"], ["criterion.nu=10"], 0),
    ("synthetic", ["criterion.nu=0"], [], 0),
    ("synthetic", ["fit.learning_rate=0.03"], [], 0),
    ("synthetic", ["fit.epochs=3"], [], 0),
    ("synthetic", ["harness.damping=1.0"], [], 0),
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

    def test_one_feature_run_repeats_byte_identically(self, config_file, tmp_path, capsys):
        """At ``stream.dim = 1`` the class means sit on a line, not a circle."""
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["run", "--config", str(config_file), "--out", str(out),
                         "--set", "stream.dim=1", "--set", "model.dim=1"]) == 0
        blobs = [(out / "report.json").read_bytes() for out in outs]
        assert blobs[0] == blobs[1]
        assert json.loads(blobs[0])["config"]["stream.dim"] == 1

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

    @pytest.mark.parametrize("kind", ["reservoir", "ring"])
    def test_zero_l2_and_damping_run_without_a_context(self, config_file, tmp_path, capsys,
                                                       kind):
        # with the oracle off these selectors invert no Hessian
        assert main(["run", "--config", str(config_file), "--out", str(tmp_path / "o"),
                     "--set", f"selector.kind={kind}", "--set", "oracle.enabled=false",
                     "--set", "model.l2_strength=0", "--set", "harness.damping=0"]) == 0

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

    @pytest.mark.parametrize("overrides, named", RUN_VALUE_CASES)
    def test_bad_run_value_exits_2_before_step_0(self, config_file, tmp_path, capsys,
                                                 overrides, named):
        out = tmp_path / "o"
        argv = ["run", "--config", str(config_file), "--out", str(out)]
        for assignment in overrides:
            argv += ["--set", assignment]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert named in err and "step" not in err
        assert f"config key '{bad_value_key(overrides, named)}': {named}" in err
        assert not out.exists()

    def test_bad_run_value_cases_cover_every_numeric_part_key(self):
        numeric = [key for key, row in _SCHEMA.items()
                   if row.part in ("stream", "model", "criterion", "oracle")
                   and row.convert in (int, float, cli._conv_float_tuple)]
        assert set(numeric) <= {bad_value_key(*case) for case in RUN_VALUE_CASES}

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
        assert f"config key '{section}.{field}': {field} must be finite" in err
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
        "fit.max_steps=1", "fit.seed=9", "oracle.epsilon=0.5", "model.kind=logistic",
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


    def test_repeated_key_exits_2_and_names_both_lines(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(BASE_CONFIG + "criterion.m = 10\n")
        lines = BASE_CONFIG.splitlines()
        first, second = lines.index("criterion.m = 20") + 1, len(lines) + 1
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert (f"{config}:{second}: key 'criterion.m' is already set at line {first}"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

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


def test_artifact_check_closes_every_file(tmp_path, config_file, capsys):
    report = cli.execute_run(RunConfig.from_flat(parse_flat_file(config_file)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        cli.write_artifacts(tmp_path / "o", report)
        gc.collect()
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("name", ["acc_matrix.csv", "metrics.csv", "buffer_trace.csv"])
@pytest.mark.parametrize("tamper, message", [
    (lambda header, rows: (header[:-1], rows), "failed schema check"),
    (lambda header, rows: (header, rows[:-1]), "row count mismatch"),
], ids=["header", "rows"])
def test_artifact_check_fails_the_run_on_a_csv_that_is_not_its_view(
        config_file, tmp_path, capsys, monkeypatch, name, tamper, message):
    write_csv = cli._write_csv

    def tampered(path, header, rows):
        write_csv(path, *(tamper(header, rows) if path.name == name else (header, rows)))
    monkeypatch.setattr(cli, "_write_csv", tampered)
    assert main(["run", "--config", str(config_file), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {name} {message}\n"


def input_argv(tmp_path, where, value):
    """The argv of one bad-input case, with ``value`` put where ``where``
    says: a --set assignment on the synthetic or (``csv-set``, with
    ``{dir}`` the case's directory) the csv stream, extra flags, extra train
    or test rows of the csv stream or (``train-file``, ``test-file``) the
    whole of one of its files, extra rows or flags of a select run, or a
    grid or run config file's bytes. Commands that take ``--out`` write to
    ``tmp_path / "o"``."""
    out = ["--out", str(tmp_path / "o")]
    config = tmp_path / "run.cfg"
    config.write_bytes(value if where == "config" else BASE_CONFIG.encode())
    if where in ("select", "select-flags"):
        rows, flags = (as_bytes(value), []) if where == "select" else (b"", value)
        data = tmp_path / "pool.csv"
        data.write_bytes(b"id,task,label,f0\n0,0,0,-1.0\n1,0,1,1.0\n" + rows)
        return ["select", "--data", str(data), "--m", "2"] + flags
    if where == "grid":
        grid = tmp_path / "grid.cfg"
        grid.write_bytes(value)
        return ["sweep", "--config", str(config), "--grid", str(grid)] + out
    if where in ("train", "test"):
        config = write_csv_config(tmp_path, **{f"{where}_extra": value})
    if where in ("train-file", "test-file"):
        config = write_csv_config(tmp_path)
        (tmp_path / where.replace("-file", ".csv")).write_bytes(as_bytes(value))
    if where == "csv-set":
        config, value = write_csv_config(tmp_path), value.format(dir=tmp_path)
    flags = {"set": ["--set", value], "csv-set": ["--set", value], "flags": value}.get(where, [])
    return ["run", "--config", str(config)] + flags + out


LABEL_NOISE = "config key 'stream.label_noise': label_noise entries must lie in [0, 1]"
WITHIN_STD = "config key 'stream.within_std': within_std must be finite and nonnegative"
MEAN_SCALE = "config key 'stream.mean_scale': mean_scale must be finite"
NOT_UTF8 = "'utf-8' codec can't decode"
CSV_HEADER = "id,task,label,f0,f1\n"

# Every input error exits 2 naming its key, flag, or file and row:
# (where the bad value goes, see input_argv; the value; what stderr must
# hold, with "{dir}" the directory of the case's files)
INPUT_ERRORS = [
    pytest.param("set", "stream.label_noise=1.5,1.5", LABEL_NOISE, id="label_noise=1.5"),
    pytest.param("set", "stream.label_noise=-0.5,0", LABEL_NOISE, id="label_noise=-0.5"),
    pytest.param("set", "stream.label_noise=nan,nan", LABEL_NOISE, id="label_noise=nan"),
    pytest.param("flags", ["--set", "stream.classes_per_task=1",
                           "--set", "stream.label_noise=0.5,0.5"],
                 "config key 'stream.label_noise': label_noise needs classes_per_task >= 2",
                 id="label_noise-one-class-per-task"),
    pytest.param("set", "stream.within_std=-1", WITHIN_STD, id="within_std=-1"),
    pytest.param("set", "stream.within_std=nan", WITHIN_STD, id="within_std=nan"),
    pytest.param("set", "stream.mean_scale=nan", MEAN_SCALE, id="mean_scale=nan"),
    pytest.param("set", "stream.mean_scale=inf", MEAN_SCALE, id="mean_scale=inf"),
    pytest.param("set", "stream.drift_offsets=nan,0",
                 "config key 'stream.drift_offsets': drift_offsets must be finite",
                 id="drift_offsets=nan"),
    pytest.param("set", "seed=-1", "config key 'seed': seed must be nonnegative, got -1",
                 id="seed=-1"),
    pytest.param("set", "stream.seed=-1",
                 "config key 'stream.seed': seed must be nonnegative, got -1",
                 id="stream.seed=-1"),
    pytest.param("flags", ["--seed", "-3"],
                 "config key 'seed': seed must be nonnegative, got -3", id="--seed=-3"),
    pytest.param("flags", ["--set", "model.l2_strength=0", "--set", "harness.damping=0"],
                 "config key 'harness.damping': damping and model.l2_strength are both 0",
                 id="l2_strength=0-damping=0"),
    pytest.param("train", "8,1,2,nan,0.0\n",
                 "{dir}/train.csv: row 10, column 'f0': 'nan' is not finite", id="train-nan"),
    pytest.param("train", "8,1,2,0.0,-inf\n",
                 "{dir}/train.csv: row 10, column 'f1': '-inf' is not finite", id="train-inf"),
    pytest.param("train", "8,1,-1,0.0,0.0\n",
                 "{dir}/train.csv: row 10, column 'label': label must be nonnegative, got -1",
                 id="train-label=-1"),
    pytest.param("train", "8,-1,0,0.0,0.0\n",
                 "{dir}/train.csv: row 10, column 'task': task must be nonnegative, got -1",
                 id="train-task=-1"),
    pytest.param("train", b"8,1,2,caf\xe9,0.0\n", "{dir}/train.csv: " + NOT_UTF8,
                 id="train-not-utf8"),
    pytest.param("csv-set", "stream.train_csv={dir}",
                 "config key 'stream.train_csv': file not found: {dir}",
                 id="train_csv-is-a-directory"),
    pytest.param("csv-set", "stream.test_csv={dir}",
                 "config key 'stream.test_csv': file not found: {dir}",
                 id="test_csv-is-a-directory"),
    pytest.param("test", "12,5,0,1.0,0.0\n",
                 "{dir}/test.csv: sample id 12: task 5 has no rows in the train file",
                 id="test-task-without-train-rows"),
    pytest.param("select", "2,0,0,nan\n",
                 "{dir}/pool.csv: row 4, column 'f0': 'nan' is not finite", id="select-nan"),
    pytest.param("select", "2,0,-1,0.5\n",
                 "{dir}/pool.csv: row 4, column 'label': label must be nonnegative, got -1",
                 id="select-label=-1"),
    pytest.param("select", b"2,0,0,\xff0.5\n", "{dir}/pool.csv: " + NOT_UTF8,
                 id="select-not-utf8"),
    pytest.param("select", f"2,0,{2**70},0.5\n",
                 "{dir}/pool.csv: row 4, column 'label': label must fit in int64, "
                 f"got {2**70}", id="select-label=2**70"),
    pytest.param("select", f"{10**23 - 1},0,0,0.5\n",
                 "{dir}/pool.csv: row 4, column 'id': id must fit in int64, "
                 f"got {10**23 - 1}", id="select-id=10**23-1"),
    pytest.param("select-flags", ["--l2", "0", "--damping", "0"],
                 "--damping: damping and --l2 are both 0", id="select-l2=0-damping=0"),
    pytest.param("select-flags", ["--m", "3"], "--m: budget 3 exceeds the file's 2 samples",
                 id="select-m-above-rows"),
    pytest.param("grid", b"grid.mu = 0.5, x\n", "grid key 'grid.mu': could not convert",
                 id="grid.mu=x"),
    pytest.param("grid", b"grid.nu = 0.1,,0.2\n", "grid key 'grid.nu': could not convert",
                 id="grid.nu-empty-entry"),
    pytest.param("grid", b"grid.nu = 0.1  # \xff\n", "{dir}/grid.cfg: " + NOT_UTF8,
                 id="grid-not-utf8"),
    pytest.param("config", BASE_CONFIG.encode() + b"# caf\xe9\n", "{dir}/run.cfg: " + NOT_UTF8,
                 id="config-not-utf8"),
    pytest.param("config", BASE_CONFIG.encode() + b"seed 7\n",
                 f"{{dir}}/run.cfg:{BASE_CONFIG.count(chr(10)) + 1}: expected 'key = value', "
                 "got 'seed 7'", id="config-line-without-equals"),
    pytest.param("set", "oracle.enabled=maybe",
                 "config key 'oracle.enabled': expected a boolean, got 'maybe'",
                 id="oracle.enabled=maybe"),
    pytest.param("set", "selector.kind=greedy",
                 "config key 'selector.kind': 'greedy' is not one of regularized_if, ",
                 id="selector.kind=greedy"),
    pytest.param("set", "seed=x", "config key 'seed': invalid literal for int()",
                 id="seed=x"),
    pytest.param("flags", ["--set", "seed"], "--set expects KEY=VALUE, got 'seed'",
                 id="set-without-equals"),
    pytest.param("set", "stream.source=parquet",
                 "config key 'stream.source': unknown stream source 'parquet'",
                 id="stream.source=parquet"),
    pytest.param("grid", b"grid.lr = 0.1\n", "unknown grid key 'grid.lr'", id="grid.lr"),
    pytest.param("grid", b"# no axis\n", "grid file must set grid.mu and/or grid.nu",
                 id="grid-without-axis"),
    pytest.param("train", "8,1,2,0.0\n", "{dir}/train.csv: row 10: expected 5 fields, got 4",
                 id="train-short-row"),
    pytest.param("test-file", "", "{dir}/test.csv: file is empty", id="test-empty"),
    pytest.param("test-file", "id,task,class,f0,f1\n10,0,0,1.0,0.0\n",
                 "{dir}/test.csv: header must start with id,task,label, "
                 "got ['id', 'task', 'class']", id="test-bad-header"),
    pytest.param("test-file", "id,task,label,f0\n10,0,0,1.0\n11,1,2,-1.0\n",
                 "{dir}/test.csv: test file has 1 features but train file {dir}/train.csv "
                 "has 2", id="test-feature-count"),
    pytest.param("train-file", CSV_HEADER + "0,0,0,1.0,0.0\n1,0,1,0.0,1.0\n",
                 "{dir}/train.csv: a stream needs at least 2 tasks, got 1",
                 id="train-one-task"),
    pytest.param("test-file", CSV_HEADER + "10,0,0,1.0,0.0\n",
                 "{dir}/test.csv: no rows for task 1", id="test-task-without-test-rows"),
]


class TestExitCodes:
    @pytest.mark.parametrize("where, value, message", INPUT_ERRORS)
    def test_input_error_exits_2_names_it_and_writes_nothing(self, tmp_path, capsys,
                                                             where, value, message):
        assert main(input_argv(tmp_path, where, value)) == 2
        assert message.format(dir=tmp_path) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argument", ["model", "stream"])
    def test_argument_no_key_fills_keeps_its_message(self, argument):
        error = cli._argument_error(ArgumentError(argument, "not for this run"), "run")
        assert type(error) is ValueError and str(error) == "not for this run"

    def test_run_argument_no_key_fills_exits_2_with_its_message(self, config_file, tmp_path,
                                                                 capsys, monkeypatch):
        def rejected(*args, **kwargs):
            raise ArgumentError("stream", "a stream needs at least 2 tasks, got 1")
        monkeypatch.setattr(cli, "run_continual", rejected)
        assert main(["run", "--config", str(config_file), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: a stream needs at least 2 tasks, got 1\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("case", ["config-is-a-directory", "grid-is-a-directory",
                                      "data-is-a-directory", "config-under-a-file"])
    def test_input_path_not_a_file_exits_2_names_it_and_writes_nothing(
            self, config_file, tmp_path, capsys, case):
        folder = tmp_path / "folder"
        folder.mkdir()
        out = ["--out", str(tmp_path / "o")]
        argv, path = {
            "config-is-a-directory": (["run", "--config", str(folder)] + out, folder),
            "grid-is-a-directory": (["sweep", "--config", str(config_file), "--grid",
                                     str(folder)] + out, folder),
            "data-is-a-directory": (["select", "--data", str(folder), "--m", "2"], folder),
            "config-under-a-file": (["run", "--config", str(config_file / "x")] + out,
                                    config_file / "x"),
        }[case]
        assert main(argv) == 2
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_naming_a_file_exits_2_before_the_run(self, config_file, tmp_path, capsys,
                                                     monkeypatch, command, below):
        def no_run(*args, **kwargs):
            raise AssertionError("run_continual called")
        monkeypatch.setattr(cli, "run_continual", no_run)
        blocker = tmp_path / "taken"
        blocker.write_text("x\n")
        argv = [command, "--config", str(config_file), "--out", str(blocker / below)]
        if command == "sweep":
            grid = tmp_path / "grid.cfg"
            grid.write_text("grid.nu = 0, 0.1\n")
            argv += ["--grid", str(grid)]
        assert main(argv) == 2
        assert f"--out: {blocker} exists and is not a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("fault, message", [
        ("run", "error: the run failed"),
        ("echo", "report.json config echo does not parse back: "
                 "unknown config key 'bogus.key'"),
    ])
    def test_program_fault_exits_1(self, config_file, tmp_path, capsys, monkeypatch,
                                   fault, message):
        if fault == "run":
            def failed_run(*args, **kwargs):
                raise RuntimeError("the run failed")
            monkeypatch.setattr(cli, "run_continual", failed_run)
        else:
            to_flat = RunConfig.to_flat
            monkeypatch.setattr(RunConfig, "to_flat",
                                lambda self: {**to_flat(self), "bogus.key": "1"})
        assert main(["run", "--config", str(config_file), "--out", str(tmp_path / "o")]) == 1
        assert message in capsys.readouterr().err

    def test_an_overflowing_hessian_prints_one_error_line(self, tmp_path, capsys):
        # a run's warnings go to stderr, so none may be issued before the error
        with warnings.catch_warnings(record=True) as issued:
            warnings.simplefilter("always")
            code = main(["run", "--config", str(CONFIGS / "example_run.cfg"),
                         "--set", "harness.reweight_constant=1e308",
                         "--out", str(tmp_path / "o")])
        assert code == 1 and [str(w.message) for w in issued] == []
        assert re.fullmatch(
            r"error: step 0 \(task 0, epoch 20, batch 0\): damped Hessian of the 12-sample "
            r"Hessian set has non-finite entries or overflows float64 \(damping=0\.01, "
            r"l2_strength=0\.01, largest weight 1e\+308\)\n", capsys.readouterr().err)


def test_readme_key_table_matches_the_schema():
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| key | default | meaning |") + 2
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
    keys = [key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(_SCHEMA)


def test_readme_artifact_columns_match_the_written_headers(config_file, tmp_path, capsys):
    """README's "Run artifacts" section lists each CSV's columns as the CLI
    writes them; ``...`` ends a list that goes on per task."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n### Run artifacts\n", 1)[1].split("\n#", 1)[0]
    documented = dict(re.findall(r"^- `(\w+\.csv)`.*? - `([^`]+)`", section, re.M))
    grid = tmp_path / "grid.cfg"
    grid.write_text("grid.nu = 0.1\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(config_file), "--grid", str(grid),
                 "--out", str(out)]) == 0
    written = {}
    for path in [out / "sweep.csv", *sorted((out / "point_000").glob("*.csv"))]:
        with path.open(newline="", encoding="utf-8") as fh:
            written[path.name] = next(csv.reader(fh))
    assert sorted(documented) == sorted(written)
    for name, columns in documented.items():
        columns = columns.split(",")
        if columns[-1] == "...":
            assert written[name][:len(columns) - 1] == columns[:-1], name
        else:
            assert written[name] == columns, name


BOM = "\ufeff".encode()


class TestByteOrderMark:
    """An input file saved with a UTF-8 byte-order mark reads as the same
    file without it."""

    def test_config_runs_byte_identically(self, tmp_path, capsys):
        reports = []
        for name, prefix in (("plain", b""), ("bom", BOM)):
            config = tmp_path / f"{name}.cfg"
            config.write_bytes(prefix + BASE_CONFIG.lstrip().encode())
            assert main(["run", "--config", str(config), "--out", str(tmp_path / name)]) == 0
            reports.append((tmp_path / name / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_grid_sweeps(self, config_file, tmp_path, capsys):
        grid = tmp_path / "grid.cfg"
        grid.write_bytes(BOM + b"# two points\ngrid.nu = 0, 0.1\n")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(config_file), "--grid", str(grid),
                     "--out", str(out)]) == 0
        with (out / "sweep.csv").open() as fh:
            assert [float(r["nu"]) for r in csv.DictReader(fh)] == [0.0, 0.1]

    def test_sample_csv_selects_the_same_ids(self, tmp_path, capsys):
        body = b"id,task,label,f0\n0,0,0,-1.0\n1,0,1,1.0\n2,0,0,-2.0\n3,0,1,0.5\n"
        printed = []
        for name, prefix in (("plain", b""), ("bom", BOM)):
            data = tmp_path / f"{name}.csv"
            data.write_bytes(prefix + body)
            assert main(["select", "--data", str(data), "--m", "2"]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] and len(printed[0].split()) == 2


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
        with pytest.raises(ValueError, match="unknown config key"):
            RunConfig.from_flat({"selector.kind": "reservoir", "criterion.m": "5",
                                 "bogus.key": "1"})

    def test_required_key_enforced(self):
        with pytest.raises(ValueError, match="criterion.m"):
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
        original = oracles.sample_hvp
        monkeypatch.setattr(oracles, "sample_hvp", lambda *args: -original(*args))
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

    def test_repeated_grid_key_exits_2_and_names_both_lines(self, config_file, tmp_path,
                                                             capsys):
        grid = tmp_path / "grid.cfg"
        grid.write_text("grid.nu = 0, 0.1\n# the same key again\ngrid.nu = 1\n")
        assert main(["sweep", "--config", str(config_file), "--grid", str(grid),
                     "--out", str(tmp_path / "s")]) == 2
        assert (f"{grid}:3: key 'grid.nu' is already set at line 1"
                in capsys.readouterr().err)
        assert not (tmp_path / "s").exists()

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
        # a budget of every row binds nothing and keeps them all
        assert main(["select", "--data", str(data), "--m", "6"]) == 0
        assert capsys.readouterr().out.split() == [str(i) for i in range(6)]

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

    @pytest.mark.parametrize("l2", ["-1", "5", "0.1"])
    def test_l2_with_quad1d_exits_2_and_names_it(self, tmp_path, capsys, l2):
        # quad1d has no L2 term, so any --l2 would be silently ignored
        data = tmp_path / "pool.csv"
        data.write_text("id,task,label,f0\n0,0,0,0.0\n1,0,0,1.0\n2,0,0,3.0\n")
        assert main(["select", "--data", str(data), "--m", "2", "--model", "quad1d"]) == 0
        capsys.readouterr()
        assert main(["select", "--data", str(data), "--m", "2", "--model", "quad1d",
                     "--l2", l2]) == 2
        assert "--l2: quad1d has no L2 term" in capsys.readouterr().err

    def test_mu_changes_the_kept_ids(self, tmp_path, capsys, off_optimum_guard):
        """Fitted on the file's first half, the pool is scored off its own
        optimum, so at nu=1 each mu keeps a different buffer."""
        rng = np.random.default_rng(5)
        centers = rng.normal(size=(3, 4)) * 1.5
        data = tmp_path / "pool.csv"
        data.write_text("id,task,label,f0,f1,f2,f3\n" + "".join(
            f"{i},0,{i % 3}," + ",".join(repr(float(v)) for v in rng.normal(size=4)
                                         + centers[i % 3]) + "\n"
            for i in range(60)))
        checked = off_optimum_guard(cli)
        kept = set()
        for mu in ("0", "0.5", "1"):
            assert main(["select", "--data", str(data), "--m", "20", "--mu", mu,
                         "--nu", "1"]) == 0
            kept.add(capsys.readouterr().out)
        assert len(kept) == len(checked) == 3

    @pytest.mark.parametrize("body", ["", "0,0,0,1.0\n"])
    def test_fewer_than_two_rows_exit_2_and_name_the_file_before_fitting(
            self, tmp_path, capsys, monkeypatch, body):
        data = tmp_path / "pool.csv"
        data.write_text("id,task,label,f0\n" + body)
        monkeypatch.setattr(cli, "fit", None)
        assert main(["select", "--data", str(data), "--m", "1"]) == 2
        assert f"{data}: select needs at least 2 samples" in capsys.readouterr().err

    def test_repeated_id_exits_2_and_names_row(self, tmp_path, capsys):
        data = tmp_path / "pool.csv"
        data.write_text("id,task,label,f0\n0,0,0,-1.0\n1,0,1,1.0\n1,0,0,-2.0\n")
        assert main(["select", "--data", str(data), "--m", "2"]) == 2
        assert "pool.csv: row 4: sample id 1 already used at row 3" in capsys.readouterr().err

    def test_usage_error_exits_2(self, capsys):
        assert main(["select", "--data", "x.csv"]) == 2  # missing --m

    def test_quad1d_on_two_features_exits_2_before_fitting(self, tmp_path, capsys,
                                                           monkeypatch):
        data = tmp_path / "pool.csv"
        data.write_text("id,task,label,f0,f1\n0,0,0,0.0,1.0\n1,0,0,1.0,0.0\n")
        monkeypatch.setattr(cli, "fit", None)
        assert main(["select", "--data", str(data), "--m", "1", "--model", "quad1d"]) == 2
        assert "quad1d selection needs exactly one feature column" in capsys.readouterr().err


class TestCommandsEnterNoOracle:
    """``coresel run``, ``sweep`` and ``select`` enter no function of
    ``coresel.oracles``: the slow, exact oracles stay off the run path."""

    @pytest.mark.parametrize("selector", ["regularized_if", "if_diversity", "reservoir"])
    def test_run(self, config_file, tmp_path, capsys, oracle_entries, selector):
        out = tmp_path / "o"
        codes = []
        assert oracle_entries(lambda: codes.append(main(
            ["run", "--config", str(config_file), "--out", str(out),
             "--set", f"selector.kind={selector}", "--set", "oracle.min_overlap=2"]))) == []
        assert codes == [0]
        taus = [p["tau"] for p in json.loads((out / "report.json").read_text())["tau_series"]]
        # the run reaches the tau checkpoint with the oracle on
        assert any(tau is not None for tau in taus)

    def test_sweep(self, config_file, tmp_path, capsys, oracle_entries):
        grid = tmp_path / "grid.cfg"
        grid.write_text("grid.nu = 0, 1\n")
        codes = []
        assert oracle_entries(lambda: codes.append(main(
            ["sweep", "--config", str(config_file), "--grid", str(grid),
             "--out", str(tmp_path / "sweep")]))) == []
        assert codes == [0]

    @pytest.mark.parametrize("model", ["logistic", "quad1d"])
    def test_select(self, tmp_path, capsys, oracle_entries, model):
        rng = np.random.default_rng(9)
        data = tmp_path / "pool.csv"
        data.write_text("id,task,label,f0\n" + "".join(
            f"{i},0,{i % 2},{rng.normal() + 2 * (i % 2)!r}\n" for i in range(30)))
        codes = []
        assert oracle_entries(lambda: codes.append(main(
            ["select", "--data", str(data), "--m", "10", "--model", model]))) == []
        assert codes == [0] and len(capsys.readouterr().out.split()) == 10


def defined_functions(module):
    """``{(file, first line, name): qualified name}`` of every function in
    ``module``'s source; a decorated function's first line is its first
    decorator's, as in its code object."""
    prefix = module.__name__.rpartition(".")[2]
    found = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[module.__file__, first, child.name] = f"{prefix}.{scope}{child.name}"
                visit(child, f"{scope}{child.name}.<locals>.")
            else:
                visit(child, f"{scope}{child.name}." if isinstance(child, ast.ClassDef)
                      else scope)

    visit(ast.parse(Path(module.__file__).read_text(encoding="utf-8")), "")
    return found


def test_the_run_path_modules_hold_what_the_commands_enter(
        config_file, csv_config_file, tmp_path, capsys, function_entries):
    """``run`` under every selector with the oracle on and on a csv stream,
    a two-point ``sweep`` and ``select`` on both models enter every
    function of ``models``, ``influence``, ``selection`` and ``harness``
    but the leave-one-out cluster, which the benchmark still calls there,
    and one path that only bad input reaches."""
    data = tmp_path / "pool.csv"
    rng = np.random.default_rng(9)
    data.write_text("id,task,label,f0\n" + "".join(
        f"{i},0,{i % 2},{rng.normal() + 2 * (i % 2)!r}\n" for i in range(30)))
    grid = tmp_path / "grid.cfg"
    grid.write_text("grid.nu = 0, 1\n")
    commands = [["run", "--config", str(config_file), "--out", str(tmp_path / kind.value),
                 "--set", f"selector.kind={kind.value}", "--set", "oracle.min_overlap=2"]
                for kind in selection.SelectorKind]
    commands += [["run", "--config", str(csv_config_file), "--out", str(tmp_path / "csv")],
                 ["sweep", "--config", str(config_file), "--grid", str(grid),
                  "--out", str(tmp_path / "sweep")]]
    commands += [["select", "--data", str(data), "--m", "10", "--model", model]
                 for model in ("logistic", "quad1d")]
    modules = (models, influence, selection, harness)
    defined = {key: name for module in modules for key, name in defined_functions(module).items()}
    codes = []
    entered = function_entries(lambda: codes.extend(map(main, commands)),
                               {module.__file__ for module in modules})
    assert codes == [0] * len(commands)
    assert sorted(name for key, name in defined.items() if key not in entered) == [
        "harness._loo_refits", "harness.loo_retrain_delta", "harness.loo_retrain_deltas",
        "models._check_sample", "models.loss_sum"]


def _is_glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError):
        return False


class TestAllocatorPolicy:
    """``cli.main`` has glibc keep the heap it frees, unless the user has
    set the allocator; the library itself sets no process-wide state."""

    ENV = (*cli._MALLOC_ENV, "GLIBC_TUNABLES")

    class FakeLibc:
        def __init__(self):
            self.calls, self.returns = [], 1
            # a function, not a method, so that it takes argtypes and restype
            self.mallopt = lambda param, value: self.calls.append((param, value)) or self.returns

    @pytest.fixture
    def libc(self, monkeypatch):
        """A fake libc behind ``ctypes.CDLL``, on glibc, with no user
        allocator settings; the once-per-process cache starts and ends
        empty."""
        fake = self.FakeLibc()
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: fake)
        monkeypatch.setattr(cli.os, "confstr", lambda name: "glibc 2.36")
        for var in self.ENV:
            monkeypatch.delenv(var, raising=False)
        cli._keep_freed_heap.cache_clear()
        yield fake
        cli._keep_freed_heap.cache_clear()

    def test_sets_both_thresholds_once_per_process(self, libc):
        cli._keep_freed_heap()
        cli._keep_freed_heap()
        assert libc.calls == [(-1, 64 << 20), (-3, 32 << 20)]

    @pytest.mark.parametrize("var, value", [
        ("MALLOC_TRIM_THRESHOLD_", "0"), ("MALLOC_TOP_PAD_", "4096"),
        ("MALLOC_MMAP_THRESHOLD_", "131072"), ("MALLOC_MMAP_MAX_", "0"),
        ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=0"),
        ("GLIBC_TUNABLES", "glibc.rtld.nns=2:glibc.malloc.arena_max=1")])
    def test_user_allocator_settings_take_precedence(self, libc, monkeypatch, var, value):
        monkeypatch.setenv(var, value)
        cli._keep_freed_heap()
        assert libc.calls == []

    def test_unrelated_tunables_leave_the_policy_on(self, libc, monkeypatch):
        monkeypatch.setenv("GLIBC_TUNABLES", "glibc.rtld.nns=2")
        cli._keep_freed_heap()
        assert len(libc.calls) == 2

    @staticmethod
    def unsupported_name(name):
        raise ValueError("unrecognized configuration name")

    @pytest.mark.parametrize("confstr", [lambda name: None, unsupported_name],
                             ids=["unset", "unsupported"])
    def test_does_nothing_off_glibc(self, libc, monkeypatch, confstr):
        monkeypatch.setattr(cli.os, "confstr", confstr)
        cli._keep_freed_heap()
        assert libc.calls == []

    def test_missing_mallopt_is_a_silent_no_op(self, monkeypatch, libc):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
        assert cli._keep_freed_heap() is None

    def test_a_refusing_mallopt_is_a_silent_no_op(self, libc):
        libc.returns = 0
        assert cli._keep_freed_heap() is None
        assert len(libc.calls) == 2

    def test_main_sets_the_policy_before_parsing(self, monkeypatch, capsys):
        order = []
        monkeypatch.setattr(cli, "_keep_freed_heap", lambda: order.append("heap"))
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda: order.append("parse") or build_parser())
        assert main(["no-such-command"]) == 2
        assert order == ["heap", "parse"]

    @pytest.mark.skipif(not _is_glibc(), reason="the policy applies to glibc only")
    def test_a_second_run_in_one_process_faults_no_pages_back_in(self, tmp_path):
        """Two scaled runs (p = 200) in one fresh process; the second one
        reuses the heap the first freed. Second-run minor faults over 30
        fresh processes each (2-vCPU Xeon VM, glibc 2.36, numpy 2.4): 19-25
        with the policy, 10,650-10,840 without it (9,826-9,830 with one
        BLAS thread)."""
        code = ("import contextlib, io, resource, sys\n"
                "from coresel import cli\n"
                "faults = []\n"
                "for _ in range(2):\n"
                "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        assert cli.main(sys.argv[1:]) == 0\n"
                "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
                "print(*faults)\n")
        argv = ["run", "--config", str(CONFIGS / "example_run.cfg"), "--out", str(tmp_path)]
        for assignment in ("stream.samples_per_class=40", "criterion.m=60",
                           "stream.dim=20", "model.dim=20"):
            argv += ["--set", assignment]
        env = {k: v for k, v in os.environ.items() if k not in self.ENV}
        env["PYTHONPATH"] = str(ROOT / "src")
        out = subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True,
                             timeout=120, capture_output=True, text=True).stdout
        _, second = map(int, out.split())
        assert second < 1_000
