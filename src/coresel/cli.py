"""Command-line entry point.

Configs are flat ``key = value`` text files with dotted keys (see the README
key table); ``#`` starts a comment. All randomness flows from the single
``seed`` key, expanded into named sub-streams inside the harness. Exit
codes: 0 success, 1 runtime or validation failure, 2 usage/config errors.
"""

import argparse
import csv
import itertools
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .harness import (
    OracleConfig,
    RunArgumentError,
    RunReport,
    StreamSpec,
    _parse_csv_samples,
    make_stream,
    run_continual,
)
from .influence import CriterionConfig, build_context
from .models import FitConfig, ModelSpec, fit
from .numkit import DEFAULT_DAMPING
from .selection import SelectorKind, select_greedy

SWEEP_POINT_LIMIT = 100


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config file handling
# ---------------------------------------------------------------------------

def parse_flat_file(path) -> dict:
    """Read a flat key=value config file into an ordered dict of strings."""
    text = Path(path).read_text(encoding="utf-8")
    flat = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        flat[key.strip()] = value.strip()
    return flat


def _conv_int(v):
    return int(v)


def _conv_float(v):
    return float(v)


def _conv_bool(v):
    if isinstance(v, bool):
        return v
    if str(v).lower() in ("true", "1", "yes"):
        return True
    if str(v).lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {v!r}")


def _conv_str(v):
    return str(v)


def _conv_float_tuple(v):
    if v is None or v == "":
        return None
    if isinstance(v, (list, tuple)):
        return tuple(float(x) for x in v)
    return tuple(float(x) for x in str(v).split(","))


def _conv_opt_float(v):
    if v is None or v == "":
        return None
    return float(v)


def _conv_opt_str(v):
    if v is None or v == "":
        return None
    return str(v)


# key -> (converter, default); _REQUIRED means the key must be present
_REQUIRED = object()

_SCHEMA = {
    "seed": (_conv_int, 0),
    "selector.kind": (_conv_str, _REQUIRED),
    "stream.source": (_conv_str, "synthetic_gaussian"),
    "stream.num_tasks": (_conv_int, 2),
    "stream.classes_per_task": (_conv_int, 2),
    "stream.samples_per_class": (_conv_int, 50),
    "stream.dim": (_conv_int, 2),
    "stream.batch_size": (_conv_int, 10),
    "stream.seed": (_conv_int, 0),
    "stream.mean_scale": (_conv_float, 3.0),
    "stream.within_std": (_conv_float, 1.0),
    "stream.drift_offsets": (_conv_float_tuple, None),
    "stream.label_noise": (_conv_float_tuple, None),
    "stream.test_fraction": (_conv_float, 0.2),
    "stream.train_csv": (_conv_opt_str, None),
    "stream.test_csv": (_conv_opt_str, None),
    "model.kind": (_conv_str, "logistic"),
    "model.dim": (_conv_int, 2),
    "model.num_classes": (_conv_int, 4),
    "model.l2_strength": (_conv_float, 0.05),
    "criterion.m": (_conv_int, _REQUIRED),
    "criterion.mu": (_conv_float, 0.5),
    "criterion.nu": (_conv_float, 0.01),
    "fit.learning_rate": (_conv_float, 0.01),
    "fit.epochs": (_conv_int, 2),
    "harness.damping": (_conv_float, DEFAULT_DAMPING),
    "harness.refit_at_selection": (_conv_bool, False),
    "harness.reweight_constant": (_conv_opt_float, None),
    "oracle.enabled": (_conv_bool, True),
    "oracle.buffer_multiplier": (_conv_int, 4),
    "oracle.min_overlap": (_conv_int, 10),
}


# keys that only a synthetic stream reads, and keys that only a csv stream reads
_SYNTHETIC_STREAM_KEYS = (
    "stream.num_tasks", "stream.classes_per_task", "stream.samples_per_class",
    "stream.dim", "stream.seed", "stream.mean_scale", "stream.within_std",
    "stream.drift_offsets", "stream.label_noise", "stream.test_fraction",
)
_CSV_STREAM_KEYS = ("stream.train_csv", "stream.test_csv")

# run_continual / OracleConfig argument -> the config key that sets it
_ARGUMENT_KEYS = {
    "budget": "criterion.m",
    "learning_rate": "fit.learning_rate",
    "epochs": "fit.epochs",
    "damping": "harness.damping",
    "reweight_constant": "harness.reweight_constant",
    "buffer_multiplier": "oracle.buffer_multiplier",
    "min_overlap": "oracle.min_overlap",
}


def _argument_error(exc: RunArgumentError) -> ConfigError:
    return ConfigError(f"config key '{_ARGUMENT_KEYS[exc.argument]}': {exc}")


@dataclass(frozen=True)
class RunConfig:
    stream: StreamSpec
    model: ModelSpec
    selector: SelectorKind
    criterion: CriterionConfig
    learning_rate: float
    epochs: int
    oracle: Optional[OracleConfig]
    damping: float
    refit_at_selection: bool
    reweight_constant: Optional[float]
    seed: int

    @classmethod
    def from_flat(cls, flat: dict) -> "RunConfig":
        flat = dict(flat)
        given = set(flat)
        values = {}
        for key, (convert, default) in _SCHEMA.items():
            if key in flat:
                raw = flat.pop(key)
                try:
                    values[key] = convert(raw)
                except (ValueError, TypeError) as exc:
                    raise ConfigError(f"config key '{key}': {exc}") from exc
            elif default is _REQUIRED:
                raise ConfigError(f"config key '{key}' is required")
            else:
                values[key] = default
        if flat:
            raise ConfigError(f"unknown config key '{next(iter(flat))}'")

        def build(factory, kwargs, context):
            try:
                return factory(**kwargs)
            except RunArgumentError as exc:
                raise _argument_error(exc) from exc
            except ValueError as exc:
                raise ConfigError(f"config section '{context}': {exc}") from exc

        stream = build(StreamSpec, dict(
            source=values["stream.source"], num_tasks=values["stream.num_tasks"],
            classes_per_task=values["stream.classes_per_task"],
            samples_per_class=values["stream.samples_per_class"],
            dim=values["stream.dim"], batch_size=values["stream.batch_size"],
            seed=values["stream.seed"], mean_scale=values["stream.mean_scale"],
            within_std=values["stream.within_std"],
            drift_offsets=values["stream.drift_offsets"],
            label_noise=values["stream.label_noise"],
            test_fraction=values["stream.test_fraction"],
            train_csv=values["stream.train_csv"], test_csv=values["stream.test_csv"],
        ), "stream")
        ignored = _SYNTHETIC_STREAM_KEYS if stream.source == "csv" else _CSV_STREAM_KEYS
        for key in ignored:
            if key in given and values[key] is not None:
                raise ConfigError(f"config key '{key}' does not apply to a "
                                  f"{stream.source} stream")
        if stream.source == "csv":
            for key in ("stream.train_csv", "stream.test_csv"):
                if not Path(values[key]).exists():
                    raise ConfigError(f"config key '{key}': file not found: {values[key]}")
        model = build(ModelSpec, dict(
            kind=values["model.kind"], dim=values["model.dim"],
            num_classes=values["model.num_classes"],
            l2_strength=values["model.l2_strength"]), "model")
        try:
            selector = SelectorKind(values["selector.kind"])
        except ValueError:
            names = ", ".join(k.value for k in SelectorKind)
            raise ConfigError(
                f"config key 'selector.kind': {values['selector.kind']!r} "
                f"is not one of {names}") from None
        criterion = build(CriterionConfig, dict(
            budget=values["criterion.m"], mu=values["criterion.mu"],
            nu=values["criterion.nu"]), "criterion")
        oracle = None
        if values["oracle.enabled"]:
            oracle = build(OracleConfig, dict(
                buffer_multiplier=values["oracle.buffer_multiplier"],
                min_overlap=values["oracle.min_overlap"]), "oracle")
        if model.kind != "logistic":
            raise ConfigError("config key 'model.kind': the continual loop drives "
                              "classification models; use the library directly for quad1d")
        if stream.source == "synthetic_gaussian":
            if model.dim != stream.dim:
                raise ConfigError(
                    f"config key 'model.dim': {model.dim} does not match stream.dim {stream.dim}")
            total = stream.num_tasks * stream.classes_per_task
            if model.num_classes < total:
                raise ConfigError(
                    f"config key 'model.num_classes': {model.num_classes} is below the "
                    f"stream's {total} classes")
        return cls(stream=stream, model=model, selector=selector,
                   criterion=criterion, learning_rate=values["fit.learning_rate"],
                   epochs=values["fit.epochs"], oracle=oracle,
                   damping=values["harness.damping"],
                   refit_at_selection=values["harness.refit_at_selection"],
                   reweight_constant=values["harness.reweight_constant"],
                   seed=values["seed"])

    def to_flat(self) -> dict:
        """Echo as a flat dict that reparses to an equal RunConfig.

        A csv stream's echo leaves the synthetic-stream keys out; a
        synthetic stream's echo holds the csv keys as None, which reads as
        unset.
        """
        s, m, c = self.stream, self.model, self.criterion
        flat = {
            "seed": self.seed,
            "selector.kind": self.selector.value,
            "stream.source": s.source, "stream.num_tasks": s.num_tasks,
            "stream.classes_per_task": s.classes_per_task,
            "stream.samples_per_class": s.samples_per_class,
            "stream.dim": s.dim, "stream.batch_size": s.batch_size,
            "stream.seed": s.seed, "stream.mean_scale": s.mean_scale,
            "stream.within_std": s.within_std,
            "stream.drift_offsets": list(s.drift_offsets) if s.drift_offsets else None,
            "stream.label_noise": list(s.label_noise) if s.label_noise else None,
            "stream.test_fraction": s.test_fraction,
            "stream.train_csv": s.train_csv, "stream.test_csv": s.test_csv,
            "model.kind": m.kind, "model.dim": m.dim,
            "model.num_classes": m.num_classes, "model.l2_strength": m.l2_strength,
            "criterion.m": c.budget, "criterion.mu": c.mu, "criterion.nu": c.nu,
            "fit.learning_rate": self.learning_rate, "fit.epochs": self.epochs,
            "harness.damping": self.damping,
            "harness.refit_at_selection": self.refit_at_selection,
            "harness.reweight_constant": self.reweight_constant,
            "oracle.enabled": self.oracle is not None,
        }
        if s.source == "csv":
            for key in _SYNTHETIC_STREAM_KEYS:
                del flat[key]
        if self.oracle is not None:
            flat["oracle.buffer_multiplier"] = self.oracle.buffer_multiplier
            flat["oracle.min_overlap"] = self.oracle.min_overlap
        return flat


def _read_input(reader, source):
    """Read a stream or sample file, reporting bad input as a config error
    (exit code 2) instead of a failed run."""
    try:
        return reader(source)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def execute_run(cfg: RunConfig) -> RunReport:
    stream = _read_input(make_stream, cfg.stream)
    try:
        return run_continual(stream, cfg.model, cfg.selector, cfg.criterion,
                             cfg.oracle, cfg.seed,
                             learning_rate=cfg.learning_rate, epochs=cfg.epochs,
                             reweight_constant=cfg.reweight_constant,
                             refit_at_selection=cfg.refit_at_selection,
                             damping=cfg.damping, config_echo=cfg.to_flat())
    except RunArgumentError as exc:
        raise _argument_error(exc) from exc
    except ValueError as exc:
        # run_continual checks its arguments before step 0 and raises
        # ValueError; failures during the run are wrapped as RuntimeError
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# artifact files
# ---------------------------------------------------------------------------

def write_artifacts(out_dir, report: RunReport):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(
        json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n",
        encoding="utf-8")
    R = report.acc_matrix.values
    T = R.shape[0]
    with (out / "acc_matrix.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["after_task"] + [f"task_{j}" for j in range(T)])
        for i in range(T):
            row = [i] + [("" if j > i else repr(float(R[i, j]))) for j in range(T)]
            writer.writerow(row)
    with (out / "metrics.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "task", "tau", "buffer_size"])
        for p in report.tau_series:
            writer.writerow([p.step, p.task, "" if p.tau is None else repr(p.tau),
                             p.buffer_size])
    with (out / "buffer_trace.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "kept_ids"])
        for step, ids in report.buffer_trace:
            writer.writerow([step, ";".join(str(i) for i in ids)])
    _check_artifacts(out, report)


def _check_artifacts(out: Path, report: RunReport):
    """Re-read every artifact and verify it parses per its schema."""
    parsed = json.loads((out / "report.json").read_text(encoding="utf-8"))
    if parsed.get("schema") != "coresel-report-v1":
        raise RuntimeError("report.json failed schema check")
    reparsed = RunConfig.from_flat(parsed["config"])
    if reparsed.to_flat() != parsed["config"]:
        raise RuntimeError("report.json config echo does not round-trip")
    for name, expected_header in [("acc_matrix.csv", "after_task"),
                                  ("metrics.csv", "step"),
                                  ("buffer_trace.csv", "step")]:
        with (out / name).open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0][0] != expected_header:
            raise RuntimeError(f"{name} failed schema check")
    n_rows = len(list(csv.reader((out / "metrics.csv").open(encoding="utf-8")))) - 1
    if n_rows != len(report.tau_series):
        raise RuntimeError("metrics.csv row count mismatch")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _load_config(args) -> RunConfig:
    flat = parse_flat_file(args.config)
    for assignment in args.set or []:
        if "=" not in assignment:
            raise ConfigError(f"--set expects KEY=VALUE, got {assignment!r}")
        key, value = assignment.split("=", 1)
        flat[key.strip()] = value.strip()
    if getattr(args, "seed", None) is not None:
        flat["seed"] = str(args.seed)
    return RunConfig.from_flat(flat)


def cmd_run(args) -> int:
    cfg = _load_config(args)
    report = execute_run(cfg)
    write_artifacts(args.out, report)
    print(f"run complete: selector={report.selector} acc={report.acc:.4f} "
          f"bwt={report.bwt:.4f} artifacts in {args.out}")
    return 0


def cmd_validate(args) -> int:
    from . import validation
    names = validation.suite_names(args.filter)
    if not names:
        raise ConfigError(f"--filter {args.filter!r} matches no validation suite")
    results = validation.run_suites(names)
    width = max(len(r.name) for r in results)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  [{r.seconds:6.2f}s]  {r.detail}")
    print(f"{len(results) - len(failed)}/{len(results)} suites passed")
    return 0 if not failed else 1


def cmd_sweep(args) -> int:
    flat = parse_flat_file(args.config)
    grid = parse_flat_file(args.grid)
    mu_values = _conv_float_tuple(grid.pop("grid.mu", "")) or None
    nu_values = _conv_float_tuple(grid.pop("grid.nu", "")) or None
    if grid:
        raise ConfigError(f"unknown grid key '{next(iter(grid))}'")
    if mu_values is None and nu_values is None:
        raise ConfigError("grid file must set grid.mu and/or grid.nu")
    base = RunConfig.from_flat(dict(flat))
    mu_values = mu_values or (base.criterion.mu,)
    nu_values = nu_values or (base.criterion.nu,)
    points = list(itertools.product(mu_values, nu_values))
    if len(points) > SWEEP_POINT_LIMIT:
        raise ConfigError(f"grid has {len(points)} points, limit is {SWEEP_POINT_LIMIT}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for idx, (mu, nu) in enumerate(points):
        point_flat = dict(flat)
        point_flat["criterion.mu"] = str(mu)
        point_flat["criterion.nu"] = str(nu)
        cfg = RunConfig.from_flat(point_flat)
        report = execute_run(cfg)
        write_artifacts(out / f"point_{idx:03d}", report)
        mean_tau = report.mean_tau
        rows.append([mu, nu, report.acc, report.bwt,
                     "" if mean_tau is None else repr(mean_tau)])
        print(f"point {idx:03d}: mu={mu} nu={nu} acc={report.acc:.4f}")
    with (out / "sweep.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mu", "nu", "acc", "bwt", "mean_tau"])
        writer.writerows(rows)
    return 0


def cmd_select(args) -> int:
    samples, dim = _read_input(_parse_csv_samples, args.data)
    if not samples:
        raise ConfigError(f"{args.data}: no samples")
    if args.model == "quad1d":
        if dim != 1:
            raise ConfigError("quad1d selection needs exactly one feature column")
        model = ModelSpec(kind="quad1d", dim=1)
        params = fit(model, samples, FitConfig(method="closed_form"))
    else:
        num_classes = max(s.label for s in samples) + 1
        model = ModelSpec(kind="logistic", dim=dim, num_classes=max(num_classes, 2),
                          l2_strength=args.l2)
        params = fit(model, samples, FitConfig(method="newton"))
    ctx = build_context(model, params, samples, samples, damping=args.damping)
    cfg = CriterionConfig(budget=args.m, mu=args.mu, nu=args.nu)
    buffer, _ = select_greedy(ctx, cfg, SelectorKind.REGULARIZED_IF)
    print(" ".join(str(i) for i in sorted(buffer.ids())))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coresel",
        description="Influence-guided replay-buffer selection experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one configured experiment")
    run.add_argument("--config", required=True)
    run.add_argument("--out", default="out")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--set", action="append", metavar="KEY=VALUE")
    run.set_defaults(func=cmd_run)

    validate = sub.add_parser("validate", help="run the oracle validation suites")
    validate.add_argument("--filter", default=None,
                          help="run only suites whose name contains this substring")
    validate.set_defaults(func=cmd_validate)

    sweep = sub.add_parser("sweep", help="grid sweep over criterion.mu / criterion.nu")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--grid", required=True)
    sweep.add_argument("--out", default="sweep_out")
    sweep.set_defaults(func=cmd_sweep)

    select = sub.add_parser("select", help="one-shot selection on a CSV sample file")
    select.add_argument("--data", required=True)
    select.add_argument("--m", type=int, required=True)
    select.add_argument("--mu", type=float, default=0.5)
    select.add_argument("--nu", type=float, default=0.01)
    select.add_argument("--model", choices=["logistic", "quad1d"], default="logistic")
    select.add_argument("--l2", type=float, default=0.1)
    select.add_argument("--damping", type=float, default=DEFAULT_DAMPING)
    select.set_defaults(func=cmd_select)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
