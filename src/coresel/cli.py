"""Command-line entry point.

Configs are flat ``key = value`` text files with dotted keys (see the README
key table); ``#`` starts a comment. All randomness flows from the single
``seed`` key, expanded into named sub-streams inside the harness.

Exit codes: 0 success, 2 bad input, 1 any other failure. :func:`main` alone
picks the code, by the library's contract that ``ValueError`` is bad input
and ``RuntimeError`` a failed run; elsewhere this module re-raises an error
only to name its key, flag or file.
"""

import argparse
import csv
import functools
import itertools
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .harness import (
    OracleConfig,
    RunReport,
    StreamSpec,
    _parse_csv_samples,
    make_stream,
    run_continual,
)
from .influence import CriterionConfig, build_context
from .models import FitConfig, ModelSpec, fit
from .numkit import DEFAULT_DAMPING, ArgumentError, check_real
from .selection import SelectorKind, select_greedy

SWEEP_POINT_LIMIT = 100


# ---------------------------------------------------------------------------
# config file handling
# ---------------------------------------------------------------------------

def parse_flat_file(path) -> dict:
    """Read a flat key=value config file into an ordered dict of strings.
    A key set twice is an error that names both lines."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    flat, first_line = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in flat:
            raise ValueError(f"{path}:{lineno}: key '{key}' is already set at line "
                             f"{first_line[key]}")
        flat[key], first_line[key] = value, lineno
    return flat


def _conv_bool(v):
    if isinstance(v, bool):
        return v
    if str(v).lower() in ("true", "1", "yes"):
        return True
    if str(v).lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {v!r}")


def _conv_float_tuple(v):
    if isinstance(v, (list, tuple)):
        return tuple(float(x) for x in v)
    return tuple(float(x) for x in str(v).split(","))


def _conv_selector(v):
    kind = str(v)
    try:
        return SelectorKind(kind)
    except ValueError:
        names = ", ".join(k.value for k in SelectorKind)
        raise ValueError(f"{kind!r} is not one of {names}") from None


class _Key(NamedTuple):
    """One config key: its converter and default, the ``RunConfig`` part it
    fills (``run`` is the config itself) and that part's field, and the
    stream source it applies to, or None for every source. A key whose
    default is None reads None and the empty string as unset."""

    convert: Callable
    default: object
    part: str
    field: str
    source: Optional[str] = None


# _REQUIRED as a default means the key must be present
_REQUIRED = object()
_SYNTHETIC = "synthetic_gaussian"

# the stream, criterion and oracle defaults are their dataclasses'; the model
# keys keep defaults of their own, sized for the example run
_SCHEMA = {
    "seed": _Key(int, 0, "run", "seed"),
    "selector.kind": _Key(_conv_selector, _REQUIRED, "run", "selector"),
    "stream.source": _Key(str, StreamSpec.source, "stream", "source"),
    "stream.num_tasks": _Key(int, StreamSpec.num_tasks, "stream", "num_tasks", _SYNTHETIC),
    "stream.classes_per_task": _Key(int, StreamSpec.classes_per_task, "stream",
                                    "classes_per_task", _SYNTHETIC),
    "stream.samples_per_class": _Key(int, StreamSpec.samples_per_class, "stream",
                                     "samples_per_class", _SYNTHETIC),
    "stream.dim": _Key(int, StreamSpec.dim, "stream", "dim", _SYNTHETIC),
    "stream.batch_size": _Key(int, StreamSpec.batch_size, "stream", "batch_size"),
    "stream.seed": _Key(int, StreamSpec.seed, "stream", "seed", _SYNTHETIC),
    "stream.mean_scale": _Key(float, StreamSpec.mean_scale, "stream", "mean_scale", _SYNTHETIC),
    "stream.within_std": _Key(float, StreamSpec.within_std, "stream", "within_std", _SYNTHETIC),
    "stream.drift_offsets": _Key(_conv_float_tuple, StreamSpec.drift_offsets, "stream",
                                 "drift_offsets", _SYNTHETIC),
    "stream.label_noise": _Key(_conv_float_tuple, StreamSpec.label_noise, "stream",
                               "label_noise", _SYNTHETIC),
    "stream.test_fraction": _Key(float, StreamSpec.test_fraction, "stream", "test_fraction",
                                 _SYNTHETIC),
    "stream.train_csv": _Key(str, StreamSpec.train_csv, "stream", "train_csv", "csv"),
    "stream.test_csv": _Key(str, StreamSpec.test_csv, "stream", "test_csv", "csv"),
    "model.dim": _Key(int, 2, "model", "dim"),
    "model.num_classes": _Key(int, 4, "model", "num_classes"),
    "model.l2_strength": _Key(float, 0.05, "model", "l2_strength"),
    "criterion.m": _Key(int, _REQUIRED, "criterion", "budget"),
    "criterion.mu": _Key(float, CriterionConfig.mu, "criterion", "mu"),
    "criterion.nu": _Key(float, CriterionConfig.nu, "criterion", "nu"),
    "fit.learning_rate": _Key(float, 0.01, "run", "learning_rate"),
    "fit.epochs": _Key(int, 2, "run", "epochs"),
    "harness.damping": _Key(float, DEFAULT_DAMPING, "run", "damping"),
    "harness.reweight_constant": _Key(float, None, "run", "reweight_constant"),
    "oracle.enabled": _Key(_conv_bool, True, "run", "oracle"),
    "oracle.buffer_multiplier": _Key(int, OracleConfig.buffer_multiplier, "oracle",
                                     "buffer_multiplier"),
    "oracle.min_overlap": _Key(int, OracleConfig.min_overlap, "oracle", "min_overlap"),
}

# the parts a run config is built from, in build order; the run loop drives
# the logistic model only
_PARTS = (("stream", StreamSpec), ("model", functools.partial(ModelSpec, kind="logistic")),
          ("criterion", CriterionConfig), ("oracle", OracleConfig))


def _argument_error(exc: ArgumentError, part: str) -> ValueError:
    """``exc`` raised while building ``part``, prefixed with its config key."""
    # a field name may recur in another part (``seed`` fills the run and the
    # stream, ``dim`` the stream and the model), so a key of ``part`` comes first
    keys = [key for key, row in _SCHEMA.items() if row.field == exc.argument]
    key = min(keys, key=lambda k: _SCHEMA[k].part != part)
    return ValueError(f"config key '{key}': {exc}")


def _build(factory, kwargs: dict, part: str):
    try:
        return factory(**kwargs)
    except ArgumentError as exc:
        raise _argument_error(exc, part) from exc


def _echo(value):
    """A config value as the JSON echo holds it."""
    if isinstance(value, SelectorKind):
        return value.value
    if isinstance(value, tuple):
        return list(value)
    return value


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
    reweight_constant: Optional[float]
    seed: int

    @classmethod
    def from_flat(cls, flat: dict) -> "RunConfig":
        """Parse a flat config. The oracle's values are checked even when
        ``oracle.enabled`` is false; the config then holds no oracle."""
        kwargs = {"run": {}, **{part: {} for part, _ in _PARTS}}
        for key, row in _SCHEMA.items():
            if key in flat and not (row.default is None and flat[key] in (None, "")):
                try:
                    kwargs[row.part][row.field] = row.convert(flat[key])
                except (ValueError, TypeError) as exc:
                    raise ValueError(f"config key '{key}': {exc}") from exc
            elif row.default is _REQUIRED:
                raise ValueError(f"config key '{key}' is required")
            else:
                kwargs[row.part][row.field] = row.default
        unknown = [key for key in flat if key not in _SCHEMA]
        if unknown:
            raise ValueError(f"unknown config key '{unknown[0]}'")

        parts = {part: _build(factory, kwargs[part], part) for part, factory in _PARTS}
        stream = parts["stream"]
        for key, row in _SCHEMA.items():
            if row.source is None:
                continue
            value = getattr(stream, row.field)
            if row.source != stream.source:
                if key in flat and value is not None:
                    raise ValueError(f"config key '{key}' does not apply to a "
                                     f"{stream.source} stream")
            elif row.source == "csv" and not Path(value).is_file():
                raise ValueError(f"config key '{key}': file not found: {value}")
        run = kwargs["run"]
        run["oracle"] = parts["oracle"] if run["oracle"] else None
        return cls(stream=stream, model=parts["model"], criterion=parts["criterion"], **run)

    def to_flat(self) -> dict:
        """Echo as a flat dict that reparses to an equal RunConfig.

        A csv stream's echo leaves the synthetic-stream keys out, and a
        disabled oracle's echo its values; a synthetic stream's echo holds
        the csv keys as None, which reads as unset.
        """
        owners = {"run": self, "stream": self.stream, "model": self.model,
                  "criterion": self.criterion, "oracle": self.oracle}
        flat = {}
        for key, row in _SCHEMA.items():
            owner = owners[row.part]
            if owner is None or (row.source == _SYNTHETIC and self.stream.source == "csv"):
                continue
            flat[key] = _echo(getattr(owner, row.field))
        # the run holds the oracle's config, or None when it is off
        flat["oracle.enabled"] = self.oracle is not None
        return flat


def execute_run(cfg: RunConfig) -> RunReport:
    """Load the stream, check it against the model, run, and echo the config."""
    stream = make_stream(cfg.stream)
    model = cfg.model
    if model.dim != stream.dim:
        raise ValueError(
            f"config key 'model.dim': {model.dim} does not match stream.dim {stream.dim}")
    if model.num_classes < stream.num_classes:
        raise ValueError(
            f"config key 'model.num_classes': {model.num_classes} is below the "
            f"stream's {stream.num_classes} classes")
    try:
        report = run_continual(stream, cfg.model, cfg.selector, cfg.criterion,
                               cfg.oracle, cfg.seed,
                               learning_rate=cfg.learning_rate, epochs=cfg.epochs,
                               reweight_constant=cfg.reweight_constant,
                               damping=cfg.damping)
    except ArgumentError as exc:
        raise _argument_error(exc, "run") from exc
    report.config = cfg.to_flat()
    return report


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
        for s in report.steps:
            writer.writerow([s.step, s.task, "" if s.tau is None else repr(s.tau),
                             len(s.kept_ids)])
    with (out / "buffer_trace.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "kept_ids"])
        for s in report.steps:
            writer.writerow([s.step, ";".join(str(i) for i in s.kept_ids)])
    _check_artifacts(out, report)


def _check_artifacts(out: Path, report: RunReport):
    """Re-read every artifact and verify it parses per its schema."""
    parsed = json.loads((out / "report.json").read_text(encoding="utf-8"))
    if parsed.get("schema") != "coresel-report-v1":
        raise RuntimeError("report.json failed schema check")
    try:
        reparsed = RunConfig.from_flat(parsed["config"])
    except ValueError as exc:  # this program wrote the echo: not an input error
        raise RuntimeError(f"report.json config echo does not parse back: {exc}") from exc
    if reparsed.to_flat() != parsed["config"]:
        raise RuntimeError("report.json config echo does not round-trip")
    for name, expected_header in [("acc_matrix.csv", "after_task"),
                                  ("metrics.csv", "step"),
                                  ("buffer_trace.csv", "step")]:
        with (out / name).open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0][0] != expected_header:
            raise RuntimeError(f"{name} failed schema check")
        if name == "metrics.csv" and len(rows) - 1 != len(report.steps):
            raise RuntimeError("metrics.csv row count mismatch")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _load_config(args) -> RunConfig:
    flat = parse_flat_file(args.config)
    for assignment in args.set or []:
        if "=" not in assignment:
            raise ValueError(f"--set expects KEY=VALUE, got {assignment!r}")
        key, value = assignment.split("=", 1)
        flat[key.strip()] = value.strip()
    if getattr(args, "seed", None) is not None:
        flat["seed"] = str(args.seed)
    return RunConfig.from_flat(flat)


def _out_dir(path) -> Path:
    """``--out`` as a Path, checked before any run: its nearest existing
    ancestor (itself included) must be a directory."""
    out = Path(path)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ValueError(f"--out: {existing} exists and is not a directory")
    return out


def cmd_run(args) -> int:
    out = _out_dir(args.out)
    cfg = _load_config(args)
    report = execute_run(cfg)
    write_artifacts(out, report)
    print(f"run complete: selector={report.selector} acc={report.acc:.4f} "
          f"bwt={report.bwt:.4f} artifacts in {args.out}")
    return 0


def cmd_validate(args) -> int:
    from . import validation
    names = validation.suite_names(args.filter)
    if not names:
        raise ValueError(f"--filter {args.filter!r} matches no validation suite")
    results = validation.run_suites(names)
    width = max(len(r.name) for r in results)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  [{r.seconds:6.2f}s]  {r.detail}")
    print(f"{len(results) - len(failed)}/{len(results)} suites passed")
    return 0 if not failed else 1


def cmd_sweep(args) -> int:
    out = _out_dir(args.out)
    flat = parse_flat_file(args.config)
    grid = parse_flat_file(args.grid)
    axes = {}
    for key in ("grid.mu", "grid.nu"):
        text = grid.pop(key, "")
        if text:
            try:
                axes[key] = _conv_float_tuple(text)
            except ValueError as exc:
                raise ValueError(f"grid key '{key}': {exc}") from exc
    if grid:
        raise ValueError(f"unknown grid key '{next(iter(grid))}'")
    if not axes:
        raise ValueError("grid file must set grid.mu and/or grid.nu")
    base = RunConfig.from_flat(dict(flat))
    points = list(itertools.product(axes.get("grid.mu", (base.criterion.mu,)),
                                    axes.get("grid.nu", (base.criterion.nu,))))
    if len(points) > SWEEP_POINT_LIMIT:
        raise ValueError(f"grid has {len(points)} points, limit is {SWEEP_POINT_LIMIT}")
    # every point's config is checked before the first point runs
    configs = [RunConfig.from_flat({**flat, "criterion.mu": str(mu), "criterion.nu": str(nu)})
               for mu, nu in points]

    rows = []
    for idx, ((mu, nu), cfg) in enumerate(zip(points, configs)):
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


# the `coresel select` flag behind each checked argument
_SELECT_FLAGS = {"budget": "--m", "mu": "--mu", "nu": "--nu", "l2_strength": "--l2",
                 "damping": "--damping"}


def cmd_select(args) -> int:
    """Fit on the file's first half of rows, as an earlier round's buffer, and select
    over all rows: at the pool's own optimum every score would be round-off."""
    samples, dim = _parse_csv_samples(args.data)
    if len(samples) < 2:
        raise ValueError(f"{args.data}: select needs at least 2 samples, got {len(samples)}")
    quad = args.model == "quad1d"
    if quad and dim != 1:
        raise ValueError("quad1d selection needs exactly one feature column")
    if quad and args.l2 is not None:
        raise ValueError("--l2: quad1d has no L2 term; drop the flag")
    if not quad and args.l2 == 0 and args.damping == 0:
        raise ValueError("--damping: damping and --l2 are both 0, so the logistic Hessian "
                         "is singular; raise either")
    try:
        cfg = CriterionConfig(budget=args.m, mu=args.mu, nu=args.nu)
        if cfg.budget > len(samples):
            raise ArgumentError("budget", f"budget {cfg.budget} exceeds the file's "
                                          f"{len(samples)} samples")
        check_real("damping", args.damping)
        model = ModelSpec(kind="quad1d", dim=1) if quad else ModelSpec(
            kind="logistic", dim=dim, num_classes=max(max(s.label for s in samples) + 1, 2),
            l2_strength=0.1 if args.l2 is None else args.l2)
    except ArgumentError as exc:
        raise ValueError(f"{_SELECT_FLAGS[exc.argument]}: {exc}") from exc
    params = fit(model, samples[:len(samples) // 2],
                 FitConfig(method="closed_form" if quad else "newton"))
    ctx = build_context(model, params, samples, samples, damping=args.damping)
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

    about = ("one-shot selection on a CSV sample file: fit on its first half of rows, "
             "select over all of them")
    select = sub.add_parser("select", help=about, description=about)
    select.add_argument("--data", required=True)
    select.add_argument("--m", type=int, required=True)
    select.add_argument("--mu", type=float, default=CriterionConfig.mu)
    select.add_argument("--nu", type=float, default=CriterionConfig.nu)
    select.add_argument("--model", choices=["logistic", "quad1d"], default="logistic")
    select.add_argument("--l2", type=float, default=None,
                        help="L2 strength of the logistic model (default 0.1)")
    select.add_argument("--damping", type=float, default=DEFAULT_DAMPING)
    select.set_defaults(func=cmd_select)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code: 2 for a usage error, a
    ``ValueError`` (bad input, by the library's contract) or an input path
    that is missing, is a directory or runs through a file, 1 for any other
    exception (a ``RuntimeError`` is a failed run)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        bad_input = (ValueError, FileNotFoundError, IsADirectoryError, NotADirectoryError)
        return 2 if isinstance(exc, bad_input) else 1


if __name__ == "__main__":
    sys.exit(main())
