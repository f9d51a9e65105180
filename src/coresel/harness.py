"""Continual-learning simulation, evaluation metrics, and the leave-one-out oracle.

The training loop replays a bounded buffer alongside each incoming batch and
refreshes the buffer during the last epoch of every task: after each batch
of that epoch the configured selector is run on the union of the previous
buffer and the batch (with the batch reweighted so both cohorts carry equal
total mass in the outer objective). Accuracy on every seen task's test
split is recorded after each task into a ``(T, T)`` array, NaN above the
diagonal, from which average accuracy and backward transfer are derived. A run stacks the
stream's splits once, checking every sample against the model there; from
then on the buffer, the oracle reservoir, replay draws and candidate pools
are integer rows into those arrays. A selection round's candidates reach
the influence context as a ``Batch`` of their rows, and greedy's keep
mask over them picks the new buffer's rows. Each selection step leaves one
:class:`StepRecord` in the report.

For validating influence estimates the module provides the exact
leave-one-out retraining delta (the other oracles are in
:mod:`~coresel.oracles`), plus the rank-agreement protocol: an
unbiased reservoir over the whole stream scores the samples it shares with
the method's candidate pool, and Kendall's tau between the two scorings is
logged at every selection step where the overlap is large enough.
"""

import bisect
import csv
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import models
from .influence import CriterionConfig, InfluenceContext, build_context
from .models import FitConfig, ModelSpec, Params, Sample
from .numkit import DEFAULT_DAMPING, ArgumentError, check_int, check_real
from .selection import (
    GREEDY_KINDS,
    SelectorKind,
    reservoir_slots,
    ring_slots,
    select_greedy,
)


# Fixed tags for the independent named RNG streams of a run.
_RNG_TAGS = {"model_init": 0, "replay": 1, "method_reservoir": 2, "oracle_reservoir": 3}

STREAM_SOURCES = ("synthetic_gaussian", "csv")
CSV_BASE_COLUMNS = ("id", "task", "label")


def named_rng(seed: int, name: str) -> np.random.Generator:
    """Independent generator for one named randomness stream of a run."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_RNG_TAGS[name],)))


# ---------------------------------------------------------------------------
# task streams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StreamSpec:
    source: str = "synthetic_gaussian"
    num_tasks: int = 2
    classes_per_task: int = 2
    samples_per_class: int = 50
    dim: int = 2
    batch_size: int = 10
    seed: int = 0
    mean_scale: float = 3.0
    within_std: float = 1.0
    drift_offsets: Optional[tuple] = None     # scalar mean shift per task
    label_noise: Optional[tuple] = None       # flip probability per task
    test_fraction: float = 0.2
    train_csv: Optional[str] = None
    test_csv: Optional[str] = None

    def __post_init__(self):
        if self.source not in STREAM_SOURCES:
            raise ArgumentError("source", f"unknown stream source {self.source!r}")
        check_int("batch_size", self.batch_size, 1)
        if self.source == "synthetic_gaussian":
            check_int("num_tasks", self.num_tasks, 2)
            check_int("classes_per_task", self.classes_per_task, 1)
            check_int("samples_per_class", self.samples_per_class, 1)
            check_int("dim", self.dim, 1)
            if not 0.0 < self.test_fraction < 1.0:
                raise ArgumentError("test_fraction", "test_fraction must lie in (0, 1)")
            check_int("seed", self.seed, 0)
            if not math.isfinite(self.mean_scale):
                raise ArgumentError("mean_scale",
                                    f"mean_scale must be finite, got {self.mean_scale}")
            check_real("within_std", self.within_std)
            for name, values in (("drift_offsets", self.drift_offsets),
                                 ("label_noise", self.label_noise)):
                if values is not None and len(values) != self.num_tasks:
                    raise ArgumentError(name, f"{name} must list one value per task")
            if self.drift_offsets is not None and not all(map(math.isfinite,
                                                              self.drift_offsets)):
                raise ArgumentError("drift_offsets",
                                    f"drift_offsets must be finite, got {self.drift_offsets}")
            if self.label_noise is not None and not all(0 <= v <= 1 for v in self.label_noise):
                raise ArgumentError("label_noise", f"label_noise entries must lie in [0, 1], "
                                                   f"got {self.label_noise}")
            if self.classes_per_task == 1 and any(v > 0 for v in self.label_noise or ()):
                raise ArgumentError("label_noise", "label_noise needs classes_per_task >= 2 "
                                                   "to flip a label within its task")
        elif not self.train_csv or not self.test_csv:
            raise ArgumentError("test_csv" if self.train_csv else "train_csv",
                                "csv streams require train_csv and test_csv paths")


@dataclass(frozen=True)
class TaskData:
    train: tuple
    test: tuple


@dataclass(frozen=True)
class Stream:
    tasks: tuple
    batch_size: int
    dim: int
    num_classes: int

    def total_train_size(self) -> int:
        return sum(len(t.train) for t in self.tasks)


def make_stream(spec: StreamSpec) -> Stream:
    """Build a deterministic task stream from its specification.

    Synthetic mode draws one Gaussian blob per class. Template means sit
    evenly spaced on the circle of radius ``mean_scale`` in the first two
    feature coordinates (randomly rotated and randomly assigned to
    classes), which keeps the ideal decision regions realizable by a
    bias-free linear head; extra coordinates are pure noise dimensions.
    Each task owns a disjoint class range; the per-task mean drift and
    label noise apply to the train split, which is shuffled once so batches
    mix classes. A disjoint test split with the same class means (and no
    label noise) is generated per task.
    """
    if spec.source == "csv":
        return _load_csv_stream(spec)
    rng = np.random.default_rng(spec.seed)
    total_classes = spec.num_tasks * spec.classes_per_task
    templates = _circle_templates(rng, total_classes, spec.dim, spec.mean_scale)
    drift = spec.drift_offsets or (0.0,) * spec.num_tasks
    noise = spec.label_noise or (0.0,) * spec.num_tasks
    test_per_class = max(1, round(spec.test_fraction * spec.samples_per_class))

    next_id = 0
    tasks = []
    for t in range(spec.num_tasks):
        classes = tuple(range(t * spec.classes_per_task, (t + 1) * spec.classes_per_task))
        train, test = [], []
        for c in classes:
            mean = templates[c] + drift[t]
            for dest, count in ((train, spec.samples_per_class), (test, test_per_class)):
                X = rng.normal(size=(count, spec.dim)) * spec.within_std + mean
                for row in X:
                    dest.append(Sample(id=next_id, task_id=t, label=c, features=row))
                    next_id += 1
        if noise[t] > 0:
            noisy = []
            for s in train:
                if rng.random() < noise[t]:
                    others = [c for c in classes if c != s.label]
                    noisy.append(replace(s, label=int(rng.choice(others))))
                else:
                    noisy.append(s)
            train = noisy
        order = rng.permutation(len(train))
        train = [train[i] for i in order]
        tasks.append(TaskData(tuple(train), tuple(test)))
    return Stream(tuple(tasks), spec.batch_size, spec.dim, total_classes)


def _circle_templates(rng: np.random.Generator, total_classes: int, dim: int,
                      scale: float) -> np.ndarray:
    """Evenly spaced class means on a circle, randomly rotated and assigned."""
    if dim == 1:
        positions = np.linspace(-scale, scale, total_classes)[:, None]
    else:
        angles = 2 * np.pi * (np.arange(total_classes) / total_classes + rng.random())
        positions = np.zeros((total_classes, dim))
        positions[:, 0] = scale * np.cos(angles)
        positions[:, 1] = scale * np.sin(angles)
    return positions[rng.permutation(total_classes)]


def _parse_csv_samples(path: str):
    """Read one sample file, reporting schema violations, non-finite
    features, negative tasks or labels, ids or labels outside int64 and
    repeated sample ids by row (and column, where one is at fault)."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            reader = csv.reader(fh.readlines())
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file is empty") from None
        if tuple(header[:3]) != CSV_BASE_COLUMNS:
            raise ValueError(f"{path}: header must start with id,task,label, got {header[:3]}")
        feature_cols = header[3:]
        expected = [f"f{i}" for i in range(len(feature_cols))]
        if feature_cols != expected or not feature_cols:
            raise ValueError(f"{path}: feature columns must be f0..f{{d-1}}, got {feature_cols}")
        samples = []
        id_rows = {}
        for row_num, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"{path}: row {row_num}: expected {len(header)} fields, got {len(row)}")
            values = {}
            for col, cell in zip(header, row):
                kind = int if col in CSV_BASE_COLUMNS else float
                try:
                    values[col] = kind(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}: row {row_num}, column {col!r}: could not parse {cell!r}"
                    ) from None
                if not math.isfinite(values[col]):
                    raise ValueError(f"{path}: row {row_num}, column {col!r}: "
                                     f"{cell!r} is not finite")
                if col in ("task", "label") and values[col] < 0:
                    raise ValueError(f"{path}: row {row_num}, column {col!r}: "
                                     f"{col} must be nonnegative, got {values[col]}")
                if col in ("id", "label") and not (models._INT64.min <= values[col]
                                                   <= models._INT64.max):
                    raise ValueError(f"{path}: row {row_num}, column {col!r}: "
                                     f"{col} must fit in int64, got {values[col]}")
            first_row = id_rows.setdefault(values["id"], row_num)
            if first_row != row_num:
                raise ValueError(f"{path}: row {row_num}: sample id {values['id']} "
                                 f"already used at row {first_row}")
            features = np.array([values[c] for c in feature_cols])
            samples.append(Sample(id=values["id"], task_id=values["task"],
                                  label=values["label"], features=features))
    return samples, len(feature_cols)


def _load_csv_stream(spec: StreamSpec) -> Stream:
    train, dim = _parse_csv_samples(spec.train_csv)
    test, test_dim = _parse_csv_samples(spec.test_csv)
    if dim != test_dim:
        raise ValueError(f"{spec.test_csv}: test file has {test_dim} features but train "
                         f"file {spec.train_csv} has {dim}")
    task_ids = sorted({s.task_id for s in train})
    if len(task_ids) < 2:
        raise ValueError(f"{spec.train_csv}: a stream needs at least 2 tasks, "
                         f"got {len(task_ids)}")
    orphan = next((s for s in test if s.task_id not in task_ids), None)
    if orphan is not None:
        raise ValueError(f"{spec.test_csv}: sample id {orphan.id}: task {orphan.task_id} "
                         f"has no rows in the train file")
    num_classes = max(s.label for s in train + test) + 1
    tasks = []
    for t in task_ids:
        t_train = tuple(s for s in train if s.task_id == t)
        t_test = tuple(s for s in test if s.task_id == t)
        if not t_test:
            raise ValueError(f"{spec.test_csv}: no rows for task {t}")
        tasks.append(TaskData(t_train, t_test))
    return Stream(tuple(tasks), spec.batch_size, dim, num_classes)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def acc_bwt(R: np.ndarray):
    """Average final accuracy and average backward transfer of a ``(T, T)``
    accuracy grid whose entry (i, j) is accuracy on task j after task i.

    ACC averages the last row; BWT averages the drop from each task's
    just-trained accuracy to its final accuracy. Entries above the diagonal
    are not read.
    """
    T = R.shape[0]
    if T < 2:
        raise ValueError("backward transfer is undefined for fewer than 2 tasks")
    for i in range(T):
        if np.any(np.isnan(R[i, :i + 1])):
            raise ValueError(f"accuracy matrix row {i} is not fully populated")
    acc = float(R[T - 1, :].mean())
    bwt = float(np.mean([R[T - 1, i] - R[i, i] for i in range(T - 1)]))
    return acc, bwt


def _tied_pairs(*columns: np.ndarray) -> int:
    """Pairs of rows equal in every column; equal rows must be adjacent."""
    new_run = np.ones(columns[0].shape[0] + 1, dtype=bool)
    new_run[1:-1] = False
    for c in columns:
        new_run[1:-1] |= c[1:] != c[:-1]
    runs = np.diff(np.flatnonzero(new_run))
    return int((runs * (runs - 1) // 2).sum())


def kendall_tau(scores_a: Sequence[float], scores_b: Sequence[float]) -> float:
    """Kendall rank correlation over all pairs, tied pairs counting zero.

    tau = (concordant - discordant) / C(n, 2); pairs tied in either list
    contribute to the denominator but not the numerator, and concordant =
    C(n, 2) - ties in a - ties in b + ties in both - discordant (Knight,
    1966). After sorting by ``a`` with ties broken by ``b``, any pair
    ``i < j`` has ``a_i <= a_j``, and ``b_i <= b_j`` where ``a`` ties, so
    the discordant pairs are exactly the strict inversions left in ``b``.
    One scan counts them: each value adds the number of earlier values
    greater than it (``bisect_right`` counts those ``<=`` it, ``-0.0 ==
    0.0``) and is then inserted into a sorted list. The counts are exact
    integers, so the value is the same float as the all-pairs sign sum.
    Memory is O(n); each insert moves O(n) pointers, so the scan is slower
    than an O(n log n) merge count beyond about 1,200-1,500 scores, far
    above the candidate-pool overlaps it scores (at most ``m + batch_size``).
    """
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError(f"scores must be 1-D, got shapes {a.shape} and {b.shape}")
    if a.shape != b.shape:
        raise ValueError(f"score lists differ in length: {a.shape[0]} vs {b.shape[0]}")
    n = a.shape[0]
    if n < 2:
        raise ValueError("rank correlation needs at least 2 scores")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("rank correlation needs finite scores")
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    total = n * (n - 1) // 2
    tied_a = _tied_pairs(a)
    tied_b = _tied_pairs(np.sort(b))
    tied_both = _tied_pairs(a, b)
    discordant = 0
    seen: list = []
    for x in b.tolist():
        discordant += len(seen) - bisect.bisect_right(seen, x)
        bisect.insort(seen, x)
    concordant = total - tied_a - tied_b + tied_both - discordant
    return float((concordant - discordant) / total)


# ---------------------------------------------------------------------------
# the leave-one-out oracle (the others are in coresel.oracles)
# ---------------------------------------------------------------------------

def loo_retrain_delta(model: ModelSpec, coreset: Sequence[Sample],
                      test_set: Sequence[Sample], z: Sample,
                      fit_cfg: FitConfig) -> float:
    """Exact effect of dropping ``z``: refit without it, return the change
    in summed test loss. This is the expensive ground truth that influence
    scores approximate."""
    return float(_loo_refits(model, coreset, test_set, [z.id], fit_cfg)[0])


def loo_retrain_deltas(model: ModelSpec, coreset: Sequence[Sample],
                       test_set: Sequence[Sample], fit_cfg: FitConfig) -> np.ndarray:
    """:func:`loo_retrain_delta` of every coreset sample, in coreset order.

    Fits the base model once and warm-starts each refit from it, so the
    deltas are the same floats as one call per sample at half the fits.
    """
    return _loo_refits(model, coreset, test_set, [s.id for s in coreset], fit_cfg)


def _loo_refits(model: ModelSpec, coreset: Sequence[Sample], test_set: Sequence[Sample],
                drop_ids: Sequence[int], fit_cfg: FitConfig) -> np.ndarray:
    """Change in summed test loss from leaving each of ``drop_ids`` out of
    the coreset, each refit warm-started from one fit of the whole coreset."""
    coreset = list(coreset)
    if len(coreset) < 2:
        raise ValueError("leave-one-out needs a coreset of at least 2 samples")
    full = models.stack_samples(model, coreset)
    models.check_unique_ids(full.ids, "coreset")
    kept = [full.ids != z_id for z_id in drop_ids]
    for z_id, mask in zip(drop_ids, kept):
        if mask.all():
            raise ValueError(f"sample {z_id} is not in the coreset")
    test = models.stack_samples(model, test_set)
    base_params = models.fit(model, full, fit_cfg)
    old_loss = models.loss_sum(model, base_params, test)
    deltas = np.empty(len(kept))
    for i, mask in enumerate(kept):
        new_params = models.fit(model, full.rows(mask), fit_cfg, init=base_params)
        deltas[i] = models.loss_sum(model, new_params, test) - old_loss
    return deltas


# ---------------------------------------------------------------------------
# the continual-learning loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleConfig:
    buffer_multiplier: int = 4
    min_overlap: int = 10

    def __post_init__(self):
        check_int("buffer_multiplier", self.buffer_multiplier, 1)
        check_int("min_overlap", self.min_overlap, 2)


@dataclass(frozen=True)
class StepRecord:
    """One selection step: its index, its task, the Kendall tau of the
    rank-agreement checkpoint (None with the oracle off or too small an
    overlap) and the ids the buffer kept, sorted."""

    step: int
    task: int
    tau: Optional[float]
    kept_ids: tuple


@dataclass
class RunReport:
    seed: int
    selector: str
    acc_matrix: np.ndarray                # (T, T); NaN above the diagonal
    acc: float
    bwt: float
    steps: list                           # one StepRecord per selection step
    config: Optional[dict] = None

    @property
    def mean_tau(self) -> Optional[float]:
        taus = [s.tau for s in self.steps if s.tau is not None]
        return float(np.mean(taus)) if taus else None

    def to_json_dict(self) -> dict:
        grid = [[None if np.isnan(v) else v for v in row] for row in self.acc_matrix.tolist()]
        return {
            "schema": "coresel-report-v1",
            "seed": self.seed,
            "selector": self.selector,
            "config": self.config,
            "acc": self.acc,
            "bwt": self.bwt,
            "mean_tau": self.mean_tau,
            "acc_matrix": grid,
            "tau_series": [{"step": s.step, "task": s.task, "tau": s.tau,
                            "buffer_size": len(s.kept_ids)} for s in self.steps],
            "buffer_trace": [{"step": s.step, "kept_ids": list(s.kept_ids)}
                             for s in self.steps],
        }


_NO_ROWS = np.zeros(0, dtype=np.intp)


def _selection_context(model: ModelSpec, params: Params, pool: models.Batch,
                       rows: np.ndarray, buffer_size: int, constant: Optional[float],
                       damping: float,
                       oracle_grad_sum: Optional[np.ndarray] = None) -> InfluenceContext:
    """The influence context of a selection round over the candidate rows,
    the buffer's ``buffer_size`` first, with the batch after them
    reweighted to balance cohort mass; ``oracle_grad_sum``, if given, is
    solved in the same LU solve as the candidates' (``ctx.oracle_ihvp``).

    The default constant |buffer| / |batch| gives both cohorts equal total
    weight in the outer objective; with an empty buffer there is nothing to
    balance and the batch stays at weight 1. The weights live on the
    round's candidate batch alone; the pool's rows keep weight 1.
    It scores at ``params``, never at the candidates' own optimum, where scores are round-off.
    """
    if constant is None:
        constant = buffer_size / (len(rows) - buffer_size) if buffer_size else 1.0
    candidates = pool.rows(rows)
    w = candidates.w.copy()
    w[buffer_size:] *= constant
    candidates = candidates.with_weights(w)
    return build_context(model, params, candidates, candidates, damping=damping,
                         oracle_grad_sum=oracle_grad_sum)


def _oracle_overlap(pool: models.Batch, rows: np.ndarray, oracle_rows: np.ndarray) -> np.ndarray:
    """Positions in ``rows`` of the pool rows the oracle reservoir also
    holds, in order."""
    oracle = np.zeros(len(pool.ids), dtype=bool)
    oracle[oracle_rows] = True
    return np.flatnonzero(oracle[rows])


def _tau_checkpoint(ctx: InfluenceContext, pool: models.Batch, rows: np.ndarray,
                    overlap: np.ndarray) -> float:
    """Rank agreement between method and unbiased influence estimates.

    ``rows`` are the context's candidate rows and ``overlap`` the positions
    among them that the oracle reservoir also holds; ``ctx.batch.w`` holds
    their selection-round weights, and ``ctx.oracle_ihvp`` solves the
    reservoir's gradient sum. Both estimates score the same raw samples
    through the same damped Hessian (the one over the method's candidate
    pool, the set the model would be trained on); they differ only in the
    outer gradient sum, the method's candidate pool versus the oracle
    reservoir. That isolates exactly the pool bias the reservoir is meant
    to expose.
    """
    # the overlap rows' gradients at their raw weights, from the context's
    # softmax of them; the dots are the negated scores, which keeps tau
    batch = pool.rows(rows[overlap])
    factors = models.mu_factors(ctx.model, ctx.params, batch, ctx.ihvp, 0.0,
                                probs=ctx.probs[overlap])
    dots = models.factored_dots(*factors, batch.w, np.stack((ctx.ihvp, ctx.oracle_ihvp)))
    return kendall_tau(dots[:, 0], dots[:, 1])


def run_continual(stream: Stream, model: ModelSpec, selector: SelectorKind,
                  criterion: CriterionConfig,
                  oracle: Optional[OracleConfig] = None, seed: int = 0, *,
                  learning_rate: float, epochs: int,
                  reweight_constant: Optional[float] = None,
                  damping: float = DEFAULT_DAMPING) -> RunReport:
    """Train on the task stream while maintaining the replay buffer.

    Each task is trained for ``epochs`` passes over its batches; each SGD
    step of size ``learning_rate`` descends the summed loss of the current
    batch plus a replay batch drawn uniformly from the buffer. During the
    last epoch of each task the selector updates the buffer after every
    batch; with an oracle configured, a parallel reservoir of
    ``buffer_multiplier * budget`` capacity ingests the same stream and a
    Kendall-tau agreement point is logged per selection step; each step
    leaves one :class:`StepRecord` in ``RunReport.steps``. After each task
    the model is evaluated on all seen tasks' test splits.

    Selection scores at the current SGD parameters. Arguments are checked
    before step 0 and rejected with a :class:`~coresel.numkit.ArgumentError`
    (a ``ValueError``) naming the argument, and a sample that does not fit the
    model is rejected with a ``ValueError`` naming the sample when the
    splits are stacked; any later sub-operation failure is re-raised as a
    ``RuntimeError`` with the step and task/epoch/batch position prepended.
    """
    if model.kind != "logistic":
        raise ArgumentError("model", "the continual loop drives classification models only")
    num_tasks = len(stream.tasks)
    if num_tasks < 2:
        # backward transfer is undefined for fewer than 2 tasks
        raise ArgumentError("stream", f"the continual loop needs at least 2 tasks, "
                                      f"got {num_tasks}")
    check_int("seed", seed, 0)
    total = stream.total_train_size()
    if criterion.budget > total:
        raise ArgumentError(
            "budget", f"budget {criterion.budget} exceeds the stream's {total} training samples")
    check_real("learning_rate", learning_rate, positive=True)
    check_int("epochs", epochs, 1)
    check_real("damping", damping)
    if damping == 0 and model.l2_strength == 0 and (selector in GREEDY_KINDS
                                                    or oracle is not None):
        # softmax logits are unchanged by a shift shared by every class, so
        # the Hessian maps each such shift to zero whatever the data
        raise ArgumentError("damping", "damping and model.l2_strength are both 0, so "
                                       "the logistic Hessian is singular; raise either")
    if reweight_constant is not None:
        check_real("reweight_constant", reweight_constant, positive=True)

    # the stream's train rows in task order; the run state refers to samples
    # by row into this batch
    train = models.stack_samples(model, [s for t in stream.tasks for s in t.train])
    tests = [models.stack_samples(model, t.test) for t in stream.tasks]
    bounds = np.cumsum([0] + [len(t.train) for t in stream.tasks])

    init_rng = named_rng(seed, "model_init")
    replay_rng = named_rng(seed, "replay")
    method_res_rng = named_rng(seed, "method_reservoir")
    oracle_res_rng = named_rng(seed, "oracle_reservoir")

    # a plain array in the SGD loop, wrapped in Params where it leaves it
    theta = init_rng.normal(scale=0.01, size=model.param_dim)
    buffer = _NO_ROWS
    offered = 0       # samples offered so far, to both reservoirs alike
    oracle_rows = _NO_ROWS

    matrix = np.full((num_tasks, num_tasks), np.nan)
    steps: list = []

    for ti in range(num_tasks):
        # fixed consecutive slices of the task's train rows, the same every epoch
        batches = [np.arange(lo, min(lo + stream.batch_size, bounds[ti + 1]))
                   for lo in range(bounds[ti], bounds[ti + 1], stream.batch_size)]
        for epoch in range(1, epochs + 1):
            for bi, batch in enumerate(batches):
                try:
                    replay = _draw_replay(buffer, stream.batch_size, replay_rng)
                    # grad_matrix's row sum, not grad_sum's product: the
                    # pinned run p200_seed126 amplifies the last bits of
                    # this gradient into a different kept id
                    idx = np.concatenate([batch, replay])
                    theta = models._sgd_step(model, theta, train.X[idx], train.y[idx],
                                             learning_rate)
                    if epoch < epochs:
                        continue
                    # the last epoch: one selection step after every batch
                    if oracle is not None:
                        oracle_rows = _reservoir_rows(
                            oracle_rows, oracle.buffer_multiplier * criterion.budget,
                            batch, offered, oracle_res_rng)
                    rows = np.concatenate([buffer, batch])
                    tau = None
                    if selector in GREEDY_KINDS or oracle is not None:
                        at = Params(theta)
                        # the oracle's gradient sum only where its overlap
                        # is large enough to rank; too small, no tau point
                        oracle_gsum = None
                        if oracle is not None:
                            overlap = _oracle_overlap(train, rows, oracle_rows)
                            if len(overlap) >= oracle.min_overlap:
                                oracle_gsum = models.grad_sum(model, at, train.rows(oracle_rows))
                        ctx = _selection_context(model, at, train, rows, len(buffer),
                                                 reweight_constant, damping, oracle_gsum)
                        if oracle_gsum is not None:
                            tau = _tau_checkpoint(ctx, train, rows, overlap)
                        if selector in GREEDY_KINDS:
                            selected, _ = select_greedy(ctx, criterion, selector)
                            buffer = rows[selected.kept]
                        # release the context before the next SGD steps
                        del ctx
                    if selector is SelectorKind.RESERVOIR:
                        buffer = _reservoir_rows(buffer, criterion.budget, batch, offered,
                                                 method_res_rng)
                    elif selector is SelectorKind.RING:
                        buffer = rows[ring_slots(train.y[rows], criterion.budget,
                                                 stream.num_classes)]
                    offered += len(batch)
                    if len(buffer) > criterion.budget:
                        raise RuntimeError("selector violated the buffer capacity")
                    steps.append(StepRecord(len(steps), ti, tau,
                                            tuple(sorted(train.ids[buffer].tolist()))))
                except Exception as exc:
                    raise RuntimeError(f"step {len(steps)} (task {ti}, epoch {epoch}, "
                                       f"batch {bi}): {exc}") from exc
        params = Params(theta)
        for tj in range(ti + 1):
            matrix[ti, tj] = models.accuracy(model, params, tests[tj])

    acc, bwt = acc_bwt(matrix)
    return RunReport(seed=seed, selector=selector.value, acc_matrix=matrix,
                     acc=acc, bwt=bwt, steps=steps)


def _draw_replay(buffer: np.ndarray, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Rows of a uniform draw without replacement from the buffer, in buffer order."""
    if len(buffer) == 0:
        return buffer
    idx = rng.choice(len(buffer), size=min(batch_size, len(buffer)), replace=False)
    return buffer[np.sort(idx)]


def _reservoir_rows(rows: np.ndarray, capacity: int, batch: np.ndarray, offered: int,
                    rng: np.random.Generator) -> np.ndarray:
    slots = reservoir_slots(len(rows), capacity, len(batch), offered, rng)
    return np.concatenate([rows, batch])[slots]
