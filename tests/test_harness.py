"""Stream generation, metrics, oracles, and the continual loop."""

import json
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coresel import harness, models
from coresel.harness import (
    AccuracyMatrix,
    OracleConfig,
    StreamSpec,
    acc_bwt,
    kendall_tau,
    loo_retrain_delta,
    loo_retrain_deltas,
    make_stream,
    named_rng,
    run_continual,
)
from coresel.influence import CriterionConfig
from coresel.models import FitConfig, ModelSpec, Sample
from coresel.numkit import SolveError
from coresel.selection import ReplayBuffer, SelectorKind

QUAD = ModelSpec(kind="quad1d", dim=1)


def all_pairs_kendall_tau(scores_a, scores_b):
    """Reference tau-a: the sign products of all n*(n-1)/2 pairs, summed."""
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    n = a.shape[0]
    sign_a = np.sign(a[:, None] - a[None, :])
    sign_b = np.sign(b[:, None] - b[None, :])
    upper = np.triu_indices(n, k=1)
    return float((sign_a[upper] * sign_b[upper]).sum() / (n * (n - 1) / 2))


def qsample(i, z):
    return Sample(id=i, task_id=0, label=0, features=[z])


class TestMakeStream:
    def test_counts(self):
        spec = StreamSpec(num_tasks=2, classes_per_task=2, samples_per_class=50, seed=7)
        stream = make_stream(spec)
        assert len(stream.tasks) == 2
        assert [len(t.train) for t in stream.tasks] == [100, 100]
        assert stream.num_classes == 4

    def test_deterministic(self):
        spec = StreamSpec(num_tasks=2, classes_per_task=2, samples_per_class=20, seed=3)
        a, b = make_stream(spec), make_stream(spec)
        for ta, tb in zip(a.tasks, b.tasks):
            assert [s.id for s in ta.train] == [s.id for s in tb.train]
            for sa, sb in zip(ta.train, tb.train):
                assert np.array_equal(sa.features, sb.features)

    def test_disjoint_class_sets(self):
        stream = make_stream(StreamSpec(num_tasks=3, classes_per_task=2, seed=1))
        sets = [{s.label for s in t.train + t.test} for t in stream.tasks]
        assert sets[0].isdisjoint(sets[1]) and sets[1].isdisjoint(sets[2])

    def test_drift_shifts_class_means(self):
        base = StreamSpec(num_tasks=2, classes_per_task=1, samples_per_class=4000,
                          dim=3, seed=11)
        drifted = StreamSpec(num_tasks=2, classes_per_task=1, samples_per_class=4000,
                             dim=3, seed=11, drift_offsets=(0.0, 2.0))
        s0, s1 = make_stream(base), make_stream(drifted)
        mean_base = np.mean([s.features for s in s0.tasks[1].train], axis=0)
        mean_drift = np.mean([s.features for s in s1.tasks[1].train], axis=0)
        # 3 sigma / sqrt(n) tolerance on each coordinate
        np.testing.assert_allclose(mean_drift - mean_base, 2.0,
                                   atol=3.0 / np.sqrt(4000) * 2.5)

    def test_label_noise_flips_within_task(self):
        spec = StreamSpec(num_tasks=2, classes_per_task=2, samples_per_class=500,
                          seed=5, label_noise=(0.0, 0.3))
        stream = make_stream(spec)
        clean = make_stream(StreamSpec(num_tasks=2, classes_per_task=2,
                                       samples_per_class=500, seed=5))
        # noise draws shift the shuffle state, so match samples by id
        noisy_labels = {s.id: s.label for t in stream.tasks for s in t.train}
        clean_labels = {s.id: s.label for t in clean.tasks for s in t.train}
        task1_ids = [s.id for s in clean.tasks[1].train]
        flipped = sum(noisy_labels[i] != clean_labels[i] for i in task1_ids)
        assert 0.2 <= flipped / len(task1_ids) <= 0.4
        task1_classes = {s.label for s in clean.tasks[1].train}
        assert {s.label for s in stream.tasks[1].train} == task1_classes
        task0_ids = [s.id for s in clean.tasks[0].train]
        assert all(noisy_labels[i] == clean_labels[i] for i in task0_ids)

    def test_test_split_is_disjoint(self):
        stream = make_stream(StreamSpec(num_tasks=2, classes_per_task=2,
                                        samples_per_class=25, seed=2))
        for task in stream.tasks:
            train_ids = {s.id for s in task.train}
            assert train_ids.isdisjoint({s.id for s in task.test})
            assert len(task.test) == 2 * max(1, round(0.2 * 25))


class TestCsvStream:
    def write_csv(self, path, rows, dim=2):
        header = "id,task,label," + ",".join(f"f{i}" for i in range(dim))
        path.write_text("\n".join([header] + rows) + "\n")

    def test_round_trip(self, tmp_path):
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        self.write_csv(train, ["0,0,0,1.5,2.5", "1,0,1,-1.0,0.5",
                               "2,1,2,0.0,1.0", "3,1,3,2.0,2.0"])
        self.write_csv(test, ["10,0,0,1.0,1.0", "11,1,2,0.5,0.5"])
        spec = StreamSpec(source="csv", train_csv=str(train), test_csv=str(test),
                          batch_size=2)
        stream = make_stream(spec)
        assert len(stream.tasks) == 2
        assert stream.dim == 2 and stream.num_classes == 4
        np.testing.assert_allclose(stream.tasks[0].train[0].features, [1.5, 2.5])

    def test_schema_violation_names_row_and_column(self, tmp_path):
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        self.write_csv(train, ["0,0,0,1.5,2.5", "1,0,1,oops,0.5", "2,1,0,0,0"])
        self.write_csv(test, ["10,0,0,1.0,1.0"])
        spec = StreamSpec(source="csv", train_csv=str(train), test_csv=str(test))
        with pytest.raises(ValueError, match=r"row 3, column 'f0'"):
            make_stream(spec)

    def test_repeated_id_names_file_and_rows(self, tmp_path):
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        self.write_csv(train, ["0,0,0,1.5,2.5", "1,0,1,-1.0,0.5", "0,1,2,0,0"])
        self.write_csv(test, ["10,0,0,1.0,1.0", "11,1,2,0.5,0.5"])
        spec = StreamSpec(source="csv", train_csv=str(train), test_csv=str(test))
        with pytest.raises(ValueError, match=r"train\.csv: row 4: sample id 0 already used at row 2"):
            make_stream(spec)

    def test_bad_header_rejected(self, tmp_path):
        train = tmp_path / "train.csv"
        train.write_text("id,task,label,x0\n0,0,0,1.0\n")
        test = tmp_path / "test.csv"
        self.write_csv(test, ["10,0,0,1.0,1.0"])
        spec = StreamSpec(source="csv", train_csv=str(train), test_csv=str(test))
        with pytest.raises(ValueError, match="f0"):
            make_stream(spec)


class TestMetrics:
    def test_acc_bwt_hand_case(self):
        m = AccuracyMatrix.empty(3)
        values = {(0, 0): 0.9, (1, 0): 0.85, (1, 1): 0.9, (2, 0): 0.7,
                  (2, 1): 0.8, (2, 2): 0.9}
        for (i, j), v in values.items():
            m.set(i, j, v)
        acc, bwt = acc_bwt(m)
        assert acc == pytest.approx(0.8)
        assert bwt == pytest.approx(-0.15)

    def test_perfect_matrix(self):
        m = AccuracyMatrix.empty(3)
        for i in range(3):
            for j in range(i + 1):
                m.set(i, j, 1.0)
        assert acc_bwt(m) == (1.0, 0.0)

    def test_matches_independent_resummation(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            T = int(rng.integers(2, 7))
            m = AccuracyMatrix.empty(T)
            for i in range(T):
                for j in range(i + 1):
                    m.set(i, j, float(rng.random()))
            acc, bwt = acc_bwt(m)
            R = m.values
            acc_ref = sum(R[T - 1, j] for j in range(T)) / T
            bwt_ref = sum(R[T - 1, j] - R[j, j] for j in range(T - 1)) / (T - 1)
            assert acc == pytest.approx(acc_ref, abs=1e-12)
            assert bwt == pytest.approx(bwt_ref, abs=1e-12)

    def test_single_task_rejected(self):
        m = AccuracyMatrix.empty(1)
        m.set(0, 0, 1.0)
        with pytest.raises(ValueError):
            acc_bwt(m)

    def test_future_task_rejected(self):
        m = AccuracyMatrix.empty(2)
        with pytest.raises(ValueError):
            m.set(0, 1, 0.5)


@st.composite
def tied_score_pairs(draw):
    """Two equal-length score lists over a few levels, so ties in a, in b
    and in both are common; -0.0 and 0.0 count as one level."""
    levels = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]) | st.floats(-3, 3)
    pairs = draw(st.lists(st.tuples(levels, levels), min_size=2, max_size=40))
    return [a for a, _ in pairs], [b for _, b in pairs]


class TestKendallTau:
    def test_identical(self):
        assert kendall_tau([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0

    def test_reversed(self):
        assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0

    def test_one_swap(self):
        assert kendall_tau([1, 2, 3], [2, 1, 3]) == pytest.approx(1 / 3)

    def test_ties_count_zero_in_numerator(self):
        # pairs: (1,2) concordant, (1,1)-tie pairs contribute nothing
        assert kendall_tau([1, 1, 2], [1, 2, 3]) == pytest.approx(2 / 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kendall_tau([1, 2], [1, 2, 3])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            kendall_tau([1.0, np.nan, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("levels", [None, 2, 5])
    def test_bit_identical_to_all_pairs_oracle(self, levels):
        # levels=None draws continuous scores (no ties); small integer
        # levels force ties in a, in b and in both. Five draws per small
        # size, one each at the benchmark's pool overlap (212) and the
        # oracle reservoir's capacity (800)
        rng = np.random.default_rng(7 if levels is None else levels)
        sizes = [n for n in (2, 3, 4, 7, 16, 33, 100, 257) for _ in range(5)] + [212, 800]
        for n in sizes:
            if levels is None:
                a = rng.normal(size=n)
                b = a + rng.normal(size=n)
            else:
                a = rng.integers(levels, size=n).astype(float)
                b = rng.integers(levels, size=n).astype(float)
            assert kendall_tau(a, b) == all_pairs_kendall_tau(a, b)

    @pytest.mark.parametrize("a, b", [(3.0, 3.0), ([[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0]),
                                      ([1.0, 2.0], [[1.0, 2.0]])])
    def test_scores_must_be_1d(self, a, b):
        with pytest.raises(ValueError, match="1-D"):
            kendall_tau(a, b)

    def test_memory_is_linear(self):
        # an all-pairs count would need ~3 GB at this size
        rng = np.random.default_rng(0)
        a = rng.normal(size=20_000)
        b = a + rng.normal(size=20_000)
        tracemalloc.start()
        try:
            kendall_tau(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @settings(max_examples=200, deadline=None)
    @given(tied_score_pairs())
    def test_equals_all_pairs_oracle_with_ties(self, pair):
        a, b = pair
        assert kendall_tau(a, b) == all_pairs_kendall_tau(a, b)


class TestLooRetrainDelta:
    def test_canonical_quadratic(self):
        coreset = [qsample(0, 0.0), qsample(1, 2.0)]
        test_set = [qsample(10, 0.0), qsample(11, 2.0), qsample(12, 4.0)]
        delta = loo_retrain_delta(QUAD, coreset, test_set, coreset[0],
                                  FitConfig(method="closed_form"))
        assert delta == pytest.approx(-1.5, abs=1e-12)

    def test_removing_duplicate_leaves_optimum(self):
        coreset = [qsample(0, 1.0), qsample(1, 1.0)]
        test_set = [qsample(10, 0.0), qsample(11, 2.0)]
        delta = loo_retrain_delta(QUAD, coreset, test_set, coreset[0],
                                  FitConfig(method="closed_form"))
        assert delta == pytest.approx(0.0, abs=1e-12)

    def test_sample_must_be_in_coreset(self):
        coreset = [qsample(0, 0.0), qsample(1, 2.0)]
        with pytest.raises(ValueError):
            loo_retrain_delta(QUAD, coreset, coreset, qsample(9, 1.0),
                              FitConfig(method="closed_form"))

    @staticmethod
    def logistic_instance(seed, n=40):
        rng = np.random.default_rng(seed)
        spec = ModelSpec(kind="logistic", dim=3, num_classes=3, l2_strength=0.1)
        samples = [Sample(id=i, task_id=0, label=i % 3,
                          features=rng.normal(size=3) + (i % 3))
                   for i in range(2 * n)]
        return spec, samples[:n], samples[n:]

    def test_same_bits_as_refitting_sample_lists(self):
        """Row-masked refits give the delta of fitting the lists themselves."""
        def list_oracle(model, coreset, test_set, z, cfg):
            base = models.fit(model, coreset, cfg)
            rest = [s for s in coreset if s.id != z.id]
            new = models.fit(model, rest, cfg, init=base)
            return (models.loss_sum(model, new, test_set)
                    - models.loss_sum(model, base, test_set))

        spec, train, test = self.logistic_instance(50)
        cfg = FitConfig(grad_tolerance=1e-10)
        for z in train[::3]:
            assert loo_retrain_delta(spec, train, test, z, cfg) == \
                list_oracle(spec, train, test, z, cfg)
        quad = [qsample(i, float(i) ** 0.5) for i in range(7)]
        closed = FitConfig(method="closed_form")
        for z in quad:
            assert loo_retrain_delta(QUAD, quad, quad[:3], z, closed) == \
                list_oracle(QUAD, quad, quad[:3], z, closed)

    def test_stacks_coreset_and_test_set_once_each(self, monkeypatch):
        spec, train, test = self.logistic_instance(51, n=30)
        calls = []
        original = models.stack_samples
        monkeypatch.setattr(models, "stack_samples",
                            lambda spec, samples: calls.append(len(samples))
                            or original(spec, samples))
        loo_retrain_delta(spec, train, test[:20], train[4], FitConfig())
        assert calls == [30, 20]

    @pytest.mark.parametrize("seed, n", [(52, 12), (53, 25), (54, 40)])
    def test_sweep_equals_one_call_per_sample(self, seed, n):
        """One base fit for the sweep gives the same floats as refitting the
        base for every sample."""
        spec, train, test = self.logistic_instance(seed, n=n)
        cfg = FitConfig(grad_tolerance=1e-10)
        expected = [loo_retrain_delta(spec, train, test, z, cfg) for z in train]
        assert loo_retrain_deltas(spec, train, test, cfg).tolist() == expected
        quad = [qsample(i, float(i) ** 0.5) for i in range(7)]
        closed = FitConfig(method="closed_form")
        assert loo_retrain_deltas(QUAD, quad, quad[:3], closed).tolist() == \
            [loo_retrain_delta(QUAD, quad, quad[:3], z, closed) for z in quad]

    def test_sweep_fits_the_base_once(self, monkeypatch):
        spec, train, test = self.logistic_instance(55, n=10)
        inits = []
        original = models.fit
        monkeypatch.setattr(models, "fit", lambda spec, samples, cfg, init=None:
                            inits.append(init) or original(spec, samples, cfg, init=init))
        loo_retrain_deltas(spec, train, test, FitConfig())
        assert len(inits) == 11 and inits[0] is None
        assert all(init is not None for init in inits[1:])

    def test_sweep_needs_two_samples(self):
        with pytest.raises(ValueError):
            loo_retrain_deltas(QUAD, [qsample(0, 1.0)], [qsample(1, 0.0)],
                               FitConfig(method="closed_form"))


def small_run(selector=SelectorKind.REGULARIZED_IF, seed=0, oracle=True, **kwargs):
    stream = make_stream(StreamSpec(num_tasks=2, classes_per_task=2,
                                    samples_per_class=20, dim=2, batch_size=10,
                                    seed=123))
    model = ModelSpec(kind="logistic", dim=2, num_classes=4, l2_strength=0.05)
    return run_continual(
        stream, model, selector,
        CriterionConfig(budget=20, mu=0.5, nu=0.01),
        OracleConfig() if oracle else None,
        seed=seed, learning_rate=0.01, epochs=2, **kwargs)


class TestRunContinual:
    def test_smoke_contract(self):
        report = small_run()
        R = report.acc_matrix.values
        assert R.shape == (2, 2)
        assert np.isnan(R[0, 1]) and not np.isnan(R[1, 0])
        acc, bwt = acc_bwt(report.acc_matrix)
        assert report.acc == pytest.approx(acc) and report.bwt == pytest.approx(bwt)
        assert all(len(s.kept_ids) <= 20 for s in report.steps)
        assert len(report.steps) == 8  # 4 batches per task, last epoch only

    def test_deterministic_reports(self):
        a = small_run(seed=5)
        b = small_run(seed=5)
        assert json.dumps(a.to_json_dict(), sort_keys=True) == \
            json.dumps(b.to_json_dict(), sort_keys=True)

    def test_seed_changes_report(self):
        a = small_run(seed=5)
        b = small_run(seed=6)
        assert json.dumps(a.to_json_dict()) != json.dumps(b.to_json_dict())

    @pytest.mark.parametrize("selector", [SelectorKind.VANILLA_IF,
                                          SelectorKind.IF_GRAD_MATCH,
                                          SelectorKind.IF_DIVERSITY,
                                          SelectorKind.RESERVOIR,
                                          SelectorKind.RING])
    def test_all_selectors_run(self, selector):
        report = small_run(selector=selector, oracle=False)
        assert not np.isnan(report.acc_matrix.values[1, 1])

    def test_tau_series_emitted_with_oracle(self):
        report = small_run()
        assert len(report.steps) == 8
        taus = [s.tau for s in report.steps if s.tau is not None]
        assert taus, "expected at least one checkpoint with enough overlap"
        assert all(-1.0 <= t <= 1.0 for t in taus)

    def test_oversized_budget_rejected(self):
        stream = make_stream(StreamSpec(num_tasks=2, classes_per_task=1,
                                        samples_per_class=5, seed=1))
        model = ModelSpec(kind="logistic", dim=2, num_classes=2)
        with pytest.raises(ValueError):
            run_continual(stream, model, SelectorKind.RESERVOIR,
                          CriterionConfig(budget=100), learning_rate=0.01, epochs=1)

    @pytest.mark.parametrize("selector, target, keep_all", [
        (SelectorKind.REGULARIZED_IF, "select_greedy",
         lambda ctx, criterion, kind: (ReplayBuffer(ctx.batch.ids), None)),
        (SelectorKind.RESERVOIR, "_reservoir_rows",
         lambda rows, capacity, batch, offered, rng: np.concatenate([rows, batch])),
        (SelectorKind.RING, "ring_slots",
         lambda labels, capacity, num_classes: np.arange(len(labels))),
    ], ids=["greedy", "reservoir", "ring"])
    def test_selector_overflowing_the_budget_is_rejected(self, monkeypatch, selector, target,
                                                         keep_all):
        """A selector that keeps every candidate overflows the 20-sample
        budget at the third batch of 10, and the loop stops there."""
        monkeypatch.setattr(harness, target, keep_all)
        with pytest.raises(RuntimeError,
                           match=r"step 2 .*selector violated the buffer capacity"):
            small_run(selector=selector, oracle=False)

    def test_one_live_context_per_step(self, monkeypatch):
        """Each selection step's context is released before the next one is
        built, so the SGD steps between them hold no context."""
        live = weakref.WeakSet()
        alive_at_build = []
        original = harness.build_context

        def tracked(*args, **kwargs):
            alive_at_build.append(len(live))
            ctx = original(*args, **kwargs)
            live.add(ctx)
            return ctx
        monkeypatch.setattr(harness, "build_context", tracked)
        report = small_run()
        assert alive_at_build == [0] * len(report.steps) == [0] * 8

    def test_errors_carry_step_context(self, monkeypatch):
        def failing_context(*args, **kwargs):
            raise SolveError("matrix is not positive definite")
        monkeypatch.setattr(harness, "build_context", failing_context)
        with pytest.raises(RuntimeError, match=r"step 0 \(task 0, epoch 2, batch 0\): matrix"):
            small_run()


class TestNamedRngs:
    def test_streams_are_independent(self):
        a = named_rng(7, "model_init").normal(size=4)
        named_rng(7, "replay").normal(size=100)  # consuming another stream
        b = named_rng(7, "model_init").normal(size=4)
        assert np.array_equal(a, b)

    def test_streams_differ_from_each_other(self):
        a = named_rng(7, "model_init").normal(size=4)
        b = named_rng(7, "replay").normal(size=4)
        assert not np.array_equal(a, b)
