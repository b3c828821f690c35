import numpy as np
import pytest
from hypothesis import given, strategies as st

from aersnn import evaluator
from aersnn.config import RunConfig
from aersnn.encoders import Sample
from aersnn.evaluator import (
    Metrics,
    NeuronLabels,
    assign_labels,
    build_engine,
    classify,
    evaluate,
    run_experiment,
    sweep,
    train_pass,
)
from aersnn.topology import store_to_bytes

from oracles import classify_by_loop, train_one_by_one


def detector_config(**overrides):
    """2 inputs, 3 excitatory: neurons 0/1 detect inputs 0/1, neuron 2 is
    wired to nothing and stays silent. Deterministic encoder (rate 1)."""
    base = dict(
        n_input=2, n_exc=3, w_inh=0.0,
        v_rest=0.0, v_thresh=0.5, tau_v=1e6,
        tau_x=20.0, alpha=1.0, x_max=10.0,
        alpha_pre=0.01, alpha_post=0.004, w_min=0.0, w_max=1.0,
        timesteps=6, max_rate=1.0,
        train_samples=-1, eval_samples=-1, label_fraction=0.5,
        n_classes=2, seed=3,
    )
    base.update(overrides)
    return RunConfig(**base)


def detector_engine(cfg):
    engine = build_engine(cfg)
    engine.store.w = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    engine.learning = False
    return engine


def onehot_samples(n_each=2):
    samples = []
    for _ in range(n_each):
        samples.append(Sample(features=np.array([1.0, 0.0]), label=0))
        samples.append(Sample(features=np.array([0.0, 1.0]), label=1))
    return samples


class TestAssignLabels:
    def test_selective_neurons_get_their_class(self):
        cfg = detector_config()
        engine = detector_engine(cfg)
        labels = assign_labels(engine, onehot_samples(), cfg, n_classes=2)
        assert labels.label[0] == 0
        assert labels.label[1] == 1

    def test_silent_neuron_labeled_zero_and_flagged(self):
        cfg = detector_config()
        engine = detector_engine(cfg)
        labels = assign_labels(engine, onehot_samples(), cfg, n_classes=2)
        assert labels.label[2] == 0
        assert labels.silent.tolist() == [False, False, True]

    def test_response_is_mean_count_per_class(self):
        cfg = detector_config()
        engine = detector_engine(cfg)
        labels = assign_labels(engine, onehot_samples(n_each=3), cfg, n_classes=2)
        # detector fires every step it is driven: timesteps spikes per sample
        assert labels.response[0, 0] == pytest.approx(cfg.timesteps)
        assert labels.response[0, 1] == 0.0

    def test_tie_breaks_to_lowest_class(self):
        response = np.array([[2.0, 2.0, 1.0, 0.0]])
        assert int(np.argmax(response, axis=1)[0]) == 0

    def test_empty_labeling_set_rejected(self):
        cfg = detector_config()
        with pytest.raises(ValueError):
            assign_labels(detector_engine(cfg), [], cfg, n_classes=2)

    def test_scaling_responses_preserves_labels(self):
        cfg = detector_config()
        labels = assign_labels(detector_engine(cfg), onehot_samples(), cfg, 2)
        scaled = np.argmax(labels.response * 17.3, axis=1)
        assert np.array_equal(scaled[~labels.silent], labels.label[~labels.silent])

    def test_round_trips_through_dict(self):
        cfg = detector_config()
        labels = assign_labels(detector_engine(cfg), onehot_samples(), cfg, 2)
        clone = NeuronLabels.from_dict(labels.to_dict(), 2)
        assert np.array_equal(clone.label, labels.label)
        assert np.array_equal(clone.response, labels.response)
        assert np.array_equal(clone.silent, labels.silent)


def labels_of(assignments, n_classes=2):
    labels = np.array(assignments)
    response = np.zeros((len(assignments), n_classes))
    response[np.arange(len(assignments)), labels] = 1.0
    return NeuronLabels(label=labels, response=response,
                        silent=np.zeros(len(assignments), dtype=bool))


class TestClassify:
    def test_all_zero_counts_tie_to_class_zero(self):
        assert classify(np.zeros(2), labels_of([0, 1])) == 0

    def test_mean_count_argmax(self):
        assert classify(np.array([5, 2]), labels_of([0, 1])) == 0

    def test_means_not_sums(self):
        # class 0 holds two neurons with mean 1, class 1 one neuron with 3
        assert classify(np.array([1, 1, 3]), labels_of([0, 0, 1])) == 1

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 9, size=6).astype(float)
        assignments = [0, 1, 2, 0, 1, 2]
        base = classify(counts, labels_of(assignments, n_classes=3))
        perm = rng.permutation(6)
        permuted = classify(counts[perm],
                            labels_of([assignments[k] for k in perm], n_classes=3))
        assert base == permuted

    @given(st.integers(1, 10).flatmap(lambda n_classes: st.tuples(
        st.just(n_classes),
        st.lists(st.tuples(st.integers(0, n_classes - 1), st.integers(0, 40)),
                 min_size=1, max_size=119))))
    def test_equals_per_class_loop(self, case):
        # small counts and few neurons per class give ties and empty groups
        n_classes, neurons = case
        assignments, counts = zip(*neurons)
        labels = labels_of(list(assignments), n_classes=n_classes)
        counts = np.array(counts, dtype=np.int64)
        assert classify(counts, labels) == classify_by_loop(counts, labels)


class TestEvaluate:
    def test_perfect_detector_scores_one(self):
        cfg = detector_config()
        engine = detector_engine(cfg)
        labels = assign_labels(engine, onehot_samples(), cfg, n_classes=2)
        metrics = evaluate(engine, labels, onehot_samples(n_each=4), cfg)
        assert metrics.accuracy == 1.0
        assert np.array_equal(metrics.confusion, np.diag([4, 4]))
        assert metrics.per_class_recall.tolist() == [1.0, 1.0]

    def test_confusion_rows_sum_to_class_counts(self):
        cfg = detector_config()
        engine = detector_engine(cfg)
        labels = assign_labels(engine, onehot_samples(), cfg, n_classes=2)
        test_set = onehot_samples(n_each=3) + [Sample(np.array([1.0, 0.0]), 0)]
        metrics = evaluate(engine, labels, test_set, cfg)
        assert metrics.confusion.sum() == len(test_set)
        assert metrics.confusion[0].sum() == 4
        assert metrics.confusion[1].sum() == 3

    def test_empty_test_set_rejected(self):
        cfg = detector_config()
        engine = detector_engine(cfg)
        labels = assign_labels(engine, onehot_samples(), cfg, n_classes=2)
        with pytest.raises(ValueError):
            evaluate(engine, labels, [], cfg)

    def test_evaluation_never_touches_weights(self):
        cfg = detector_config()
        engine = detector_engine(cfg)
        engine.learning = True  # evaluate must force it off and restore
        labels = assign_labels(engine, onehot_samples(), cfg, n_classes=2)
        before = store_to_bytes(engine.store)
        evaluate(engine, labels, onehot_samples(), cfg)
        after = store_to_bytes(engine.store)
        # weights identical; dynamic arrays may differ, so compare the
        # weight block only
        assert engine.learning is True
        assert before[: 100] == after[: 100]
        w_bytes = engine.store.w.tobytes()
        evaluate(engine, labels, onehot_samples(), cfg)
        assert engine.store.w.tobytes() == w_bytes


def random_samples(n, n_input=5, seed=4):
    rng = np.random.default_rng(seed)
    return [Sample(features=rng.random(n_input), label=k % 2) for k in range(n)]


class TestTrainPass:
    def learning_config(self, **overrides):
        return detector_config(n_input=5, n_exc=3, max_rate=0.6, epochs=2, **overrides)

    def test_totals_are_the_sums_of_the_sample_runs(self):
        cfg = self.learning_config()
        samples = random_samples(5)
        engine, by_hand = build_engine(cfg), build_engine(cfg)
        totals = train_pass(engine, samples, cfg)
        assert totals == train_one_by_one(by_hand, samples, cfg)
        assert totals["samples"] == 10 and totals["packets_out"] > 0
        assert store_to_bytes(engine.store) == store_to_bytes(by_hand.store)

    def test_batches_flush_every_batch_size_samples_and_at_epoch_end(self):
        cfg = self.learning_config(batch_size=3)
        samples = random_samples(7)
        engine, by_hand = build_engine(cfg), build_engine(cfg)
        initial = engine.store.w.copy()
        train_pass(engine, samples, cfg)
        train_one_by_one(by_hand, samples, cfg)  # flushes after samples 3, 6 and 7
        assert not np.array_equal(engine.store.w, initial)
        assert store_to_bytes(engine.store) == store_to_bytes(by_hand.store)

    def test_frozen_pass_restores_learning(self):
        cfg = self.learning_config()
        engine = build_engine(cfg)
        weights = engine.store.w.copy()
        train_pass(engine, random_samples(3), cfg, learning=False)
        assert engine.learning is True
        assert np.array_equal(engine.store.w, weights)

    def test_evaluate_restores_learning_when_classify_raises(self, monkeypatch):
        cfg = detector_config()
        engine = detector_engine(cfg)
        labels = assign_labels(engine, onehot_samples(), cfg, n_classes=2)
        engine.learning = True

        def failing_classify(counts, labels):
            raise RuntimeError("classifier failed")

        monkeypatch.setattr(evaluator, "classify", failing_classify)
        with pytest.raises(RuntimeError, match="classifier failed"):
            evaluate(engine, labels, onehot_samples(), cfg)
        assert engine.learning is True


class TestRunExperiment:
    def test_deterministic_end_to_end(self):
        cfg = detector_config(train_samples=6, eval_samples=4)
        data = onehot_samples(n_each=4)
        a = run_experiment(cfg, data, data)
        b = run_experiment(cfg, data, data)
        assert store_to_bytes(a.store) == store_to_bytes(b.store)
        assert a.metrics.accuracy == b.metrics.accuracy
        assert np.array_equal(a.metrics.confusion, b.metrics.confusion)

    def test_zero_training_samples_keep_initial_weights(self):
        cfg = detector_config(train_samples=0)
        data = onehot_samples(n_each=4)
        from aersnn.topology import build_network
        from aersnn.config import STREAM_INIT, derive_seed

        fresh = build_network(cfg.topology_params(), cfg.stdp_params(),
                              seed=derive_seed(cfg.seed, STREAM_INIT),
                              numeric=cfg.numeric_spec(), v_rest=cfg.v_rest)
        result = run_experiment(cfg, data, data)
        assert result.store.w.tobytes() == fresh.w.tobytes()


class TestSweep:
    def test_unknown_parameter_rejected(self):
        cfg = detector_config()
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            sweep("v_rest", [0.0], cfg, onehot_samples(), onehot_samples())

    def test_single_value_sweep_matches_plain_run(self):
        cfg = detector_config(train_samples=4, eval_samples=4)
        data = onehot_samples(n_each=3)
        points = sweep("v_thresh", [cfg.v_thresh], cfg, data, data)
        plain = run_experiment(cfg, data, data)
        assert len(points) == 1
        assert points[0].metrics.accuracy == plain.metrics.accuracy
        assert np.array_equal(points[0].metrics.confusion, plain.metrics.confusion)

    def test_row_per_value(self):
        cfg = detector_config(train_samples=2, eval_samples=2)
        data = onehot_samples(n_each=2)
        points = sweep("timesteps", [4, 6, 8], cfg, data, data)
        assert [p.value for p in points] == [4.0, 6.0, 8.0]
