import dataclasses
import weakref

import numpy as np
import pytest

from mergepipe.dataset import (
    DealFrame,
    DealRecord,
    GeneratorConfig,
    SplitSpec,
    generate_synthetic,
    temporal_split,
)
from mergepipe import pipeline
from mergepipe.errors import BadConfig, MissingSentiment
from mergepipe.impute import impute
from mergepipe.neural import LayerSpec, LossKind, NetworkSpec, TrainConfig
from mergepipe.pipeline import (
    FrameworkConfig,
    class_weights,
    fit_logit,
    hyper_search,
    logit_config,
    run_framework1,
    run_framework2,
    run_framework3,
)
from mergepipe.presets import PRESET_NAMES, preset


def universe(
    seed=0,
    n=600,
    signal=2.5,
    sentiment_signal=0.0,
    sentiment_length=0,
    missing=0.05,
    n_numeric=8,
    n_categorical=3,
    levels=3,
):
    cfg = GeneratorConfig(
        n_deals=n,
        cancel_rate=0.25,
        n_numeric=n_numeric,
        n_categorical=n_categorical,
        levels_per_categorical=levels,
        sentiment_length=sentiment_length,
        missing_rate=missing,
        signal_strength=signal,
        sentiment_signal=sentiment_signal,
    )
    deals = generate_synthetic(cfg, seed=seed)
    train, test = temporal_split(deals, SplitSpec(train_fraction_override=0.8))
    return train, test, cfg.schema()


def small_net(widths=(16,), act="selu", loss=None, seed=0):
    return NetworkSpec(
        layers=tuple(LayerSpec("dense", w, act) for w in widths),
        loss=loss or LossKind.cross_entropy(),
        seed=seed,
    )


def fast_train(epochs=25, lr=5e-3):
    return TrainConfig(epochs=epochs, learning_rate=lr, batch_size=32, patience=8)


class TestFramework1:
    def test_high_signal_recovery(self):
        train, test, schema = universe(seed=1, signal=4.0)
        config = FrameworkConfig(
            framework="f1",
            network=small_net(),
            pca_dims=6,
            mca_dims=4,
            use_smote=True,
            train=fast_train(),
            seed=3,
        )
        fitted, in_rep, out_rep = run_framework1(train, test, schema, config)
        assert out_rep.accuracy >= 0.95
        assert out_rep.recall >= 0.95
        assert in_rep.confusion.total == len(train)

    def test_feature_width_is_pca_plus_mca(self):
        train, test, schema = universe(seed=2)
        config = FrameworkConfig(
            framework="f1",
            network=small_net(),
            pca_dims=5,
            mca_dims=4,
            train=fast_train(epochs=2),
        )
        fitted, _, _ = run_framework1(train, test, schema, config)
        assert fitted.feature_width == 9

    def test_deterministic_given_seed(self):
        train, test, schema = universe(seed=3, n=300)
        config = FrameworkConfig(
            framework="f1",
            network=small_net(),
            pca_dims=4,
            mca_dims=3,
            use_smote=True,
            train=fast_train(epochs=5),
            seed=11,
        )
        _, _, rep_a = run_framework1(train, test, schema, config)
        _, _, rep_b = run_framework1(train, test, schema, config)
        assert rep_a == rep_b

    def test_framework_field_checked(self):
        train, test, schema = universe(seed=4, n=200)
        config = FrameworkConfig(framework="f2", network=small_net(), train=fast_train(epochs=1))
        with pytest.raises(BadConfig):
            run_framework1(train, test, schema, config)


class TestFramework2:
    def test_width_includes_embedding(self):
        train, test, schema = universe(seed=5, n=300, sentiment_length=20)
        config = FrameworkConfig(
            framework="f2",
            network=small_net(),
            pca_dims=5,
            mca_dims=4,
            embedding_dim=3,
            autoencoder_epochs=2,
            train=fast_train(epochs=2),
        )
        fitted, _, _ = run_framework2(train, test, schema, config)
        assert fitted.feature_width == 5 + 4 + 3
        assert fitted.autoencoder is not None

    def test_missing_sentiment_raises(self):
        train, test, schema = universe(seed=6, n=200)  # no sentiment columns
        config = FrameworkConfig(framework="f2", network=small_net(), train=fast_train(epochs=1))
        with pytest.raises(MissingSentiment):
            run_framework2(train, test, schema, config)

    def test_sentiment_only_signal_detectable(self):
        train, test, schema = universe(
            seed=7, n=900, signal=0.0, sentiment_signal=0.8, sentiment_length=30, missing=0.0
        )
        config = FrameworkConfig(
            framework="f2",
            network=small_net((8,)),
            pca_dims=4,
            mca_dims=3,
            embedding_dim=3,
            autoencoder_hidden=8,
            autoencoder_epochs=40,
            train=fast_train(epochs=40),
            seed=2,
        )
        _, _, out_rep = run_framework2(train, test, schema, config)
        assert out_rep.auroc > 0.6


class TestFramework3:
    def test_runs_and_is_deterministic(self):
        train, test, schema = universe(seed=8, n=300, sentiment_length=16, signal=3.0)
        config = FrameworkConfig(
            framework="f3",
            network=small_net((6, 8)),
            pca_dims=4,
            mca_dims=3,
            lstm_width=4,
            use_smote=True,
            train=fast_train(epochs=6),
            seed=5,
        )
        _, _, rep_a = run_framework3(train, test, schema, config)
        _, _, rep_b = run_framework3(train, test, schema, config)
        assert rep_a == rep_b

    def test_zero_lstm_block_ignores_sequences(self):
        train, test, schema = universe(seed=9, n=240, sentiment_length=12)
        config = FrameworkConfig(
            framework="f3",
            network=small_net((6, 4)),
            pca_dims=4,
            mca_dims=3,
            lstm_width=3,
            train=fast_train(epochs=3),
            seed=6,
        )
        fitted, _, _ = run_framework3(train, test, schema, config)
        for name in ("lstm.wx", "lstm.wh", "lstm.b"):
            fitted.params.view(name)[:] = 0.0
        model = fitted._model()
        tab, seq = fitted.features(train[:8])
        q_real, _ = model.forward_batch(fitted.params, (tab, seq))
        q_zero, _ = model.forward_batch(fitted.params, (tab, np.zeros_like(seq)))
        assert np.array_equal(q_real, q_zero)

    def test_noise_sentiment_matches_tabular_only_run(self):
        # sentiment carries no label information: the joint model should land
        # near the tabular-only setup on strongly separated data
        train, test, schema = universe(
            seed=10, n=500, signal=4.0, sentiment_length=12, missing=0.0
        )
        f3 = FrameworkConfig(
            framework="f3",
            network=small_net((8, 8)),
            pca_dims=5,
            mca_dims=4,
            lstm_width=3,
            train=fast_train(),
            seed=7,
        )
        f1 = FrameworkConfig(
            framework="f1",
            network=small_net((8, 8)),
            pca_dims=5,
            mca_dims=4,
            train=fast_train(),
            seed=7,
        )
        _, _, rep3 = run_framework3(train, test, schema, f3)
        _, _, rep1 = run_framework1(train, test, schema, f1)
        assert abs(rep3.accuracy - rep1.accuracy) <= 0.05


class TestLogit:
    def test_class_weights_forced_arithmetic(self):
        y = np.array([0.0] * 80 + [1.0] * 20)
        cw = class_weights(y)
        assert cw["negative"] == pytest.approx(0.625)
        assert cw["positive"] == pytest.approx(2.5)
        weights = np.where(y > 0, cw["positive"], cw["negative"])
        assert weights.mean() == pytest.approx(1.0)

    def test_separable_logit(self):
        train, test, schema = universe(seed=11, n=500, signal=5.0, missing=0.0)
        config = logit_config(seed=1, train=fast_train(epochs=60, lr=0.02), pca_dims=6, mca_dims=4)
        _, _, out_rep = fit_logit(train, test, schema, use_class_weights=False, config=config)
        assert out_rep.accuracy >= 0.97

    def test_weighted_recall_at_least_unweighted(self):
        train, test, schema = universe(seed=12, n=900, signal=1.1, missing=0.0)
        config = logit_config(seed=2, train=fast_train(epochs=50, lr=0.02), pca_dims=6, mca_dims=4)
        _, _, plain = fit_logit(train, test, schema, use_class_weights=False, config=config)
        _, _, weighted = fit_logit(train, test, schema, use_class_weights=True, config=config)
        assert weighted.recall >= plain.recall

    def test_weighted_logit_trains_once_in_place_of_smote(self, monkeypatch):
        train, test, schema = universe(seed=15, n=400)
        config = logit_config(
            seed=2, use_smote=True, train=fast_train(epochs=10, lr=0.02), pca_dims=6, mca_dims=4
        )
        weights_seen = []
        smote_calls = []
        real_train, real_smote = pipeline.train, pipeline.smote

        def counted_train(*args, **kwargs):
            weights_seen.append(kwargs.get("sample_weight"))
            return real_train(*args, **kwargs)

        def counted_smote(*args, **kwargs):
            smote_calls.append(args)
            return real_smote(*args, **kwargs)

        monkeypatch.setattr(pipeline, "train", counted_train)
        monkeypatch.setattr(pipeline, "smote", counted_smote)
        fit_logit(train, test, schema, use_class_weights=True, config=config)
        assert len(weights_seen) == 1
        frame = DealFrame.of(train, schema)
        fit_idx, _ = pipeline._validation_split(frame.dates, config.validation_fraction)
        fit_y = frame.labels[fit_idx].astype(np.float64)
        cw = class_weights(fit_y)
        expected = np.where(fit_y > 0, cw["positive"], cw["negative"])
        assert weights_seen[0].tobytes() == expected.tobytes()
        assert smote_calls == []


class TestInSampleReuse:
    """In-sample reports come from the fit-time imputation, not a second one."""

    TO_JSON_KEYS = {
        "format_version", "config", "schema", "imputer", "pca", "mca",
        "kept_onehot_cols", "autoencoder", "params", "feature_width",
    }

    @staticmethod
    def assert_same_report(reused, fresh):
        for f in dataclasses.fields(fresh):
            assert getattr(reused, f.name) == getattr(fresh, f.name), f.name

    @staticmethod
    def count_impute_rows(monkeypatch):
        rows = []

        def counted(model, deals):
            rows.append(len(deals))
            return impute(model, deals)

        monkeypatch.setattr(pipeline, "impute", counted)
        return rows

    def test_f1_preset(self, monkeypatch):
        train, test, schema = universe(seed=14, n=400)
        config = preset("f1/smote-nn-f1", seed=1, pca_dims=6, mca_dims=4, train=fast_train(epochs=5))
        rows = self.count_impute_rows(monkeypatch)
        fitted, in_rep, _ = run_framework1(train, test, schema, config)
        assert rows == [len(train), len(test)]
        self.assert_same_report(in_rep, fitted.evaluate_on(train))
        assert set(fitted.to_json()) == self.TO_JSON_KEYS

    @pytest.mark.parametrize("framework", ["f2", "f3"])
    def test_sequence_frameworks_reuse_fit_time_inputs(self, monkeypatch, framework):
        train, test, schema = universe(seed=16, n=240, sentiment_length=12)
        config = FrameworkConfig(
            framework=framework,
            network=small_net((6, 4)),
            pca_dims=4,
            mca_dims=3,
            embedding_dim=2,
            autoencoder_epochs=2,
            lstm_width=3,
            train=fast_train(epochs=3),
            seed=8,
        )
        sentiment_calls = []
        encode_calls = []
        real_sentiment, real_encode = pipeline.sentiment_matrix, pipeline.autoencoder_encode

        def counted_sentiment(deals, schema):
            sentiment_calls.append(len(deals))
            return real_sentiment(deals, schema)

        def counted_encode(fitted, sequences):
            encode_calls.append(len(sequences))
            return real_encode(fitted, sequences)

        monkeypatch.setattr(pipeline, "sentiment_matrix", counted_sentiment)
        monkeypatch.setattr(pipeline, "autoencoder_encode", counted_encode)
        fitted, in_rep, _ = pipeline.run_config(train, test, schema, config)
        # one conversion (and, for f2, one encoding) of the training rows at
        # fit time, one of the test rows; none for the in-sample report
        assert sentiment_calls == [len(train), len(test)]
        assert encode_calls == ([len(train), len(test)] if framework == "f2" else [])
        self.assert_same_report(in_rep, fitted.evaluate_on(train))

    def test_network_built_once(self, monkeypatch):
        train, test, schema = universe(seed=17, n=300)
        config = preset(
            "f1/smote-nn-f1", seed=1, pca_dims=6, mca_dims=4, train=fast_train(epochs=3)
        )
        built = []
        real = pipeline.DenseNet

        def counted(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "DenseNet", counted)
        fitted, _, _ = run_framework1(train, test, schema, config)
        fitted.scores(test[:1])
        fitted.evaluate_on(test)
        assert len(built) == 1
        assert fitted._model() is fitted._model()

    @pytest.mark.parametrize("framework", ["f1", "f3"])
    def test_fitted_pipeline_keeps_no_training_rows(self, framework):
        train, _, schema = universe(seed=18, n=240, sentiment_length=12)
        config = FrameworkConfig(
            framework=framework, network=small_net((8,)), pca_dims=4, mca_dims=3,
            lstm_width=3, train=fast_train(epochs=2), seed=1,
        )
        fitted = pipeline.fit_pipeline(train, schema, config)
        assert not hasattr(fitted, "train_imputed") and not hasattr(fitted, "train_inputs")

        def holds_training_rows(value):
            if isinstance(value, np.ndarray):
                return value.ndim > 0 and value.shape[0] == len(train)
            if isinstance(value, (list, tuple)):
                return any(isinstance(v, DealRecord) or holds_training_rows(v) for v in value)
            return False

        # the imputer's reference matrix is the one copy of the training rows
        for name, value in vars(fitted).items():
            assert not holds_training_rows(value), name

    def test_weighted_logit(self, monkeypatch):
        train, test, schema = universe(seed=15, n=400)
        config = logit_config(seed=2, train=fast_train(epochs=10, lr=0.02), pca_dims=6, mca_dims=4)
        rows = self.count_impute_rows(monkeypatch)
        fitted, in_rep, _ = fit_logit(train, test, schema, use_class_weights=True, config=config)
        assert rows == [len(train), len(test)]
        self.assert_same_report(in_rep, fitted.evaluate_on(train))
        assert set(fitted.to_json()) == self.TO_JSON_KEYS


class TestLeakage:
    def test_corrupting_test_labels_changes_nothing_fitted(self):
        train, test, schema = universe(seed=13, n=300, sentiment_length=12)
        config = FrameworkConfig(
            framework="f2",
            network=small_net((8,)),
            pca_dims=4,
            mca_dims=3,
            embedding_dim=2,
            autoencoder_epochs=2,
            use_smote=True,
            train=fast_train(epochs=3),
            seed=4,
        )
        flipped = [dataclasses.replace(r, label=1 - r.label) for r in test]
        a, _, _ = run_framework2(train, test, schema, config)
        b, _, _ = run_framework2(train, flipped, schema, config)
        assert np.array_equal(a.params.values, b.params.values)
        assert np.array_equal(a.pca.components, b.pca.components)
        assert np.array_equal(a.mca.column_axes, b.mca.column_axes)
        assert np.array_equal(a.imputer.reference_numeric, b.imputer.reference_numeric, equal_nan=True)
        assert np.array_equal(a.autoencoder.params.values, b.autoencoder.params.values)


class TestSearch:
    def space(self):
        return {
            "network.layers": [
                [{"kind": "dense", "width": 8, "activation": "selu"}],
                [{"kind": "dense", "width": 16, "activation": "elu"}],
            ],
            "train.learning_rate": [0.02, 0.005],
        }

    def base(self, seed=0):
        return FrameworkConfig(
            framework="f1",
            network=small_net((8,)),
            pca_dims=4,
            mca_dims=3,
            train=fast_train(epochs=5),
            seed=seed,
        )

    def test_budget_one(self):
        train, test, schema = universe(seed=14, n=250)
        results = hyper_search(
            train, schema, self.space(), budget=1, objective="recall", seed=3,
            base_config=self.base(), test_deals=test,
        )
        assert len(results) == 1
        assert results[0].test_report is not None

    def test_grid_deterministic(self):
        train, _, schema = universe(seed=15, n=250)
        a = hyper_search(
            train, schema, self.space(), budget=4, objective="accuracy", seed=9,
            base_config=self.base(), strategy="grid",
        )
        b = hyper_search(
            train, schema, self.space(), budget=4, objective="accuracy", seed=9,
            base_config=self.base(), strategy="grid",
        )
        assert [t.objective_value for t in a] == [t.objective_value for t in b]
        assert [t.trial for t in a] == [t.trial for t in b]
        values = [t.objective_value for t in a]
        assert values == sorted(values, reverse=True)

    def test_thread_pool_does_not_change_results(self, monkeypatch):
        train, _, schema = universe(seed=17, n=250)
        kwargs = dict(
            space=self.space(), budget=4, objective="recall", seed=6,
            base_config=self.base(), strategy="grid",
        )
        serial = hyper_search(train, schema, **kwargs)
        monkeypatch.setenv("MERGEPIPE_THREADS", "3")
        pooled = hyper_search(train, schema, **kwargs)
        assert [t.trial for t in serial] == [t.trial for t in pooled]
        assert [t.objective_value for t in serial] == [t.objective_value for t in pooled]

    def test_unknown_strategy_rejected_when_budget_covers_grid(self):
        train, _, schema = universe(seed=14, n=250)
        with pytest.raises(BadConfig, match="unknown search strategy"):
            hyper_search(
                train, schema, self.space(), budget=4, objective="recall", seed=3,
                base_config=self.base(), strategy="bogus",
            )

    def test_bad_candidate_raises_before_any_trial_trains(self, monkeypatch):
        train, _, schema = universe(seed=14, n=250)
        fits = []
        monkeypatch.setattr(pipeline, "fit_pipeline", lambda *args: fits.append(args))
        with pytest.raises(BadConfig, match="learning_rate"):
            hyper_search(
                train, schema, {"train.learning_rate": [0.01, -1.0]}, budget=2,
                objective="recall", seed=3, base_config=self.base(), strategy="grid",
            )
        assert fits == []

    def test_only_the_best_fitted_pipeline_is_kept(self, monkeypatch):
        train, test, schema = universe(seed=17, n=250)
        fit = pipeline.fit_pipeline
        alive = []
        live_at_start = []

        def recording_fit(*args, **kwargs):
            live_at_start.append(sum(ref() is not None for ref in alive))
            fitted = fit(*args, **kwargs)
            alive.append(weakref.ref(fitted))
            return fitted

        monkeypatch.setattr(pipeline, "fit_pipeline", recording_fit)
        results = hyper_search(
            train, schema, self.space(), budget=4, objective="recall", seed=6,
            base_config=self.base(), test_deals=test, strategy="grid",
        )
        assert len(live_at_start) == 4
        assert max(live_at_start) <= 2
        assert results[0].test_report is not None
        assert all(t.test_report is None for t in results[1:])

    def test_recall_objective_dominates_on_recall(self):
        train, _, schema = universe(seed=16, n=400, signal=1.0)
        kwargs = dict(
            space=self.space(), budget=4, seed=5, base_config=self.base(seed=1),
            strategy="grid",
        )
        by_recall = hyper_search(train, schema, objective="recall", **kwargs)
        by_accuracy = hyper_search(train, schema, objective="accuracy", **kwargs)
        recall_of = lambda t: t.valid_report.recall if t.valid_report.recall is not None else -1
        assert recall_of(by_recall[0]) >= recall_of(by_accuracy[0])


class TestPresets:
    def test_all_presets_build(self):
        for name in PRESET_NAMES:
            config = preset(name, seed=1)
            assert config.objective in ("recall", "accuracy", "f1")

    def test_paper_defaults(self):
        config = preset("f1/nn-recall")
        assert [l.width for l in config.network.layers] == [64]
        assert config.network.layers[0].activation == "selu"
        assert config.network.loss.kind == "cross_entropy"
        assert (config.pca_dims, config.mca_dims) == (20, 45)
        f3 = preset("f3/smote-nn-recall")
        assert [l.width for l in f3.network.layers] == [4, 16]
        assert f3.use_smote and f3.network.loss.kind == "f1"
