"""Wires the stages into three classification setups plus logit baselines.

Setup f1: PCA(numeric) + MCA(one-hot) -> optional SMOTE -> feedforward net.
Setup f2: adds a frozen sequence-autoencoder embedding before the net.
Setup f3: feedforward branch on tabular features joined with an LSTM branch
reading the raw sentiment sequence, trained end to end.

All transforms, the oversampler, and model selection see only training
rows (plus the internal validation slice carved from the most recent
training deals); test rows enter evaluation only.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dataset import (
    DatasetSchema,
    labels_vector,
    numeric_matrix,
    sentiment_matrix,
)
from .errors import BadConfig, EmptySpace, MissingSentiment
from .impute import ImputerModel, fit_imputer, impute
from .metrics import EvalReport, evaluate
from .neural import (
    AutoencoderSpec,
    DenseNet,
    FittedAutoencoder,
    JointNet,
    LossKind,
    NetworkParams,
    NetworkSpec,
    TrainConfig,
    autoencoder_encode,
    autoencoder_fit,
    train,
)
from .reduce import (
    McaModel,
    PcaModel,
    mca_fit,
    mca_transform,
    one_hot_encode,
    pca_fit,
    pca_transform,
)
from .resample import SmoteConfig, smote

FRAMEWORKS = ("f1", "f2", "f3")
OBJECTIVES = ("recall", "accuracy", "f1")


@dataclass(frozen=True)
class FrameworkConfig:
    framework: str
    network: NetworkSpec
    pca_dims: int = 20
    mca_dims: int = 45
    embedding_dim: int = 5
    autoencoder_hidden: int = 5
    autoencoder_epochs: int = 30
    lstm_width: int = 8
    use_smote: bool = False
    smote: SmoteConfig = field(default_factory=SmoteConfig)
    impute_k: int = 5
    train: TrainConfig = field(default_factory=TrainConfig)
    objective: str = "recall"
    validation_fraction: float = 0.10
    seed: int = 0

    def __post_init__(self):
        if self.framework not in FRAMEWORKS:
            raise BadConfig(f"framework must be one of {FRAMEWORKS}")
        if self.objective not in OBJECTIVES:
            raise BadConfig(f"objective must be one of {OBJECTIVES}")
        if self.embedding_dim < 1:
            raise BadConfig("embedding_dim must be >= 1")
        if not (0.0 < self.validation_fraction < 0.5):
            raise BadConfig("validation_fraction must lie in (0, 0.5)")
        if self.framework == "f3" and not self.network.layers:
            raise BadConfig("f3 needs at least one dense layer for the tabular branch")
        if any(l.kind != "dense" for l in self.network.layers):
            raise BadConfig("framework networks use dense layers; the f3 sequence branch "
                            "is configured through lstm_width")

    def to_json(self) -> dict:
        return {
            "framework": self.framework,
            "network": self.network.to_json(),
            "pca_dims": self.pca_dims,
            "mca_dims": self.mca_dims,
            "embedding_dim": self.embedding_dim,
            "autoencoder_hidden": self.autoencoder_hidden,
            "autoencoder_epochs": self.autoencoder_epochs,
            "lstm_width": self.lstm_width,
            "use_smote": self.use_smote,
            "smote": {
                "k_neighbors": self.smote.k_neighbors,
                "target_ratio": self.smote.target_ratio,
                "seed": self.smote.seed,
            },
            "impute_k": self.impute_k,
            "train": self.train.to_json(),
            "objective": self.objective,
            "validation_fraction": self.validation_fraction,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FrameworkConfig":
        doc = dict(doc)
        try:
            network = NetworkSpec.from_json(doc.pop("network"))
            smote_doc = doc.pop("smote", None)
            train_doc = doc.pop("train", None)
            return cls(
                network=network,
                smote=SmoteConfig(**smote_doc) if smote_doc else SmoteConfig(),
                train=TrainConfig.from_json(train_doc) if train_doc else TrainConfig(),
                **doc,
            )
        except (KeyError, TypeError) as exc:
            raise BadConfig(f"invalid run config: {exc}") from None


@dataclass
class FittedPipeline:
    """Everything fitted on training rows; prediction never refits."""

    config: FrameworkConfig
    schema: DatasetSchema
    imputer: ImputerModel
    pca: PcaModel
    mca: McaModel
    kept_onehot_cols: np.ndarray
    autoencoder: FittedAutoencoder | None
    params: NetworkParams
    trace: list
    valid_report: EvalReport
    feature_width: int
    class_weights: dict | None = None
    # training rows as imputed at fit time, and the model inputs built from
    # them; in-sample reports reuse both
    train_imputed: list | None = field(default=None, repr=False, compare=False)
    train_inputs: tuple | None = field(default=None, repr=False, compare=False)
    _network: object = field(default=None, init=False, repr=False, compare=False)

    def _model(self):
        """The network object, built once from config and feature width."""
        if self._network is not None:
            return self._network
        cfg = self.config
        spec = dataclasses.replace(cfg.network, seed=cfg.seed)
        if cfg.framework == "f3":
            self._network = JointNet(
                tab_layers=spec.layers[:1],
                lstm_width=cfg.lstm_width,
                head_layers=spec.layers[1:],
                loss=spec.loss,
                tab_dim=self.feature_width,
                seq_len=self.schema.sentiment_length,
                seed=cfg.seed,
            )
        else:
            self._network = DenseNet(spec, input_dim=self.feature_width)
        return self._network

    def tabular_features(self, deals_imputed) -> np.ndarray:
        numeric = numeric_matrix(deals_imputed, self.schema)
        pca_scores = pca_transform(self.pca, numeric)
        onehot = one_hot_encode(deals_imputed, self.schema)
        mca_scores = mca_transform(self.mca, onehot[:, self.kept_onehot_cols])
        return np.hstack([pca_scores, mca_scores])

    def features(self, deals):
        """Imputed + reduced model inputs for raw deal records."""
        return self.features_from_imputed(impute(self.imputer, deals))

    def features_from_imputed(self, deals_imputed):
        """Reduced model inputs for deal records that are already imputed."""
        tabular = self.tabular_features(deals_imputed)
        if self.config.framework == "f1":
            return (tabular,)
        sequences = sentiment_matrix(deals_imputed, self.schema)
        if self.config.framework == "f2":
            embedding = autoencoder_encode(self.autoencoder, sequences)
            return (np.hstack([tabular, embedding]),)
        return (tabular, sequences)

    def scores(self, deals) -> np.ndarray:
        return self._scores_from_imputed(impute(self.imputer, deals))

    def _scores_from_imputed(self, deals_imputed) -> np.ndarray:
        q, _ = self._model().forward_batch(self.params, self.features_from_imputed(deals_imputed))
        return q

    def evaluate_on(self, deals) -> EvalReport:
        imputed = impute(self.imputer, deals)
        return self._report(labels_vector(imputed), self._scores_from_imputed(imputed))

    def in_sample_report(self) -> EvalReport:
        """Report on the training rows, scored from their fit-time inputs."""
        q, _ = self._model().forward_batch(self.params, self.train_inputs)
        return self._report(labels_vector(self.train_imputed), q)

    def _report(self, labels, scores) -> EvalReport:
        return evaluate(labels, scores, threshold=self.config.train.threshold)

    def to_json(self) -> dict:
        ref_num = self.imputer.reference_numeric
        return {
            "format_version": 1,
            "config": self.config.to_json(),
            "schema": self.schema.to_json(),
            "imputer": {
                "k": self.imputer.k,
                "reference_numeric": [
                    [None if not np.isfinite(v) else v for v in row] for row in ref_num
                ],
                "reference_categorical": self.imputer.reference_categorical.tolist(),
                "numeric_scale": self.imputer.numeric_scale.tolist(),
                "column_mean": [
                    None if not np.isfinite(v) else v for v in self.imputer.column_mean
                ],
                "column_mode": self.imputer.column_mode.tolist(),
            },
            "pca": self.pca.to_json(),
            "mca": self.mca.to_json(),
            "kept_onehot_cols": self.kept_onehot_cols.tolist(),
            "autoencoder": None if self.autoencoder is None else self.autoencoder.to_json(),
            "params": self.params.to_json(),
            "feature_width": self.feature_width,
        }


def _validation_split(deals, fraction: float):
    """Most recent `fraction` of rows by announce date become the validation
    slice; ties broken by input position."""
    n = len(deals)
    n_valid = max(1, int(round(fraction * n)))
    if n_valid >= n:
        raise BadConfig("validation slice would consume all training rows")
    order = sorted(range(n), key=lambda i: (deals[i].announce_date, i))
    valid_idx = np.array(sorted(order[n - n_valid :]), dtype=np.int64)
    fit_idx = np.array(sorted(order[: n - n_valid]), dtype=np.int64)
    return fit_idx, valid_idx


def fit_pipeline(train_deals, schema: DatasetSchema, config: FrameworkConfig) -> FittedPipeline:
    return _fit(train_deals, schema, config, class_weighted=False)


def _fit(train_deals, schema, config, class_weighted: bool) -> FittedPipeline:
    """The one fit path.  class_weighted (set only by fit_logit) trains with
    inverse-frequency sample weights on the un-resampled fit rows, in place
    of SMOTE even when the config enables it."""
    if config.framework in ("f2", "f3"):
        if schema.sentiment_length == 0:
            raise MissingSentiment("schema carries no sentiment columns")
        # raises if any sequence is absent; imputation keeps sentiment as is,
        # so this matrix also serves the imputed rows below
        sequences = sentiment_matrix(train_deals, schema)

    imputer = fit_imputer(train_deals, schema, k=config.impute_k)
    train_imputed = impute(imputer, train_deals)

    numeric = numeric_matrix(train_imputed, schema)
    pca_dims = min(config.pca_dims, schema.n_numeric)
    pca = pca_fit(numeric, pca_dims)

    onehot = one_hot_encode(train_imputed, schema)
    kept = np.flatnonzero(onehot.sum(axis=0) > 0.0)
    max_rank = kept.shape[0] - schema.n_categorical
    mca_dims = min(config.mca_dims, max_rank)
    mca = mca_fit(onehot[:, kept], mca_dims)

    autoencoder = None
    if config.framework == "f2":
        ae_spec = AutoencoderSpec(
            sequence_length=schema.sentiment_length,
            embedding_dim=config.embedding_dim,
            hidden_width=config.autoencoder_hidden,
            seed=config.seed,
        )
        ae_train = dataclasses.replace(config.train, epochs=config.autoencoder_epochs)
        autoencoder = autoencoder_fit(ae_spec, sequences, ae_train)

    partial = FittedPipeline(
        config=config,
        schema=schema,
        imputer=imputer,
        pca=pca,
        mca=mca,
        kept_onehot_cols=kept,
        autoencoder=autoencoder,
        params=None,
        trace=[],
        valid_report=None,
        feature_width=0,
        train_imputed=train_imputed,
    )

    tabular = partial.tabular_features(train_imputed)
    y = labels_vector(train_imputed)
    fit_idx, valid_idx = _validation_split(train_imputed, config.validation_fraction)
    fit_y = y[fit_idx]

    if config.framework == "f3":
        partial.feature_width = tabular.shape[1]
        # tabular block and raw sequence ride one vector through SMOTE,
        # then split back into the two branches
        fit_x = np.hstack([tabular[fit_idx], sequences[fit_idx]])
        partial.train_inputs = (tabular, sequences)
        valid_inputs = (tabular[valid_idx], sequences[valid_idx])
    else:
        if config.framework == "f2":
            embedding = autoencoder_encode(autoencoder, sequences)
            features = np.hstack([tabular, embedding])
        else:
            features = tabular
        partial.feature_width = features.shape[1]
        fit_x = features[fit_idx]
        partial.train_inputs = (features,)
        valid_inputs = (features[valid_idx],)

    sample_weight = None
    if class_weighted:
        cw = partial.class_weights = class_weights(fit_y)
        sample_weight = np.where(fit_y > 0, cw["positive"], cw["negative"])
    elif config.use_smote:
        fit_x, fit_y = smote(fit_x, fit_y, config.smote)
    width = partial.feature_width
    fit_inputs = (fit_x[:, :width], fit_x[:, width:]) if config.framework == "f3" else (fit_x,)

    model = partial._model()
    params, trace = train(
        model, (fit_inputs, fit_y), (valid_inputs, y[valid_idx]), config.train,
        sample_weight=sample_weight,
    )
    partial.params = params
    partial.trace = trace
    valid_q, _ = model.forward_batch(params, valid_inputs)
    partial.valid_report = evaluate(y[valid_idx], valid_q, threshold=config.train.threshold)
    return partial


def run_framework1(train_deals, test_deals, schema: DatasetSchema, config: FrameworkConfig):
    if config.framework != "f1":
        raise BadConfig(f"expected an f1 config, got {config.framework!r}")
    return run_config(train_deals, test_deals, schema, config)


def run_framework2(train_deals, test_deals, schema: DatasetSchema, config: FrameworkConfig):
    if config.framework != "f2":
        raise BadConfig(f"expected an f2 config, got {config.framework!r}")
    return run_config(train_deals, test_deals, schema, config)


def run_framework3(train_deals, test_deals, schema: DatasetSchema, config: FrameworkConfig):
    if config.framework != "f3":
        raise BadConfig(f"expected an f3 config, got {config.framework!r}")
    return run_config(train_deals, test_deals, schema, config)


def run_config(train_deals, test_deals, schema: DatasetSchema, config: FrameworkConfig):
    """Fit on train_deals; return (fitted, in-sample report, test report)."""
    fitted = fit_pipeline(train_deals, schema, config)
    in_sample = fitted.in_sample_report()
    return fitted, in_sample, fitted.evaluate_on(test_deals)


# -- logit baselines -----------------------------------------------------------


def logit_config(seed: int = 0, use_smote: bool = False, **overrides) -> FrameworkConfig:
    """Single sigmoid unit on the reduced f1 features."""
    spec = NetworkSpec(layers=(), loss=LossKind.cross_entropy(), seed=seed)
    return FrameworkConfig(framework="f1", network=spec, seed=seed, use_smote=use_smote, **overrides)


def fit_logit(
    train_deals,
    test_deals,
    schema: DatasetSchema,
    use_class_weights: bool = False,
    config: FrameworkConfig | None = None,
):
    """Cross-entropy logistic baseline; returns (fitted, in-sample report,
    test report).

    With use_class_weights, inverse-frequency class weights (normalized to
    mean one) replace SMOTE: the logit trains once, with per-row sample
    weights, on the un-resampled fit rows, whatever the config's use_smote.
    """
    config = config or logit_config()
    if config.network.layers:
        raise BadConfig("logit baseline uses an empty layer stack")
    fitted = _fit(train_deals, schema, config, class_weighted=use_class_weights)
    in_sample = fitted.in_sample_report()
    return fitted, in_sample, fitted.evaluate_on(test_deals)


def class_weights(labels) -> dict:
    """Inverse-frequency weights normalized to mean one."""
    y = np.asarray(labels, dtype=np.float64)
    n = y.shape[0]
    n_pos = float(y.sum())
    n_neg = float(n - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise BadConfig("class weights need both classes present")
    return {"positive": n / (2.0 * n_pos), "negative": n / (2.0 * n_neg)}


# -- hyperparameter search -------------------------------------------------------


@dataclass
class TrialResult:
    trial: int
    config: FrameworkConfig
    valid_report: EvalReport
    test_report: EvalReport | None
    wall_time: float
    objective_value: float


def _set_path(doc: dict, path: str, value):
    keys = path.split(".")
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value


def _objective_value(report: EvalReport, objective: str) -> float:
    value = getattr(report, objective)
    return -np.inf if value is None else float(value)


def _trial_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0] % (2**31))


def _enumerate_grid(space: dict):
    keys = sorted(space)
    def rec(i):
        if i == len(keys):
            yield {}
            return
        for value in space[keys[i]]:
            for rest in rec(i + 1):
                yield {keys[i]: value, **rest}
    yield from rec(0)


def _sample_overrides(space: dict, budget: int, seed: int, strategy: str):
    if strategy not in ("grid", "random"):
        raise BadConfig(f"unknown search strategy {strategy!r}")
    keys = sorted(space)
    if not keys or any(len(space[k]) == 0 for k in keys):
        raise EmptySpace("every space entry needs at least one candidate")
    total = 1
    for k in keys:
        total *= len(space[k])
    if strategy == "grid" or budget >= total:
        return list(_enumerate_grid(space))[:budget]
    rng = np.random.default_rng(seed)
    seen = set()
    picks = []
    attempts = 0
    while len(picks) < budget and attempts < 200 * budget:
        attempts += 1
        choice = {k: space[k][int(rng.integers(0, len(space[k])))] for k in keys}
        key = json.dumps(choice, sort_keys=True)
        if key not in seen:
            seen.add(key)
            picks.append(choice)
    return picks


def hyper_search(
    train_deals,
    schema: DatasetSchema,
    space: dict,
    budget: int,
    objective: str,
    seed: int,
    base_config: FrameworkConfig,
    test_deals=None,
    strategy: str = "random",
):
    """Seeded random (or exhaustive grid) search over config overrides.

    space maps dotted config-JSON paths to candidate lists.  Trials are
    ranked by the objective on the internal validation slice only; the
    winner's test report is computed once at the end.  Deterministic given
    seed; MERGEPIPE_THREADS>1 runs trials in a thread pool without changing
    results.
    """
    if budget < 1:
        raise BadConfig("budget must be >= 1")
    if objective not in OBJECTIVES:
        raise BadConfig(f"objective must be one of {OBJECTIVES}")
    overrides = _sample_overrides(space, budget, seed, strategy)

    def run_trial(index_and_overrides):
        index, over = index_and_overrides
        doc = base_config.to_json()
        for path, value in over.items():
            _set_path(doc, path, value)
        doc["seed"] = _trial_seed(seed, index)
        doc["objective"] = objective
        config = FrameworkConfig.from_json(doc)
        started = time.perf_counter()
        fitted = fit_pipeline(train_deals, schema, config)
        elapsed = time.perf_counter() - started
        return TrialResult(
            trial=index,
            config=config,
            valid_report=fitted.valid_report,
            test_report=None,
            wall_time=elapsed,
            objective_value=_objective_value(fitted.valid_report, objective),
        ), fitted

    def rank(trial):
        return -trial.objective_value, trial.trial

    # outcomes are consumed as they arrive: every TrialResult is kept, but
    # only the best (trial, fitted pipeline) so far
    results = []
    best = None
    workers = int(os.environ.get("MERGEPIPE_THREADS", "1") or "1")
    with ThreadPoolExecutor(max_workers=max(workers, 1)) as pool:
        run = pool.map if workers > 1 else map
        for trial, fitted in run(run_trial, enumerate(overrides)):
            results.append(trial)
            if best is None or rank(trial) < rank(best[0]):
                best = trial, fitted
    results.sort(key=rank)
    if test_deals is not None:
        winner, fitted = best
        winner.test_report = fitted.evaluate_on(test_deals)
    return results
