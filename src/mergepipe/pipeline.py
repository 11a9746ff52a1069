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
import itertools
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .codec import SKIP, Json
from .dataset import DatasetSchema, DealFrame, sentiment_matrix
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
class FrameworkConfig(Json):
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
        if self.use_smote and self.network.loss.kind == "weighted_cross_entropy":
            raise BadConfig("weighted_cross_entropy replaces SMOTE; set use_smote to false")


@dataclass
class FittedPipeline(Json):
    """Everything fitted on training rows; prediction never refits."""

    JSON_HEADER = {"format_version": 1}
    config: FrameworkConfig
    schema: DatasetSchema
    imputer: ImputerModel
    pca: PcaModel
    mca: McaModel
    kept_onehot_cols: np.ndarray
    autoencoder: FittedAutoencoder | None
    params: NetworkParams
    feature_width: int
    trace: list = field(default_factory=list, metadata=SKIP)
    valid_report: EvalReport | None = field(default=None, metadata=SKIP)
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

    def tabular_features(self, imputed: DealFrame) -> np.ndarray:
        pca_scores = pca_transform(self.pca, imputed.numeric)
        onehot = one_hot_encode(imputed, self.schema)
        mca_scores = mca_transform(self.mca, onehot[:, self.kept_onehot_cols])
        return np.concatenate((pca_scores, mca_scores), axis=1)

    def features(self, deals):
        """Imputed + reduced model inputs for raw deals (a frame or records)."""
        imputed = impute(self.imputer, deals)
        sequences = None if self.config.framework == "f1" else sentiment_matrix(imputed, self.schema)
        return self._inputs(imputed, sequences)

    def _inputs(self, imputed: DealFrame, sequences) -> tuple:
        """Model inputs for imputed rows; ``sequences`` is None for f1."""
        tabular = self.tabular_features(imputed)
        if self.config.framework == "f1":
            return (tabular,)
        if self.config.framework == "f2":
            embedding = autoencoder_encode(self.autoencoder, sequences)
            return (np.concatenate((tabular, embedding), axis=1),)
        return (tabular, sequences)

    def scores(self, deals) -> np.ndarray:
        deals = DealFrame.of(deals, self.schema)
        q, _ = self._model().forward_batch(self.params, self.features(deals))
        return q

    def evaluate_on(self, deals) -> EvalReport:
        deals = DealFrame.of(deals, self.schema)
        return self._report_on_inputs(deals.labels.astype(np.float64), self.features(deals))

    def _report_on_inputs(self, labels, inputs) -> EvalReport:
        """Report on rows whose model inputs are already built."""
        q, _ = self._model().forward_batch(self.params, inputs)
        return evaluate(labels, q, threshold=self.config.train.threshold)

    @classmethod
    def from_json(cls, doc) -> "FittedPipeline":
        """Read what ``to_json`` wrote; the imputer shares the pipeline's one schema."""
        schema = DatasetSchema.from_json(doc.get("schema") if isinstance(doc, dict) else doc)
        imputer = ImputerModel.from_json(doc.get("imputer"), schema=schema)
        return super().from_json(doc, schema=schema, imputer=imputer)


def _validation_split(dates: np.ndarray, fraction: float):
    """Most recent `fraction` of rows by announce date become the validation
    slice; ties broken by input position."""
    n = len(dates)
    n_valid = max(1, int(round(fraction * n)))
    if n_valid >= n:
        raise BadConfig("validation slice would consume all training rows")
    order = np.argsort(dates, kind="stable")
    return np.sort(order[: n - n_valid]), np.sort(order[n - n_valid :])


def fit_pipeline(train_deals, schema: DatasetSchema, config: FrameworkConfig) -> FittedPipeline:
    fitted, _, _ = _fit(train_deals, schema, config)
    return fitted


def _fit(train_deals, schema, config):
    """The one fit path; returns the fitted pipeline plus the training
    labels and model inputs, which only an in-sample report reads, so the
    pipeline itself keeps no training rows.

    A weighted_cross_entropy loss weights the fit rows by inverse class frequency."""
    train_deals = DealFrame.of(train_deals, schema)
    sequences = None
    if config.framework in ("f2", "f3"):
        if schema.sentiment_length == 0:
            raise MissingSentiment("schema carries no sentiment columns")
        # raises if any sequence is absent; imputation keeps sentiment as is,
        # so this matrix also serves the imputed rows below
        sequences = sentiment_matrix(train_deals, schema)

    imputer = fit_imputer(train_deals, schema, k=config.impute_k)
    train_imputed = impute(imputer, train_deals)

    pca_dims = min(config.pca_dims, schema.n_numeric)
    pca = pca_fit(train_imputed.numeric, pca_dims)

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
        feature_width=0,
    )

    train_inputs = partial._inputs(train_imputed, sequences)
    width = partial.feature_width = train_inputs[0].shape[1]
    y = train_imputed.labels.astype(np.float64)
    fit_idx, valid_idx = _validation_split(train_imputed.dates, config.validation_fraction)
    fit_y = y[fit_idx]
    valid_inputs = tuple(a[valid_idx] for a in train_inputs)
    # f3's tabular block and raw sequence ride one vector through SMOTE,
    # then split back into the two branches
    fit_x = (train_inputs[0][fit_idx] if len(train_inputs) == 1
             else np.hstack([a[fit_idx] for a in train_inputs]))

    sample_weight = None
    if config.network.loss.kind == "weighted_cross_entropy":
        cw = class_weights(fit_y)
        sample_weight = np.where(fit_y > 0, cw["positive"], cw["negative"])
    elif config.use_smote:
        fit_x, fit_y = smote(fit_x, fit_y, config.smote)
    fit_inputs = (fit_x,) if len(train_inputs) == 1 else (fit_x[:, :width], fit_x[:, width:])

    model = partial._model()
    params, trace = train(
        model, (fit_inputs, fit_y), (valid_inputs, y[valid_idx]), config.train,
        sample_weight=sample_weight,
    )
    partial.params = params
    partial.trace = trace
    valid_q, _ = model.forward_batch(params, valid_inputs)
    partial.valid_report = evaluate(y[valid_idx], valid_q, threshold=config.train.threshold)
    return partial, y, train_inputs


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
    fitted, y, inputs = _fit(train_deals, schema, config)
    return fitted, fitted._report_on_inputs(y, inputs), fitted.evaluate_on(test_deals)


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

    With use_class_weights, the loss becomes weighted_cross_entropy and
    SMOTE is switched off, whatever the config's use_smote.
    """
    config = config or logit_config()
    if config.network.layers:
        raise BadConfig("logit baseline uses an empty layer stack")
    if use_class_weights:
        network = dataclasses.replace(config.network, loss=LossKind.weighted_cross_entropy())
        config = dataclasses.replace(config, network=network, use_smote=False)
    return run_config(train_deals, test_deals, schema, config)


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
    """Set the value at a dotted path through existing config-JSON entries;
    a list takes an integer index."""
    node, keys = doc, path.split(".")
    for depth, key in enumerate(keys, start=1):
        if isinstance(node, list) and key.isdecimal() and int(key) < len(node):
            key = int(key)
        elif not (isinstance(node, dict) and key in node):
            raise BadConfig(f"space path {path!r} has no entry {key!r}")
        if depth < len(keys):
            node = node[key]
    node[key] = value


def _objective_value(report: EvalReport, objective: str) -> float:
    value = getattr(report, objective)
    return -np.inf if value is None else float(value)


def _trial_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0] % (2**31))


def _enumerate_grid(space: dict):
    keys = sorted(space)
    for values in itertools.product(*(space[k] for k in keys)):
        yield dict(zip(keys, values))


def _sample_overrides(space: dict, budget: int, seed: int, strategy: str):
    if strategy not in ("grid", "random"):
        raise BadConfig(f"unknown search strategy {strategy!r}")
    if not isinstance(space, dict) or not all(isinstance(v, (list, tuple)) for v in space.values()):
        raise BadConfig("the search space must map config paths to lists of candidates")
    keys = sorted(space)
    if not keys or any(len(space[k]) == 0 for k in keys):
        raise EmptySpace("every space entry needs at least one candidate")
    total = math.prod(len(space[k]) for k in keys)
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
    train_deals = DealFrame.of(train_deals, schema)

    configs = []  # every candidate is decoded, so a bad one raises, before any trial trains
    for index, over in enumerate(overrides):
        doc = base_config.to_json()
        for path, value in over.items():
            _set_path(doc, path, value)
        doc["seed"] = _trial_seed(seed, index)
        doc["objective"] = objective
        configs.append(FrameworkConfig.from_json(doc))

    def run_trial(index_and_config):
        index, config = index_and_config
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
        for trial, fitted in run(run_trial, enumerate(configs)):
            results.append(trial)
            if best is None or rank(trial) < rank(best[0]):
                best = trial, fitted
    results.sort(key=rank)
    if test_deals is not None:
        winner, fitted = best
        winner.test_report = fitted.evaluate_on(test_deals)
    return results
