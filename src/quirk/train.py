"""Training loop (Adam on a half-MSE objective, RMSE reporting) and pruning.

A run splits the dataset 70/15/15 with the config seed, fits the input
normalizer on the training split only, then takes Adam steps on the whole
training batch (or seeded minibatches).  Validation RMSE is tracked every
step; the best-validation model is what a run returns.  NaN anywhere in
the loss or parameters aborts with the offending step in the message.

A fit prepares its validation rows for layer 0 once (normalized inputs
and their Fourier basis, see ``network.prepare_rows``), and its training
rows when each step takes them all; a minibatch step passes raw rows.

Pruning scores every active edge by the standard deviation of its DR
output over the training inputs, drops edges scoring below tau times the
network-wide maximum, cascades unit removal downstream and upstream, and
fine-tunes the survivors.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, check_count, write_csv_rows
from .network import (
    Model,
    NetworkSpec,
    edge_scores,
    fit_input_norm,
    init_model,
    network_backward,
    network_forward,
    param_count,
    prepare_rows,
)


# prune() drops edges scoring below this share of the best edge's score
DEFAULT_PRUNE_TAU = 0.05


class TrainingDivergedError(RuntimeError):
    """Loss or parameters went non-finite during optimization."""


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int | None = None  # None = full training batch
    max_steps: int = 2000
    seed: int = 0
    early_stop_patience: int = 500

    def __post_init__(self):
        for name in ("learning_rate", "epsilon"):
            v = getattr(self, name)
            if not 0 < v < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        for name in ("beta1", "beta2"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise ValueError(f"{name} must be in (0, 1), got {v}")
        # batch_size may also be None for the full batch
        for name, least in (("batch_size", 1), ("max_steps", 1),
                            ("early_stop_patience", 1), ("seed", 0)):
            if not (name == "batch_size" and self.batch_size is None):
                check_count(name, getattr(self, name), least)


@dataclass
class TrainHistory:
    """Per-step RMSE curves plus wall-clock, and where the best model sat."""

    steps: list = field(default_factory=list)
    train_rmse: list = field(default_factory=list)
    val_rmse: list = field(default_factory=list)
    elapsed_ms: list = field(default_factory=list)
    best_step: int = -1
    best_val_rmse: float = float("inf")

    def record(self, step, tr, vr, ms):
        self.steps.append(int(step))
        self.train_rmse.append(float(tr))
        self.val_rmse.append(float(vr))
        self.elapsed_ms.append(float(ms))

    def save_csv(self, path) -> None:
        rows = zip(self.steps, self.train_rmse, self.val_rmse, self.elapsed_ms)
        write_csv_rows(path, ["step", "train_rmse", "val_rmse", "elapsed_ms"],
                       [list(r) for r in rows])


def rmse(predictions, targets) -> float:
    """sqrt(mean((p - t)^2)); rejects empty input."""
    p = np.asarray(predictions, dtype=np.float64).reshape(-1)
    t = np.asarray(targets, dtype=np.float64).reshape(-1)
    if p.size == 0 or t.size == 0:
        raise ValueError("rmse of empty arrays is undefined")
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {t.shape}")
    return float(np.sqrt(np.mean((p - t) ** 2)))


@dataclass
class AdamState:
    """First/second moment accumulators, one pair per parameter array."""

    m: list
    v: list

    @classmethod
    def for_params(cls, params) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params])


def adam_step(params, grads, state: AdamState, config: TrainConfig,
              step_index: int):
    """One in-place Adam update; ``step_index`` starts at 1 (bias correction)."""
    if step_index < 1:
        raise ValueError("step_index starts at 1")
    b1, b2 = config.beta1, config.beta2
    bc1 = 1.0 - b1**step_index
    bc2 = 1.0 - b2**step_index
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        p -= config.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + config.epsilon)
    return params, state


def _check_finite(step: int, loss: float, params) -> None:
    if not np.isfinite(loss):
        raise TrainingDivergedError(f"loss became non-finite at step {step}")
    for p in params:
        if not np.all(np.isfinite(p)):
            raise TrainingDivergedError(f"parameters became non-finite at step {step}")


def _fit(model: Model, X_tr, y_tr, X_val, y_val, config: TrainConfig,
         max_steps: int, patience: int | None):
    """Shared optimizer core: mutates ``model`` and returns (the
    best-validation model, its TrainHistory)."""
    # the dense pair rides along as one 2-vector, copied back after each step
    head = [np.array([model.dense_w, model.dense_b])] if model.spec.dense_head else []
    params = model.thetas + head
    state = AdamState.for_params(params)
    rng = np.random.default_rng(config.seed)
    n_tr, bs = X_tr.shape[0], config.batch_size
    full = bs is None or bs >= n_tr
    rows_tr = prepare_rows(model, X_tr) if full else None
    rows_val = prepare_rows(model, X_val)
    order = None
    cursor = 0
    best = [p.copy() for p in params]  # the best step's angles and dense pair
    best_val = np.inf
    best_step = -1
    history = TrainHistory()
    t0 = time.perf_counter()
    # each step records RMSE of the parameters entering the step, then
    # updates; train RMSE comes from the backward pass's own predictions, so
    # a minibatch step reports its batch, not the whole training split
    for step in range(1, max_steps + 1):
        if full:
            xb, yb = rows_tr, y_tr
        else:
            if order is None or cursor + bs > n_tr:
                order = rng.permutation(n_tr)
                cursor = 0
            take = order[cursor:cursor + bs]
            cursor += bs
            xb, yb = X_tr[take], y_tr[take]
        loss, yhat, grads = network_backward(xb, yb, model)
        tr = rmse(yhat, yb)
        vr = rmse(network_forward(rows_val, model), y_val)
        history.record(step, tr, vr, (time.perf_counter() - t0) * 1e3)
        if vr < best_val:
            best_val = vr
            best_step = step
            best = [p.copy() for p in params]
        if patience is not None and step - best_step >= patience:
            break
        dense = [np.array([grads.dense_w, grads.dense_b])] if head else []
        adam_step(params, grads.thetas + dense, state, config, step)
        if head:
            model.dense_w, model.dense_b = map(float, head[0])
        _check_finite(step, loss, params)
    history.best_step = best_step
    history.best_val_rmse = float(best_val)
    dense_w, dense_b = map(float, best[-1]) if head else (model.dense_w, model.dense_b)
    return Model(model.spec, best[:len(model.thetas)],
                 [a.copy() for a in model.edge_active], dense_w, dense_b,
                 model.input_norm.copy()), history


def _split(dataset: Dataset, config: TrainConfig):
    """(X_tr, y_tr, X_val, y_val): the dataset's own splits when present,
    otherwise a 70/15/15 split seeded with config.seed.  Both must hold a
    row."""
    if dataset.splits is None:
        dataset = dataset.split(config.seed)
    for name in ("train", "val"):
        if len(dataset.splits[name]) == 0:
            raise ValueError(f"the {name} split is empty")
    return dataset.part("train") + dataset.part("val")


def train(dataset: Dataset, spec: NetworkSpec, config: TrainConfig | None = None):
    """Train a fresh model from ``spec`` on ``dataset``.

    The dataset's splits are used when present; otherwise it is split
    70/15/15 with config.seed.  Returns (best_model, TrainHistory).
    """
    config = config or TrainConfig()
    X = dataset.X
    if X.shape[0] < 3:
        raise ValueError("dataset too small to split")
    if X.shape[1] != spec.input_dim:
        raise ValueError(
            f"spec.input_dim={spec.input_dim} but dataset has {X.shape[1]} features")
    X_tr, y_tr, X_val, y_val = _split(dataset, config)

    model = init_model(spec)
    model.input_norm = fit_input_norm(X_tr)
    return _fit(model, X_tr, y_tr, X_val, y_val, config,
                config.max_steps, config.early_stop_patience)


def prune(model: Model, dataset: Dataset, tau: float = DEFAULT_PRUNE_TAU,
          config: TrainConfig | None = None, fine_tune_steps: int = 500) -> Model:
    """Drop low-variance edges, cascade dead units, fine-tune the rest.

    Edges scoring below ``tau`` x (network-wide max score) go inactive; a
    unit with no surviving incoming edges takes its outgoing edges with it.
    If that would disconnect the output, the original model is returned
    unchanged (with a warning).  Then a unit with no surviving outgoing
    edges takes its incoming edges with it, since they cannot reach the
    output.  Fine-tuning runs ``fine_tune_steps`` Adam steps on the
    training split; 0 skips them.
    """
    if not tau >= 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    check_count("fine_tune_steps", fine_tune_steps, 0)
    config = config or TrainConfig()
    X_tr, y_tr, X_val, y_val = _split(dataset, config)

    scores = edge_scores(model, X_tr)
    max_score = np.nanmax([np.nanmax(s) if np.any(np.isfinite(s)) else 0.0
                           for s in scores])
    cut = tau * max_score

    pruned = model.copy()
    for k in range(len(pruned.edge_active)):
        keep = pruned.edge_active[k] & ~(scores[k] < cut)
        pruned.edge_active[k] = keep
    # cascade: a unit with no live inputs feeds nothing downstream
    for k in range(len(pruned.edge_active) - 1):
        dead_units = pruned.edge_active[k].sum(axis=0) == 0
        if np.any(dead_units):
            pruned.edge_active[k + 1][dead_units, :] = False
    if pruned.edge_active[-1].sum() == 0:
        warnings.warn("pruning would disconnect the output; returning the "
                      "model unchanged", RuntimeWarning, stacklevel=2)
        return model.copy()
    # cascade back: edges into a unit that feeds nothing cannot reach the output
    for k in range(len(pruned.edge_active) - 1, 0, -1):
        idle_units = pruned.edge_active[k].sum(axis=1) == 0
        pruned.edge_active[k - 1][:, idle_units] = False

    if param_count(pruned) == param_count(model):
        return pruned  # nothing fell below threshold

    if fine_tune_steps > 0:
        pruned = _fit(pruned, X_tr, y_tr, X_val, y_val, config,
                      fine_tune_steps, None)[0]
    return pruned
