import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quirk.data import Dataset, train_val_test_split
from quirk.network import (fit_input_norm, init_model, network_backward,
                           network_forward, param_count, save_model,
                           spec_from_shape)
from quirk.train import (AdamState, TrainConfig, TrainingDivergedError,
                         adam_step, edge_scores, prune, rmse, train)


def textbook_adam(params, grads_seq, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Reference Adam: independent loop-and-scalar implementation."""
    p = params.astype(np.float64).copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads_seq, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        p = p - lr * mhat / (np.sqrt(vhat) + eps)
    return p


def uni_dataset(fn, n=400, seed=0, lo=0.0, hi=1.0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(lo, hi, n)
    return Dataset(x[:, None], fn(x), columns=("x", "y"), seed=seed).split(seed=seed)


class TestAdam:
    def test_matches_textbook_sequence(self):
        rng = np.random.default_rng(3)
        p0 = rng.normal(size=11)
        grads = [rng.normal(size=11) for _ in range(25)]
        params = [p0.copy()]
        state = AdamState.for_params(params)
        cfg = TrainConfig(learning_rate=0.05)
        for t, g in enumerate(grads, start=1):
            adam_step(params, [g], state, cfg, t)
        npt.assert_allclose(params[0], textbook_adam(p0, grads, 0.05),
                            rtol=1e-12, atol=1e-15)

    def test_first_step_size_is_lr(self):
        # bias correction makes the very first update ~lr in magnitude
        params = [np.array([1.0])]
        state = AdamState.for_params(params)
        adam_step(params, [np.array([123.4])], state,
                  TrainConfig(learning_rate=0.01), 1)
        npt.assert_allclose(params[0], 1.0 - 0.01, rtol=1e-6)


@pytest.mark.parametrize("name", ["learning_rate", "epsilon"])
@pytest.mark.parametrize("value", [np.inf, np.nan, 0.0, -1e-3])
def test_config_rejects_rates_outside_finite_positives(name, value):
    # inf epsilon would freeze training and inf learning_rate diverge at step 1
    with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
        TrainConfig(**{name: value})


@pytest.mark.parametrize("name,value", [
    ("max_steps", 2.5), ("max_steps", True), ("batch_size", 2.5),
    ("batch_size", False), ("early_stop_patience", 2.5), ("seed", -1),
    ("seed", 1.0)])
def test_config_rejects_non_integer_counts_and_negative_seed(name, value):
    # unless rejected here, each fails deep inside training or trains on
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        TrainConfig(**{name: value})


def test_config_takes_numpy_integers():
    cfg = TrainConfig(max_steps=np.int64(3), batch_size=np.int32(4), seed=np.uint8(0),
                      early_stop_patience=np.int64(2))
    assert cfg.max_steps == 3 and cfg.batch_size == 4


class TestRmse:
    def test_basic(self):
        assert rmse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
        npt.assert_allclose(rmse(np.array([0.0, 2.0]), np.array([0.0, 0.0])),
                            np.sqrt(2.0))


class TestTraining:
    def test_cosine_target_converges_fast(self):
        # target defined through the train split's own normalization so it is
        # exactly one encoding rotation away
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, 500)
        splits = train_val_test_split(500, seed=5)
        a = x[splits["train"]].min()
        b = x[splits["train"]].max()
        y = np.cos(np.pi * (x - a) / (b - a))
        ds = Dataset(x[:, None], y, columns=("x", "y"), splits=splits, seed=5)
        spec = spec_from_shape([1, 1], dr_layers=1, seed=0)
        model, hist = train(ds, spec, TrainConfig(learning_rate=0.1,
                                                  max_steps=200, seed=5))
        assert hist.best_val_rmse < 1e-3

    def test_constant_target_near_exact(self):
        # the dense bias absorbs a constant exactly; without it a single
        # cosine-shaped edge could never be flat
        ds = uni_dataset(lambda x: np.full_like(x, 0.25), seed=1)
        spec = spec_from_shape([1, 1], dr_layers=1, seed=1, dense_head=True)
        model, hist = train(ds, spec,
                            TrainConfig(learning_rate=0.01, max_steps=7000,
                                        seed=1, early_stop_patience=7000))
        assert hist.best_val_rmse < 1e-6

    def test_histories_identical_for_identical_seeds(self):
        ds = uni_dataset(np.sin, seed=2)
        spec = spec_from_shape([1, 1], dr_layers=2, seed=3)
        cfg = TrainConfig(learning_rate=0.05, max_steps=60, seed=9)
        _, h1 = train(ds, spec, cfg)
        _, h2 = train(ds, spec, cfg)
        npt.assert_array_equal(h1.train_rmse, h2.train_rmse)
        npt.assert_array_equal(h1.val_rmse, h2.val_rmse)
        assert h1.best_step == h2.best_step

    def test_best_validation_model_returned(self):
        ds = uni_dataset(np.cos, seed=4)
        spec = spec_from_shape([1, 1], dr_layers=2, seed=0)
        model, hist = train(ds, spec, TrainConfig(learning_rate=0.1,
                                                  max_steps=150, seed=4))
        Xv, yv = ds.part("val")
        npt.assert_allclose(rmse(network_forward(Xv, model), yv),
                            hist.best_val_rmse, rtol=1e-12)
        assert hist.best_val_rmse <= np.min(hist.val_rmse) + 1e-15

    def test_history_records_every_step(self):
        ds = uni_dataset(np.sin, seed=6)
        spec = spec_from_shape([1, 1], dr_layers=1, seed=0)
        cfg = TrainConfig(learning_rate=0.05, max_steps=40, seed=0,
                          early_stop_patience=40)
        _, hist = train(ds, spec, cfg)
        assert len(hist.steps) == 40
        assert hist.steps == list(range(1, 41))
        assert all(b >= a for a, b in zip(hist.elapsed_ms, hist.elapsed_ms[1:]))

    def test_early_stop_on_patience(self):
        ds = uni_dataset(lambda x: np.full_like(x, 0.1), seed=7)
        spec = spec_from_shape([1, 1], dr_layers=1, seed=2)
        cfg = TrainConfig(learning_rate=0.2, max_steps=5000, seed=7,
                          early_stop_patience=50)
        _, hist = train(ds, spec, cfg)
        assert len(hist.steps) < 5000
        assert hist.steps[-1] <= hist.best_step + 50

    def test_divergence_names_the_step(self):
        # angles are periodic, so only the unbounded dense weight can push
        # the loss to non-finite territory
        ds = uni_dataset(np.sin, seed=8)
        spec = spec_from_shape([1, 1], dr_layers=1, seed=0, dense_head=True)
        with pytest.raises(TrainingDivergedError, match=r"step \d+"):
            with np.errstate(all="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                train(ds, spec, TrainConfig(learning_rate=1e160, max_steps=50,
                                            seed=8))

    def test_minibatch_path_deterministic(self):
        ds = uni_dataset(np.sin, n=300, seed=9)
        spec = spec_from_shape([1, 1], dr_layers=2, seed=1)
        cfg = TrainConfig(learning_rate=0.05, max_steps=80, seed=3,
                          batch_size=32)
        m1, h1 = train(ds, spec, cfg)
        m2, h2 = train(ds, spec, cfg)
        npt.assert_array_equal(h1.train_rmse, h2.train_rmse)
        for a, b in zip(m1.thetas, m2.thetas):
            npt.assert_array_equal(a, b)

    def test_history_csv_round_trip(self, tmp_path):
        from quirk.data import read_csv_rows
        ds = uni_dataset(np.sin, seed=10)
        spec = spec_from_shape([1, 1], dr_layers=1, seed=0)
        _, hist = train(ds, spec, TrainConfig(max_steps=15, seed=0,
                                              early_stop_patience=15))
        p = tmp_path / "history.csv"
        hist.save_csv(p)
        header, rows = read_csv_rows(p)
        assert header == ["step", "train_rmse", "val_rmse", "elapsed_ms"]
        assert len(rows) == 15
        npt.assert_allclose([float(r[1]) for r in rows], hist.train_rmse)

    def test_input_dim_mismatch_rejected(self):
        ds = uni_dataset(np.sin, seed=11)
        spec = spec_from_shape([2, 1], dr_layers=1, seed=0)
        with pytest.raises(ValueError, match="feature"):
            train(ds, spec, TrainConfig(max_steps=5))


class TestPruning:
    def trained(self, seed=0):
        # second feature is pure noise: its edges carry little signal
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 1, (600, 2))
        y = np.sin(np.pi * X[:, 0])
        ds = Dataset(X, y, columns=("x1", "x2", "y"), seed=seed).split(seed=seed)
        spec = spec_from_shape([2, 2, 1], dr_layers=2, seed=seed)
        model, _ = train(ds, spec, TrainConfig(learning_rate=0.05,
                                               max_steps=400, seed=seed))
        return model, ds

    def test_scores_nan_for_inactive(self):
        model, ds = self.trained()
        model.edge_active[0][0, 0] = False
        scores = edge_scores(model, ds.part("train")[0])
        assert np.isnan(scores[0][0, 0])
        assert np.isfinite(scores[0][1, 0])

    def test_tau_zero_changes_nothing(self):
        model, ds = self.trained()
        pruned = prune(model, ds, tau=0.0, fine_tune_steps=0)
        assert param_count(pruned) == param_count(model)
        for a, b in zip(pruned.edge_active, model.edge_active):
            npt.assert_array_equal(a, b)

    def test_constant_feature_edges_pruned(self):
        # a feature constant on the training data has zero-variance edges
        rng = np.random.default_rng(3)
        X = np.column_stack([rng.uniform(0, 1, 500), np.full(500, 2.0)])
        y = np.cos(np.pi * X[:, 0])
        ds = Dataset(X, y, columns=("x1", "x2", "y"), seed=3).split(seed=3)
        spec = spec_from_shape([2, 1], dr_layers=2, seed=1)
        model, _ = train(ds, spec, TrainConfig(learning_rate=0.05,
                                               max_steps=300, seed=3))
        pruned = prune(model, ds, tau=0.05, fine_tune_steps=0)
        assert not pruned.edge_active[0][1, 0]  # constant-feature edge gone
        assert pruned.edge_active[0][0, 0]
        assert param_count(pruned) == param_count(model) - 4

    def test_negative_tau_rejected(self):
        ds = uni_dataset(np.sin, seed=12)
        model = init_model(spec_from_shape([1, 1], dr_layers=1, seed=0))
        model.input_norm = fit_input_norm(ds.X)
        with pytest.raises(ValueError, match="tau"):
            prune(model, ds, tau=-1.0)

    @pytest.mark.parametrize("steps", [2.5, -3, True])
    def test_fine_tune_steps_must_be_a_count(self, steps):
        # unless rejected here, 2.5 fails with a TypeError naming no field,
        # -3 skips the fine-tune silently and True runs one step
        ds = uni_dataset(np.sin, seed=12)
        model = init_model(spec_from_shape([1, 1], dr_layers=1, seed=0))
        model.input_norm = fit_input_norm(ds.X)
        with pytest.raises(ValueError, match="fine_tune_steps must be an integer >= 0"):
            prune(model, ds, fine_tune_steps=steps)

    def test_dead_unit_cascades_forward(self):
        model, ds = self.trained(seed=5)
        # force every incoming edge of layer-0 unit 1 inactive, then prune
        # with tau=0: the cascade alone must kill its outgoing edge
        model.edge_active[0][:, 1] = False
        pruned = prune(model, ds, tau=0.0, fine_tune_steps=0)
        assert not pruned.edge_active[1][1, 0]

    def test_unit_without_outputs_cascades_backward(self):
        model, ds = self.trained(seed=5)
        # layer-0 unit 1 feeds nothing: its incoming edges cannot reach the
        # output, so tau=0 pruning drops them and the outputs stay the same
        model.edge_active[1][1, 0] = False
        pruned = prune(model, ds, tau=0.0, fine_tune_steps=0)
        assert not pruned.edge_active[0][:, 1].any()
        assert pruned.edge_active[0][:, 0].all()
        assert param_count(pruned) == param_count(model) - 8
        npt.assert_array_equal(network_forward(ds.X, pruned),
                               network_forward(ds.X, model))

    def test_disconnection_refused_with_warning(self):
        model, ds = self.trained(seed=6)
        model.edge_active[1][:, 0] = False  # output already cut
        with pytest.warns(RuntimeWarning, match="disconnect"):
            pruned = prune(model, ds, tau=0.0, fine_tune_steps=0)
        for a, b in zip(pruned.edge_active, model.edge_active):
            npt.assert_array_equal(a, b)

    def test_fine_tune_runs_and_keeps_budget(self):
        model, ds = self.trained(seed=7)
        pruned = prune(model, ds, tau=0.3, fine_tune_steps=40)
        assert param_count(pruned) <= param_count(model)

    def test_prune_does_not_mutate_input(self):
        model, ds = self.trained(seed=8)
        before = [a.copy() for a in model.edge_active]
        thetas = [t.copy() for t in model.thetas]
        prune(model, ds, tau=0.5, fine_tune_steps=10)
        for a, b in zip(model.edge_active, before):
            npt.assert_array_equal(a, b)
        for a, b in zip(model.thetas, thetas):
            npt.assert_array_equal(a, b)


def _loop_on_raw_rows(model, X_tr, y_tr, X_val, y_val, config, max_steps, patience):
    """train's optimizer as a plain loop through the public entries on raw
    rows: returns the best model, the (step, train, val) RMSEs, the best
    step and its validation RMSE."""
    head = [np.array([model.dense_w, model.dense_b])] if model.spec.dense_head else []
    params = model.thetas + head
    state, rng = AdamState.for_params(params), np.random.default_rng(config.seed)
    bs, n = config.batch_size, len(X_tr)
    order, cursor, best, best_val, best_step, curves = None, 0, model.copy(), np.inf, -1, []
    for step in range(1, max_steps + 1):
        take = slice(None)
        if bs is not None and bs < n:
            if order is None or cursor + bs > n:
                order, cursor = rng.permutation(n), 0
            take, cursor = order[cursor:cursor + bs], cursor + bs
        _, yhat, grads = network_backward(X_tr[take], y_tr[take], model)
        vr = rmse(network_forward(X_val, model), y_val)
        curves.append((step, rmse(yhat, y_tr[take]), vr))
        if vr < best_val:
            best, best_val, best_step = model.copy(), vr, step
        if patience is not None and step - best_step >= patience:
            break
        dense = [np.array([grads.dense_w, grads.dense_b])] if head else []
        adam_step(params, grads.thetas + dense, state, config, step)
        if head:
            model.dense_w, model.dense_b = map(float, head[0])
    return best, curves, best_step, best_val


@pytest.mark.parametrize("shape,dr_layers,qubits,dense,batch,tau", [
    ((2, 2, 1), 3, 1, False, None, 0.3),  # the prune drops input 1
    ((4, 2, 1), 1, 2, True, 63, 0.2),
    ((4, 2, 1), 1, 2, True, 65, 0.2),
    ((3, 2, 1), 1, 2, True, 63, 0.3),  # the prune drops input 1
])
def test_fit_equals_a_loop_on_raw_rows(tmp_path, shape, dr_layers, qubits, dense,
                                       batch, tau):
    """train() and prune() prepare the rows they reuse once; each gives the
    bits of stepping on raw rows."""
    def model_bytes(m):
        save_model(m, tmp_path / "m.txt")
        return (tmp_path / "m.txt").read_bytes()

    rng = np.random.default_rng(5)
    X = rng.uniform(0, 1, (300, shape[0]))
    ds = Dataset(X, np.sin(np.pi * X[:, 0]) + 0.3 * X[:, 1], seed=5).split(seed=5)
    spec = spec_from_shape(list(shape), dr_layers=dr_layers, dense_head=dense, seed=5,
                           qubits_per_edge=qubits, entangle=qubits > 1)
    cfg = TrainConfig(learning_rate=0.05, max_steps=40, seed=5,
                      early_stop_patience=40, batch_size=batch)
    model, hist = train(ds, spec, cfg)
    split = ds.part("train") + ds.part("val")
    ref = init_model(spec)
    ref.input_norm = fit_input_norm(split[0])
    ref, curves, best_step, best_val = _loop_on_raw_rows(ref, *split, cfg, 40, 40)
    assert list(zip(hist.steps, hist.train_rmse, hist.val_rmse)) == curves
    assert (hist.best_step, hist.best_val_rmse) == (best_step, best_val)
    assert model_bytes(model) == model_bytes(ref)
    # prune's fine-tune steps on the masks prune gives without them
    unfitted = prune(model, ds, tau, cfg, fine_tune_steps=0)
    assert param_count(unfitted) < param_count(model)
    ref = _loop_on_raw_rows(unfitted, *split, cfg, 10, None)[0]
    assert model_bytes(prune(model, ds, tau, cfg, fine_tune_steps=10)) == model_bytes(ref)


@st.composite
def _masked_networks(draw):
    widths = [draw(st.integers(1, 3)) for _ in range(draw(st.integers(2, 4)))] + [1]
    spec = spec_from_shape(widths, dr_layers=1, dense_head=draw(st.booleans()),
                           bias_flag=draw(st.integers(0, 1)),
                           seed=draw(st.integers(0, 2**16)))
    m = init_model(spec)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    # sparse enough that many draws leave units with no inputs or no outputs
    m.edge_active = [rng.uniform(size=a.shape) < draw(st.sampled_from([0.3, 0.6, 0.9]))
                     for a in m.edge_active]
    if draw(st.booleans()):  # keep the path through unit 0 of every layer
        for a in m.edge_active:
            a[0, 0] = True
    X = rng.uniform(0, 1, (20, spec.input_dim))
    m.input_norm = fit_input_norm(X)
    columns = tuple(f"x{f}" for f in range(spec.input_dim)) + ("y",)
    return m, Dataset(X, rng.normal(size=20), columns=columns, seed=0).split(seed=0)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=_masked_networks())
def test_prune_cascade_invariants(case):
    model, ds = case
    # the output is connected when a path of live edges reaches it
    reach = np.ones(model.spec.input_dim, dtype=bool)
    for active in model.edge_active:
        reach = (reach[:, None] & active).any(axis=0)
    lacks_inputs = any(not a.any(axis=0).all() for a in model.edge_active[:-1])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pruned = prune(model, ds, tau=0.0, fine_tune_steps=0)
    refused = [w for w in caught if "disconnect" in str(w.message)]
    assert len(refused) == (not reach[0])
    if refused:
        assert refused[0].category is RuntimeWarning
        for a, b in zip(pruned.edge_active, model.edge_active):
            npt.assert_array_equal(a, b)
        return
    masks = pruned.edge_active
    for a, b in zip(masks, model.edge_active):
        assert not (a & ~b).any()  # pruning only removes edges
    for k in range(1, len(masks)):
        no_inputs = ~masks[k - 1].any(axis=0)
        assert not masks[k][no_inputs].any()
        no_outputs = ~masks[k].any(axis=1)
        assert not masks[k - 1][:, no_outputs].any()
    assert param_count(pruned) <= param_count(model)
    if not lacks_inputs:
        npt.assert_array_equal(network_forward(ds.X, pruned),
                               network_forward(ds.X, model))


@pytest.mark.parametrize("run", ["train", "prune"])
@pytest.mark.parametrize("empty", ["train", "val"])
def test_empty_split_rejected_by_name(run, empty):
    # before any step: an empty train split used to fail in the normalizer
    # fit, an empty val split only after a full backward step
    X = np.random.default_rng(13).uniform(0, 1, (12, 1))
    splits = {"train": np.arange(8), "val": np.arange(8, 10), "test": np.arange(10, 12)}
    splits["test"] = np.concatenate([splits["test"], splits[empty]])
    splits[empty] = np.array([], dtype=int)
    ds = Dataset(X, np.sin(X[:, 0]), columns=("x", "y"), splits=splits)
    spec = spec_from_shape([1, 1], dr_layers=1, seed=0)
    model = init_model(spec)
    model.input_norm = fit_input_norm(X)
    with pytest.raises(ValueError, match=f"the {empty} split is empty"):
        if run == "train":
            train(ds, spec, TrainConfig(max_steps=2))
        else:
            prune(model, ds, tau=0.5, fine_tune_steps=2)
