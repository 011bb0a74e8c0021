"""End-to-end acceptance checks, one test per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion with the measured numbers.  Every test also enforces its own
wall-clock budget.  Training-based checks pin every seed (data 11, split 11,
model/optimizer 0), so the measured values are reproducible bit-for-bit on
any platform with the same numpy.
"""

import time
import warnings

import numpy as np
import pytest

import oracles
from circuits import init_dr_params, kernel_dtheta, series_dx
from quirk.bspline import fit as fit_bspline
from quirk.data import Dataset, generate, generate_univariate, target_scale
from quirk.dr import (DEFAULT_TEMPLATE, SU2_TEMPLATE, DRParams, GateTemplate,
                      dr_forward_batch)
from quirk.interpret import report as interpret_report
from quirk.network import (Model, _forward_pass, fit_input_norm, init_model,
                           load_model, network_backward, network_forward,
                           param_count, rescale, save_model, spec_from_shape)
from quirk.train import TrainConfig, prune, rmse, train

_cache = {}


def _line(n, name, t0, budget, ok, detail):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {n} ({name}): {status} in {elapsed:.1f}s "
          f"(budget {budget:.0f}s) -- {detail}")
    assert ok, detail
    assert elapsed < budget, f"took {elapsed:.1f}s, budget {budget:.0f}s"


def _unit_scale(ds: Dataset) -> Dataset:
    _, ytr = ds.part("train")
    return Dataset(ds.X, ds.y / target_scale(ytr), ds.columns, ds.splits,
                   ds.seed)


def _trained(key, equation, shape, dr_layers, steps=4000, lr=0.02):
    """Train once per session; both the table and pruning checks reuse I.6.2."""
    if key not in _cache:
        ds = _unit_scale(generate(equation, 3000, seed=11).split(seed=11))
        spec = spec_from_shape(shape, dr_layers=dr_layers, dense_head=False,
                               seed=0)
        cfg = TrainConfig(learning_rate=lr, max_steps=steps, seed=0,
                          early_stop_patience=steps)
        model, _ = train(ds, spec, cfg)
        _cache[key] = (model, ds, cfg)
    return _cache[key]


def _test_rmse(model, ds):
    X, y = ds.part("test")
    return rmse(network_forward(X, model), y)


def test_criterion_1_circuit_identities():
    t0 = time.perf_counter()
    grid = np.linspace(0.0, 2 * np.pi, 1000)
    ry_only = DRParams(np.zeros((1, 0)), template=GateTemplate((("ry", "input"),)))
    worst_ry = float(np.max(np.abs(
        dr_forward_batch(grid, ry_only, clamp=False) - np.cos(grid))))
    # a trailing RZ only changes phases, so <Z> must not move
    rng = np.random.default_rng(0)
    rz_last = GateTemplate((("ry", "input"), ("rx", 0), ("ry", 1), ("rz", 2)))
    worst_rz = 0.0
    for _ in range(100):
        thetas = rng.uniform(-np.pi, np.pi, (1, 3))
        x = rng.uniform(0, np.pi)
        zeroed = thetas.copy()
        zeroed[0, 2] = 0.0
        worst_rz = max(worst_rz, abs(dr_forward_batch(x, DRParams(thetas, template=rz_last))
                                     - dr_forward_batch(x, DRParams(zeroed, template=rz_last))))
    ok = worst_ry <= 1e-12 and worst_rz <= 1e-12
    _line(1, "circuit identities", t0, 1.0, ok,
          f"max |<Z>-cos(x)|={worst_ry:.2e}, max rz-phase drift={worst_rz:.2e}"
          " (tol 1e-12)")


def test_criterion_2_gradient_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_shift = worst_fd = 0.0
    for i in range(120):
        template = SU2_TEMPLATE if i % 3 == 2 else DEFAULT_TEMPLATE
        p = init_dr_params(int(rng.integers(1, 7)), rng, template=template)
        x = float(rng.uniform(0, np.pi))
        dth, dx = kernel_dtheta(x, p), series_dx(x, p)
        kw = {"template": list(template.gates)} if template is SU2_TEMPLATE else {}
        worst_shift = max(
            worst_shift,
            np.max(np.abs(dth - oracles.shift_rule_dtheta(x, p.thetas, **kw))),
            abs(dx - oracles.shift_rule_dx(x, p.thetas, **kw)))
        worst_fd = max(
            worst_fd,
            np.max(np.abs(dth - oracles.fd_dtheta(x, p.thetas, h=1e-4, **kw))))

    worst_net = 0.0
    for i in range(24):
        widths = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 3)))]
        shape = [int(rng.integers(1, 4))] + widths + [1]
        spec = spec_from_shape(shape, dr_layers=int(rng.integers(1, 3)),
                               dense_head=bool(i % 2),
                               bias_flag=int(rng.integers(0, 2)), seed=i)
        model = init_model(spec)
        model.input_norm = fit_input_norm(rng.uniform(-1, 2, (8, shape[0])))
        X = rng.uniform(-1, 2, (4, shape[0]))
        y = rng.uniform(-1, 1, 4)
        _, _, grads = network_backward(X, y, model)

        def loss_at(vec, model=model, X=X, y=y):
            m = model.copy()
            pos = 0
            for k in range(len(m.thetas)):
                n = m.thetas[k].size
                m.thetas[k] = vec[pos:pos + n].reshape(m.thetas[k].shape)
                pos += n
            if m.spec.dense_head:
                m.dense_w, m.dense_b = vec[pos], vec[pos + 1]
            loss, _, _ = network_backward(X, y, m)
            return loss

        flat = np.concatenate([t.ravel() for t in model.thetas])
        analytic = np.concatenate([g.ravel() for g in grads.thetas])
        if spec.dense_head:
            flat = np.concatenate([flat, [model.dense_w, model.dense_b]])
            analytic = np.concatenate([analytic, [grads.dense_w, grads.dense_b]])
        for j in range(flat.size):
            fd = oracles.central_diff(
                lambda v, j=j: loss_at(np.concatenate([flat[:j], [v], flat[j + 1:]])),
                flat[j], h=1e-4)
            worst_net = max(worst_net, abs(analytic[j] - fd))

    ok = worst_shift <= 1e-10 and worst_fd <= 1e-6 and worst_net <= 1e-6
    _line(2, "gradient exactness", t0, 30.0, ok,
          f"120 DR circuits: |adjoint-shift|={worst_shift:.2e} (tol 1e-10), "
          f"|adjoint-FD|={worst_fd:.2e}; 24 networks: |backprop-FD|="
          f"{worst_net:.2e} (tol 1e-6)")


def test_criterion_3_range_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    pairs = 0
    for i in range(250):
        widths = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 3)))]
        shape = [int(rng.integers(1, 4))] + widths + [1]
        bias = int(rng.integers(0, 2))
        spec = spec_from_shape(shape, dr_layers=int(rng.integers(1, 4)),
                               dense_head=bool(i % 2), bias_flag=bias, seed=i)
        model = init_model(spec)
        model.input_norm = fit_input_norm(rng.uniform(-3, 3, (8, shape[0])))
        for k, t in enumerate(model.thetas):
            model.thetas[k] = rng.uniform(-2 * np.pi, 2 * np.pi, t.shape)
            # random sparsity; dead units are legal and must stay in range
            model.edge_active[k] = rng.uniform(size=model.edge_active[k].shape) < 0.8
        X = rng.uniform(-10, 10, (40, shape[0]))
        _, caches = _forward_pass(model, X, want_grads=False)
        pairs += X.shape[0]
        for k, cache in enumerate(caches):
            assert np.all(np.abs(cache["f"]) <= 1.0 + 1e-12), "DR output left [-1,1]"
            live = model.edge_active[k].sum(axis=0)
            # the block's unit sums at their units; a unit outside it sums to 0
            v = np.zeros((X.shape[0], live.size))
            v[:, cache["blk"].outs] = cache["v"]
            assert np.all(np.abs(v) <= live[None, :] + 1e-12), \
                "unit sum left [-|I|,|I|]"
            if k < len(caches) - 1:
                div = np.maximum(live, 1).astype(np.float64)
                h = rescale(v, div, b=bias)
                assert np.all((h >= 0.0) & (h <= np.pi)), "activation left [0,pi]"
                if bias == 0:
                    # unit sums stay inside +-|I|, so no clamp or clip binds
                    assert h.tobytes() == (((v / div) + 1) / 2.0
                                           * np.pi).tobytes(), "rescale not affine"
    _line(3, "range invariants", t0, 30.0, True,
          f"{pairs} random model/input pairs, every layer in range")


def test_criterion_4_dr_vs_spline_efficiency():
    t0 = time.perf_counter()
    ds = _unit_scale(
        generate_univariate("exp_sin_poly", 3000, x_range=(0, 20),
                            seed=11).split(seed=11))
    Xtr, ytr = ds.part("train")
    Xte, yte = ds.part("test")
    spline = fit_bspline((Xtr[:, 0], ytr), n_coeffs=16, S=1.0)
    spline_rmse = rmse(spline.predict(Xte[:, 0]), yte)

    spec = spec_from_shape([1, 1], dr_layers=8, dense_head=False, seed=0)
    cfg = TrainConfig(learning_rate=0.02, max_steps=4000, seed=0,
                      early_stop_patience=4000)
    model, _ = train(ds, spec, cfg)
    dr_rmse = _test_rmse(model, ds)
    n = param_count(model)
    ok = n == 16 and dr_rmse <= 5e-2 and dr_rmse < spline_rmse
    _line(4, "16-param DR beats 16-coeff S=1 spline", t0, 120.0, ok,
          f"DR({n}p)={dr_rmse:.3e} (tol 5e-2) vs spline(16 coeffs, S=1)="
          f"{spline_rmse:.3e}, unit-scale targets on [0,20]")


def test_criterion_5_benchmark_table_subset():
    t0 = time.perf_counter()
    m62, ds62, _ = _trained("I.6.2", "I.6.2", [2, 2, 1], 3)
    r62 = _test_rmse(m62, ds62)
    m15, ds15, _ = _trained("I.15.3x", "I.15.3x", [4, 2, 1], [2, 1])
    r15 = _test_rmse(m15, ds15)
    n62, n15 = param_count(m62), param_count(m15)
    ok = n62 <= 36 and n15 <= 36 and r62 <= 5e-2 and r15 <= 5e-2
    _line(5, "benchmark subset at 36 params", t0, 600.0, ok,
          f"I.6.2 ({n62}p)={r62:.3e}, I.15.3x ({n15}p)={r15:.3e} "
          "(tol 5e-2, unit-scale targets, data/split seed 11, train seed 0)")


def test_criterion_6_pruning_keeps_accuracy():
    t0 = time.perf_counter()
    model, ds, cfg = _trained("I.6.2", "I.6.2", [2, 2, 1], 3)
    before = param_count(model)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        pruned = prune(model, ds, tau=0.55, config=cfg, fine_tune_steps=2000)
    after = param_count(pruned)
    r = _test_rmse(pruned, ds)
    ok = after <= 0.75 * before and r <= 1e-1
    _line(6, "pruning >= 25% at <= 1e-1 RMSE", t0, 180.0, ok,
          f"params {before}->{after} ({100 * (before - after) / before:.0f}% cut, "
          f"tau=0.55), test RMSE {r:.3e} (tol 1e-1)")


def test_criterion_7_interpretability():
    t0 = time.perf_counter()
    ds = generate("x2-y2", 3000, seed=11).split(seed=11)
    spec = spec_from_shape([2, 1], dr_layers=3, dense_head=False, seed=0)
    cfg = TrainConfig(learning_rate=0.02, max_steps=4000, seed=0,
                      early_stop_patience=4000)
    model, _ = train(ds, spec, cfg)
    rep = interpret_report(model, ds)
    fits = [e.fit for e in rep.edges if e.active]
    min_r2 = min(f.r_squared for f in fits)
    max_deg = max(f.degree for f in fits)
    ok = (min_r2 >= 0.99 and max_deg <= 4
          and rep.surrogate_rmse <= 2 * rep.model_rmse)
    _line(7, "polynomial readout of edges", t0, 180.0, ok,
          f"{len(fits)} edges: min R^2={min_r2:.4f} (tol 0.99), max degree="
          f"{max_deg} (tol 4); surrogate={rep.surrogate_rmse:.3e} <= "
          f"2 x model={rep.model_rmse:.3e}")


def test_criterion_8_multiqubit_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst_single = 0.0
    for _ in range(1000):
        p = init_dr_params(int(rng.integers(1, 4)), rng, num_qubits=2,
                           entangle=False)
        x = float(rng.uniform(0, np.pi))
        got = dr_forward_batch(x, p)
        want = dr_forward_batch(x, DRParams(p.thetas[:, 0, :]))
        worst_single = max(worst_single, abs(got - want))
    worst_oracle = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        p = init_dr_params(int(rng.integers(1, 3)), rng, num_qubits=n,
                           entangle=True)
        x = float(rng.uniform(0, np.pi))
        got = dr_forward_batch(x, p)
        want = oracles.naive_dr_forward(x, p.thetas, num_qubits=n, entangle=True)
        worst_oracle = max(worst_oracle, abs(got - want))
    ok = worst_single <= 1e-12 and worst_oracle <= 1e-12
    _line(8, "multi-qubit consistency", t0, 10.0, ok,
          f"1000 unentangled 2q vs 1q path: {worst_single:.2e}; 100 entangled "
          f"vs statevector oracle: {worst_oracle:.2e} (tol 1e-12)")


def test_criterion_9_serialization_and_determinism(tmp_path):
    t0 = time.perf_counter()
    ds = generate("x2-y2", 600, seed=11).split(seed=11)
    spec = spec_from_shape([2, 1], dr_layers=2, dense_head=True, seed=4)
    cfg = TrainConfig(learning_rate=0.05, max_steps=300, seed=4,
                      early_stop_patience=300)
    m1, h1 = train(ds, spec, cfg)
    m2, h2 = train(ds, spec, cfg)
    same_history = (h1.steps == h2.steps
                    and h1.train_rmse == h2.train_rmse
                    and h1.val_rmse == h2.val_rmse
                    and h1.best_step == h2.best_step)

    path = tmp_path / "model.txt"
    save_model(m1, path)
    back = load_model(path)
    bitwise = (all(np.array_equal(a, b) for a, b in zip(m1.thetas, back.thetas))
               and np.array_equal(m1.input_norm, back.input_norm)
               and m1.dense_w == back.dense_w and m1.dense_b == back.dense_b)
    Xte, _ = ds.part("test")
    same_out = np.array_equal(network_forward(Xte, m1),
                              network_forward(Xte, back))
    save_model(back, tmp_path / "again.txt")
    same_bytes = path.read_bytes() == (tmp_path / "again.txt").read_bytes()
    ok = same_history and bitwise and same_out and same_bytes
    _line(9, "serialization and determinism", t0, 60.0, ok,
          f"same-seed histories identical={same_history}, round-trip bitwise="
          f"{bitwise}, outputs bitwise={same_out}, re-saved bytes identical="
          f"{same_bytes}")
