"""Output checks computed apart from the program under test.

Model outputs are recomputed edge by edge from explicit rotation matrices
(``tests/oracles.py``: 2x2 matrices, Kronecker products and permutation
CNOTs), through the normaliser and rescale exactly as the package README
and docstrings document them.  The polynomial surrogate is re-evaluated
from the report's coefficients with this module's own Horner loop, and
gradients are checked by central finite differences of the loss.
"""

from __future__ import annotations

import numpy as np

ORACLE_TOL = 1e-10      # model output vs edge-by-edge matrix recomputation
SURROGATE_TOL = 1e-10   # own surrogate vs surrogate_forward
FD_STEP = 1e-5
FD_ABS_TOL = 1e-8
FD_REL_TOL = 1e-6


def rmse(pred, target) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    return float(np.sqrt(np.mean((pred - target) ** 2)))


def normalise(input_norm, x_raw):
    """Documented feature map: (min, max) -> [0, pi], clamped."""
    lo, hi = input_norm[:, 0], input_norm[:, 1]
    return np.clip((x_raw - lo) / (hi - lo) * np.pi, 0.0, np.pi)


def rescale(v, divisors, bias_flag):
    """Documented inter-layer map ((v/|I|) + (1-b))/2 * pi, with v clamped
    to +-|I| and the result to [0, pi]."""
    v = np.clip(v, -divisors, divisors)
    return np.clip(((v / divisors) + (1 - bias_flag)) / 2.0 * np.pi, 0.0, np.pi)


def divisors(active):
    """Per-unit count of live incoming edges, at least 1."""
    return np.maximum(active.sum(axis=0), 1).astype(np.float64)


def oracle_forward(model, x_raw, oracles) -> float:
    """One row through the network with every edge simulated gate by gate."""
    spec = model.spec
    gates = list(spec.template.gates)
    h = normalise(model.input_norm, np.asarray(x_raw, dtype=np.float64))
    v = None
    for k, layer in enumerate(spec.layers):
        active = model.edge_active[k]
        v = np.zeros(layer.units)
        for i in range(layer.fan_in):
            for u in range(layer.units):
                if active[i, u]:
                    v[u] += oracles.naive_dr_forward(
                        h[i], model.thetas[k][:, i, u], template=gates,
                        num_qubits=layer.qubits_per_edge,
                        entangle=layer.entangle)
        if k < len(spec.layers) - 1:
            h = rescale(v, divisors(active), spec.bias_flag)
    out = v[0]
    if spec.dense_head:
        out = model.dense_w * out + model.dense_b
    return float(out)


def output_bound(model) -> float:
    """Largest |output| the method allows without a dense head: the number
    of live edges into the last unit, each in [-1, 1]."""
    return float(model.edge_active[-1].sum())


def surrogate_eval(rep, X_raw) -> np.ndarray:
    """The report's closed form, evaluated from its coefficients alone:
    monomials in t = 2x/pi - 1 per edge, summed per unit, rescaled between
    layers, then the optional dense head."""
    X = np.atleast_2d(np.asarray(X_raw, dtype=np.float64))
    h = normalise(np.asarray(rep.input_norm), X)
    coeffs = {e.edge_id: np.asarray(e.fit.coefficients)
              for e in rep.edges if e.active}
    widths = [len(d) for d in rep.divisors]
    v = None
    for k, units in enumerate(widths):
        t = 2.0 * h / np.pi - 1.0
        v = np.zeros((X.shape[0], units))
        for (layer, i, u), c in coeffs.items():
            if layer != k:
                continue
            acc = np.zeros(X.shape[0])
            for a in c[::-1]:
                acc = acc * t[:, i] + a
            v[:, u] += acc
        if k < len(widths) - 1:
            h = rescale(v, np.asarray(rep.divisors[k]), rep.bias_flag)
    out = v[:, 0]
    if rep.dense is not None:
        out = rep.dense[0] * out + rep.dense[1]
    return out


def fd_gradient_checks(model, X, y, network_forward, network_backward,
                       rng, n_params: int):
    """Central differences of L = mean((yhat - y)^2)/2 on ``n_params``
    angles of live edges, against network_backward.  Returns a list of
    (where, analytic, numeric, ok)."""
    _, _, grads = network_backward(X, y, model)
    candidates = []
    for k, active in enumerate(model.edge_active):
        for i, u in zip(*np.nonzero(active)):
            per_edge = model.thetas[k][:, i, u].size
            for flat in range(per_edge):
                candidates.append((k, int(i), int(u), flat))
    picks = rng.choice(len(candidates), size=min(n_params, len(candidates)),
                       replace=False)
    out = []
    for p in sorted(picks):
        k, i, u, flat = candidates[p]
        idx = np.unravel_index(flat, model.thetas[k][:, i, u].shape)
        full = (idx[0], i, u) + tuple(idx[1:])

        def loss_at(delta):
            m = model.copy()
            m.thetas[k][full] += delta
            return 0.5 * float(np.mean((network_forward(X, m) - y) ** 2))

        numeric = (loss_at(FD_STEP) - loss_at(-FD_STEP)) / (2 * FD_STEP)
        analytic = float(grads.thetas[k][full])
        ok = abs(numeric - analytic) <= FD_ABS_TOL + FD_REL_TOL * abs(analytic)
        out.append(((k,) + full, analytic, numeric, ok))
    return out
