"""QuIRK model assembly: stacked layers of summed DR edges.

A network is a chain of layers.  Each layer owns one DR circuit per
(input, unit) edge; a unit's output is the plain sum of its incoming edge
readouts, so it lives in [-fan_in, +fan_in].  Between layers the unit
outputs are rescaled back into the encoding domain [0, pi].  The final
layer always has a single unit; an optional dense head y = w*v + b (two
scalars) maps its raw sum to an unbounded target.

Raw features enter through a stored per-feature affine normalizer fitted
on training data (min, max) -> [0, pi]; inference clamps.

Parameters are stored stacked per layer -- thetas[k] has shape
(L, fan_in, units, P) for single-qubit edges, (L, fan_in, units, n, P)
for n-qubit edges.  Every edge is compiled to its exact Fourier series in
x, and every forward and backward pass evaluates a layer as a real-valued
contraction with the basis [1, cos kx, sin kx], in fixed tiles of
``_TILE`` rows with one BLAS product per tile and edge, so a row reads the
same bits in a batch of any size.  The compile is memoised on
the whole network's state (``_compiled``: layer specs, template, angles and
edge masks): a miss makes one ``dr._series`` call for each group of layers
that share their wiring (one statevector sweep over 2K+1 nodes for all their
live edges, whatever the qubit count), so a training step compiles once in
its backward pass and its validation forward is a hit.  ``edge_active``
boolean masks support pruning: an inactive edge is not compiled, contributes
nothing, is not trained, and is not counted.  The memo also keeps each
layer's live block, the inputs and units with a live edge, chained so that
each block's units are the next block's inputs, and every pass
evaluates only that block, so a pruned edge costs nothing to serve or
fine-tune; a fully live layer's block is the whole layer, and every pass
gives each edge the bits that evaluating its whole layer would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .data import check_records, read_record, read_records, write_records
from .dr import DEFAULT_TEMPLATE, GateTemplate, _check_capacity, _series


class ModelFormatError(ValueError):
    """Model file is malformed; message carries line/field context."""


class ModelVersionError(ModelFormatError):
    """Model file has a version tag this library does not read."""


MODEL_FORMAT_VERSION = "v1"


@dataclass(frozen=True)
class LayerSpec:
    fan_in: int
    units: int
    dr_layers: int
    qubits_per_edge: int = 1
    entangle: bool = False

    def __post_init__(self):
        for name in ("fan_in", "units", "dr_layers", "qubits_per_edge"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        _check_capacity(self.qubits_per_edge)

    @property
    def edges(self) -> int:
        return self.fan_in * self.units


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture: input width, layer chain, head, rescale bias flag, seed.

    Every layer except the last is implicitly followed by a rescale back to
    [0, pi]; the last layer has one unit and feeds the (optional) dense head.
    """

    input_dim: int
    layers: tuple
    dense_head: bool = False
    bias_flag: int = 0
    seed: int = 0
    template: GateTemplate = field(default_factory=GateTemplate)

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if not self.layers:
            raise ValueError("need at least one layer")
        object.__setattr__(self, "layers", tuple(self.layers))
        fan = self.input_dim
        for k, layer in enumerate(self.layers):
            if layer.fan_in != fan:
                raise ValueError(
                    f"layer {k} fan_in={layer.fan_in} does not match "
                    f"previous width {fan}"
                )
            fan = layer.units
        if self.layers[-1].units != 1:
            raise ValueError("final layer must have exactly one unit")
        if self.bias_flag not in (0, 1):
            raise ValueError(f"bias_flag must be 0 or 1, got {self.bias_flag}")

    @property
    def shape(self) -> list:
        return [self.input_dim] + [layer.units for layer in self.layers]


def spec_from_shape(shape, dr_layers, dense_head=False, bias_flag=0, seed=0,
                    qubits_per_edge=1, entangle=False,
                    template: GateTemplate = DEFAULT_TEMPLATE) -> NetworkSpec:
    """Build a NetworkSpec from bracket notation, e.g. [2, 2, 1].

    ``dr_layers`` is an int shared by all layers or one int per layer.
    """
    shape = list(shape)
    if len(shape) < 2:
        raise ValueError("shape needs an input width and at least one layer")
    n_layers = len(shape) - 1
    if isinstance(dr_layers, int):
        dr_layers = [dr_layers] * n_layers
    if len(dr_layers) != n_layers:
        raise ValueError(f"got {len(dr_layers)} dr_layers entries for {n_layers} layers")
    layers = tuple(
        LayerSpec(fan_in=shape[k], units=shape[k + 1], dr_layers=dr_layers[k],
                  qubits_per_edge=qubits_per_edge, entangle=entangle)
        for k in range(n_layers)
    )
    return NetworkSpec(input_dim=shape[0], layers=layers, dense_head=dense_head,
                       bias_flag=bias_flag, seed=seed, template=template)


def _theta_shape(layer: LayerSpec, P: int):
    if layer.qubits_per_edge == 1:
        return (layer.dr_layers, layer.fan_in, layer.units, P)
    return (layer.dr_layers, layer.fan_in, layer.units, layer.qubits_per_edge, P)


@dataclass
class Model:
    """Trainable state: stacked per-layer angles, edge masks, head, normalizer."""

    spec: NetworkSpec
    thetas: list
    edge_active: list
    dense_w: float = 1.0
    dense_b: float = 0.0
    input_norm: np.ndarray | None = None  # (input_dim, 2) of (min, max)

    def __post_init__(self):
        P = self.spec.template.params_per_layer
        if len(self.thetas) != len(self.spec.layers):
            raise ValueError("one theta block per layer required")
        for k, layer in enumerate(self.spec.layers):
            want = _theta_shape(layer, P)
            self.thetas[k] = np.asarray(self.thetas[k], dtype=np.float64)
            if self.thetas[k].shape != want:
                raise ValueError(
                    f"layer {k}: theta shape {self.thetas[k].shape} != {want}")
            self.edge_active[k] = np.asarray(self.edge_active[k], dtype=bool)
            if self.edge_active[k].shape != (layer.fan_in, layer.units):
                raise ValueError(
                    f"layer {k}: edge_active shape {self.edge_active[k].shape} "
                    f"!= {(layer.fan_in, layer.units)}")
            if not np.all(np.isfinite(self.thetas[k])):
                raise ValueError(f"layer {k}: all angles must be finite")
        if not (np.isfinite(self.dense_w) and np.isfinite(self.dense_b)):
            raise ValueError("dense head weight and bias must be finite")
        if self.input_norm is not None:
            self.input_norm = np.asarray(self.input_norm, dtype=np.float64)
            if self.input_norm.shape != (self.spec.input_dim, 2):
                raise ValueError(
                    f"input_norm shape {self.input_norm.shape} != "
                    f"{(self.spec.input_dim, 2)}")
            if not np.all(np.isfinite(self.input_norm)):
                raise ValueError("input_norm must be finite")
            if not np.all(self.input_norm[:, 0] < self.input_norm[:, 1]):
                raise ValueError("input_norm requires min < max per feature")

    def copy(self) -> "Model":
        return Model(
            spec=self.spec,
            thetas=[t.copy() for t in self.thetas],
            edge_active=[a.copy() for a in self.edge_active],
            dense_w=self.dense_w,
            dense_b=self.dense_b,
            input_norm=None if self.input_norm is None else self.input_norm.copy(),
        )


def init_model(spec: NetworkSpec) -> Model:
    """Fresh model: theta ~ U(-pi, pi) from spec.seed (drawn layer by layer in
    C order), all edges active, dense_w = 1, dense_b = 0, normalizer unfitted."""
    rng = np.random.default_rng(spec.seed)
    P = spec.template.params_per_layer
    thetas = [rng.uniform(-np.pi, np.pi, size=_theta_shape(layer, P))
              for layer in spec.layers]
    active = [np.ones((layer.fan_in, layer.units), dtype=bool)
              for layer in spec.layers]
    return Model(spec=spec, thetas=thetas, edge_active=active)


# --- input normalization ----------------------------------------------------


def fit_input_norm(X: np.ndarray) -> np.ndarray:
    """Per-feature (min, max) over a training matrix; degenerate (constant)
    features get a unit-wide window so min < max always holds."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    flat = hi - lo <= 0
    hi = np.where(flat, lo + 1.0, hi)
    return np.stack([lo, hi], axis=1)


def apply_input_norm(norm: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Affine map (min, max) -> [0, pi], clamped (inference may see
    out-of-range features)."""
    lo = norm[:, 0]
    hi = norm[:, 1]
    out = (X - lo) / (hi - lo) * np.pi
    return np.clip(out, 0.0, np.pi)


# --- forward ----------------------------------------------------------------


def rescale(values, fan_in, b: int = 0):
    """The inter-layer map: unit sums v, clamped to [-|I|, |I|], go to
    ((v/|I|) + (1-b)) / 2 * pi, clipped to the encoding domain [0, pi].
    ``fan_in`` may be a per-unit array (pruned layers divide by each unit's
    surviving edge count).  The slope is pi / (2|I|) where the result lies
    inside (0, pi) and 0 where the clip binds."""
    values = np.asarray(values, dtype=np.float64)
    cap = np.asarray(fan_in, dtype=np.float64)
    if np.any(cap < 1):
        raise ValueError("fan_in must be >= 1")
    values = np.clip(values, -cap, cap)
    return np.clip(((values / cap) + (1 - b)) / 2.0 * np.pi, 0.0, np.pi)


def unit_divisors(active: np.ndarray) -> np.ndarray:
    """Each unit's rescale divisor: its live incoming edges counted from the
    (fan_in, units) mask, at least 1, so a dead unit reads v = 0."""
    counts = active.sum(axis=0).astype(np.float64)
    return np.maximum(counts, 1.0)


# network states whose compiled series are kept: enough that a training
# step's backward pass and validation forward share one entry and serving
# hits, few enough that a serving round's short train() or prune() never
# finds the previous round's states (a round of the wide benchmark visits 13)
_MEMO_STATES = 8


class _Block(NamedTuple):
    """One layer's live block as ``_compiled`` keeps it, read only here.

    ``outs`` are the units that the layer's own live edges or the next
    layer's touch (the last layer's one unit, the output, always), and
    ``ins`` are the previous layer's ``outs`` (layer 0's: the inputs with a
    live edge), so blocks chain; each is ``slice(None)`` when the whole
    axis is live, else an index array, and ``at`` indexes the block on the
    layer's (input, unit) axes.  ``live`` is the block's own edge mask,
    (|ins|, |outs|).  ``c`` is the block's (|ins|, |outs|, 2K+1)
    coefficients and ``J`` their Jacobian on the same axes,
    (L, |ins|, |outs|, [n,] P, 2K+1); both hold the layer's rows of the
    compile, and 0 on dead edges, so a unit with no live edge sums to 0 and
    a unit the next layer does not read adds 0 to it.  ``div`` holds the
    divisors of ``outs``.
    """

    K: int
    ins: object
    outs: object
    at: tuple
    live: np.ndarray
    c: np.ndarray
    J: np.ndarray
    div: np.ndarray


def _live(axis: np.ndarray):
    return slice(None) if axis.all() else np.flatnonzero(axis)


def _compiled(layers: tuple, template: GateTemplate, thetas, active) -> tuple:
    """Each layer's live block (see ``_Block``): its inputs and units, the
    block of the layer's compiled Fourier series (K, c, J) (see
    ``dr._series``; dead edges inside the block have c = 0 and J = 0) and
    the divisors of its units.  Pruned edges outside the block are neither compiled nor evaluated.
    Memoised on the content of the angles and masks, not the arrays'
    identity, since optimizers and pruning update them in place; the
    results are read-only."""
    return _compile(layers, template,
                    tuple(np.asarray(t, dtype=np.float64).tobytes() for t in thetas),
                    tuple(np.asarray(a, dtype=bool).tobytes() for a in active))


@lru_cache(maxsize=_MEMO_STATES)
def _compile(layers: tuple, template: GateTemplate, angles: tuple, masks: tuple):
    # one dr._series call per group of layers sharing their wiring, on
    # their live edges in (layer, input, unit) order; each layer's rows
    # are then scattered into its block, where dead edges stay 0
    P = template.params_per_layer
    for k, a in enumerate(angles):
        if not np.all(np.isfinite(np.frombuffer(a))):
            raise ValueError(f"layer {k}: all angles must be finite")
    plans = _live_blocks(layers, masks)
    groups = {}
    for k, layer in enumerate(layers):
        wiring = (layer.dr_layers, layer.qubits_per_edge, layer.entangle)
        groups.setdefault(wiring, []).append(k)
    blocks = [None] * len(layers)
    for (_, n, entangle), ks in groups.items():
        K, c, J = _series(np.concatenate(
            [np.frombuffer(angles[k]).reshape(_theta_shape(layers[k], P))[:, plans[k][0]]
             for k in ks], axis=1), n, entangle, template)
        start = 0
        for k in ks:
            m, ins, outs, at, live, div = plans[k]
            stop = start + np.count_nonzero(m)
            cb = np.zeros(live.shape + c.shape[1:])
            cb[live] = c[start:stop]
            Jb = np.zeros(J.shape[:1] + live.shape + J.shape[2:])
            Jb[:, live] = J[:, start:stop]
            start = stop
            cb.flags.writeable = Jb.flags.writeable = False
            blocks[k] = _Block(K, ins, outs, at, live, cb, Jb, div)
    return tuple(blocks)


@lru_cache(maxsize=_MEMO_STATES)
def _live_blocks(layers: tuple, masks: tuple) -> tuple:
    """Per layer, what the edge masks alone decide (see ``_Block``): the
    mask, ins, outs, at, live and div.  Memoised apart from the angles, which
    change every training step, while masks change only in pruning."""
    masks = [np.frombuffer(m, dtype=bool).reshape(layer.fan_in, layer.units)
             for m, layer in zip(masks, layers)]
    plans = []
    ins = _live(masks[0].any(axis=1))
    for k, m in enumerate(masks):
        last = k + 1 == len(layers)
        outs = slice(None) if last else _live(m.any(axis=0) | masks[k + 1].any(axis=1))
        at = ((ins, outs) if isinstance(ins, slice) or isinstance(outs, slice)
              else np.ix_(ins, outs))
        live, div = m[at], unit_divisors(m)[outs]
        live.flags.writeable = div.flags.writeable = False
        plans.append((m, ins, outs, at, live, div))
        ins = outs
    return tuple(plans)


# rows per tile of _layer_eval.  Every series product is (1, 2K+1)·(2K+1,
# _TILE) whatever the batch, so a row gets the same BLAS call in any batch;
# a setting would let the last bits of a model's outputs depend on it.
# Smaller tiles make more and slower calls on big batches; bigger ones make
# a single row pay for more padding.
_TILE = 64


def _layer_eval(h: np.ndarray, K: int, c: np.ndarray, want_grads: bool):
    """Evaluate one layer's live block on its normalized inputs h (B, |ins|)
    from its compiled series: degree K and coefficients c (|ins|, |outs|,
    2K+1), as ``_compiled`` gives them.  Pruned edges outside the block
    cost nothing; a fully live layer's block is the whole layer.

    Edge (i, u) reads f(x) = c_0 + sum_k c_k cos kx + c_{K+k} sin kx.  The
    batch is padded to whole tiles of ``_TILE`` rows, and the basis
    [1, cos kx, sin kx] is built on it by angle addition.  f is one stacked
    matmul of one (1, 2K+1)·(2K+1, _TILE) product per tile and edge, and
    unit sums add the inputs in order, so a row gets the same arithmetic at
    any batch size and at any row offset, and an edge in any block.  Returns
    (unit_sums (B, |outs|), edge_vals (B, |ins|, |outs|), basis or None
    unless ``want_grads``), none holding a padded row; the basis is
    (|ins|, 2K+1, B), each input's (2K+1, B) matrix with its rows
    contiguous.
    """
    B, n_ins = h.shape
    tiles = -(-B // _TILE)
    rows = tiles * _TILE
    # stored frequency-major, so that each term is one contiguous
    # (|ins|, rows) array; the basis and the tiles are views of it
    terms = np.empty((2 * K + 1, n_ins, rows))
    x, work = terms[0], np.empty((n_ins, rows))
    x[:, B:] = 0.0  # padded rows, dropped below
    x[:, :B] = h.T
    cos1, sin1 = np.cos(x, out=terms[1]), np.sin(x, out=terms[K + 1])
    for k in range(2, K + 1):  # angle addition
        np.multiply(terms[k - 1], cos1, out=terms[k])
        terms[k] -= np.multiply(terms[K + k - 1], sin1, out=work)
        np.multiply(terms[K + k - 1], cos1, out=terms[K + k])
        terms[K + k] += np.multiply(terms[k - 1], sin1, out=work)
    x[...] = 1.0
    # by_tile[t, i] is input i's (2K+1, _TILE) basis on tile t; the matmul
    # makes one (1, 2K+1)·(2K+1, _TILE) product per tile and edge into
    # f[i, u], rows innermost
    by_tile = terms.reshape(terms.shape[:2] + (tiles, _TILE)).transpose(2, 1, 0, 3)
    f = np.empty(c.shape[:2] + (tiles, _TILE))
    np.matmul(c[:, :, None, :], by_tile[:, :, None],
              out=f.transpose(2, 0, 1, 3)[:, :, :, None])
    f = f.reshape(c.shape[:2] + (rows,))
    # a readout <Z> lies in [-1, 1]; keep the series' rounding inside it
    np.minimum(f, 1.0, out=f)
    np.maximum(f, -1.0, out=f)
    sums = f[0].copy() if len(f) else np.zeros(f.shape[1:])  # all edges pruned
    for i in range(1, c.shape[0]):
        sums += f[i]
    return (sums[:, :B].T, f[..., :B].transpose(2, 0, 1),
            terms[..., :B].transpose(1, 0, 2) if want_grads else None)


def _finite_features(X: np.ndarray) -> None:
    if not np.all(np.isfinite(X)):
        raise ValueError("features must be finite")


def layer_forward(inputs, thetas, active=None, entangle: bool = False,
                  template: GateTemplate = DEFAULT_TEMPLATE):
    """Unit sums of one layer: out[u] = sum_i DR(inputs[i]; thetas[:, i, u]).

    ``inputs`` is (fan_in,) or (B, fan_in), finite; ``thetas`` is stacked
    (L, fan_in, units, P) (single qubit) or (L, fan_in, units, n, P).  A unit
    with no live edge sums to 0.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    inputs = np.asarray(inputs, dtype=np.float64)
    single = inputs.ndim == 1
    h = np.atleast_2d(inputs)
    if thetas.ndim not in (4, 5):
        raise ValueError(f"stacked thetas must have 4 or 5 dims, got {thetas.ndim}")
    fan_in, units = thetas.shape[1], thetas.shape[2]
    if h.shape[1] != fan_in:
        raise ValueError(f"input length {h.shape[1]} != fan_in {fan_in}")
    _finite_features(h)
    if thetas.shape[-1] != template.params_per_layer:
        raise ValueError(f"thetas last dim {thetas.shape[-1]} does not match "
                         f"template params_per_layer={template.params_per_layer}")
    n = 1 if thetas.ndim == 4 else thetas.shape[3]
    layer = LayerSpec(fan_in=fan_in, units=units, dr_layers=thetas.shape[0],
                      qubits_per_edge=n, entangle=entangle)
    active = (np.ones((fan_in, units), dtype=bool) if active is None
              else np.asarray(active, dtype=bool))
    if active.shape != (fan_in, units):
        raise ValueError(f"active shape {active.shape} != {(fan_in, units)}")
    blk = _compiled((layer,), template, [thetas], [active])[0]
    sums = _layer_eval(h[:, blk.ins], blk.K, blk.c, want_grads=False)[0]
    return sums[0] if single else sums


def _forward_pass(model: Model, X: np.ndarray, want_grads: bool):
    """Shared forward over each layer's live block: returns (yhat (B,),
    caches).  caches[k] holds the layer's block record ``blk`` (see
    _compiled) and its unit sums and edge values on the block (see
    _layer_eval) and, with ``want_grads``, its Fourier basis and the slope
    of the rescale after it on the block's units (see rescale); else the
    basis is None.  Each block's units are the next block's inputs."""
    if model.input_norm is None:
        raise RuntimeError(
            "input normalization is unfitted; train first or set model.input_norm")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.spec.input_dim:
        raise ValueError(
            f"expected {model.spec.input_dim} features, got {X.shape[1]}")
    _finite_features(X)
    caches = []
    n_layers = len(model.spec.layers)
    series = _compiled(model.spec.layers, model.spec.template, model.thetas,
                       model.edge_active)
    ins = series[0].ins
    h = apply_input_norm(model.input_norm[ins], X[:, ins])
    for k, blk in enumerate(series):
        v, f, basis = _layer_eval(h, blk.K, blk.c, want_grads)
        caches.append({"blk": blk, "v": v, "f": f, "basis": basis})
        if k < n_layers - 1:
            h = rescale(v, blk.div, b=model.spec.bias_flag)
            if want_grads:
                caches[-1]["slope"] = np.where((h > 0.0) & (h < np.pi),
                                               np.pi / (2.0 * blk.div), 0.0)
    out = v[:, 0]
    if model.spec.dense_head:
        out = model.dense_w * out + model.dense_b
    return out, caches


def network_forward(raw_input, model: Model):
    """Model output for one sample (returns float) or a batch (B, input_dim)
    (returns (B,)); inputs are raw features, normalized internally."""
    arr = np.asarray(raw_input, dtype=np.float64)
    out, _ = _forward_pass(model, arr, want_grads=False)
    return float(out[0]) if arr.ndim <= 1 else out


def edge_scores(model: Model, X_train) -> list:
    """Per-layer arrays (fan_in, units): std of each edge's DR output over
    the training inputs; inactive edges score NaN."""
    _, caches = _forward_pass(model, X_train, want_grads=False)
    scores = [np.full(active.shape, np.nan) for active in model.edge_active]
    for s, cache in zip(scores, caches):
        blk = cache["blk"]
        s[blk.at] = np.where(blk.live, cache["f"].std(axis=0), np.nan)
    return scores


def edge_samples(model: Model, xs) -> np.ndarray:
    """Every live edge on the encoded grid ``xs`` (grid,), one row per edge
    in (layer, input, unit) order."""
    x, rows = np.asarray(xs, dtype=np.float64)[:, None], []
    for blk in _compiled(model.spec.layers, model.spec.template, model.thetas,
                         model.edge_active):
        f = _layer_eval(np.repeat(x, len(blk.c), axis=1), blk.K, blk.c,
                        want_grads=False)[1]
        rows.append(f.transpose(1, 2, 0)[blk.live])
    return np.concatenate(rows)


@dataclass
class Gradients:
    """d(half-MSE)/d(parameter), shaped exactly like the model's storage."""

    thetas: list
    dense_w: float = 0.0
    dense_b: float = 0.0


def network_backward(X, y, model: Model):
    """Exact gradients of L = mean((yhat - y)^2) / 2 over a non-empty batch.

    Returns (loss, yhat, Gradients).  Chain rule runs through the dense head,
    every live block's DR edges, and the inter-layer rescales (see rescale
    for their slope).  Gradients outside the blocks are exactly 0.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    B = y.shape[0]
    if B == 0:
        raise ValueError("network_backward needs at least one row")
    yhat, caches = _forward_pass(model, X, want_grads=True)
    if yhat.shape[0] != B:
        raise ValueError(f"got {yhat.shape[0]} inputs but {B} targets")
    res = yhat - y
    loss = 0.5 * float(np.mean(res**2))
    r = res / B  # dL/dyhat

    grads = Gradients(thetas=[np.zeros_like(t) for t in model.thetas])
    v_last = caches[-1]["v"][:, 0]
    if model.spec.dense_head:
        grads.dense_w = float(r @ v_last)
        grads.dense_b = float(r.sum())
        cot = (r * model.dense_w)[None]  # dL/dv of last layer
    else:
        cot = r[None]

    # cot holds layer k's block units, (|outs|, B); every product below has
    # one shape per edge, so a block gives each edge its whole layer's bits
    for k in range(len(model.spec.layers) - 1, -1, -1):
        blk, basis = caches[k]["blk"], caches[k]["basis"]
        # contract the cotangent with the basis first, so no per-sample
        # dtheta is ever built: G[i, u, m] = sum_b basis_m(h_bi) cot_ub
        G = np.matmul(basis[:, None], cot[:, :, None])
        if blk.J.ndim == 6:  # an edge's n qubits share its G
            G = G[:, :, None]
        # dead edges have J = 0, so they get no gradient
        grads.thetas[k][(slice(None),) + blk.at] = np.matmul(blk.J, G)[..., 0]
        if k > 0:
            # dh_ib = sum_u f'_iu(h_bi) cot_ub, f' the derivative series:
            # (cos jx)' = -j sin jx and (sin jx)' = j cos jx
            K, c, j = blk.K, blk.c, np.arange(1.0, blk.K + 1)
            dc = np.concatenate([np.zeros(c.shape[:2] + (1,)),
                                 j * c[:, :, K + 1:], -j * c[:, :, 1:K + 1]], axis=2)
            df = np.matmul(dc[:, :, None], basis[:, None])[:, :, 0]
            dh = np.zeros((df.shape[0], B))
            for u in range(df.shape[1]):  # the units in order
                dh += df[:, u] * cot[u]
            cot = dh * caches[k - 1]["slope"].T
    return loss, yhat, grads


def param_count(model: Model) -> int:
    """Active trainable angles plus 2 for the dense head when present.

    Per active edge: dr_layers x params_per_layer x qubits_per_edge.  Pruned
    edges do not count; normalizer statistics and knots never count.
    """
    P = model.spec.template.params_per_layer
    total = 0
    for layer, active in zip(model.spec.layers, model.edge_active):
        per_edge = layer.dr_layers * P * layer.qubits_per_edge
        total += per_edge * int(active.sum())
    if model.spec.dense_head:
        total += 2
    return total


# --- serialization ----------------------------------------------------------
# Versioned line-oriented text; floats as float.hex() so round-trips are
# bitwise.  The record table below is the format documentation (see README).


def _template_str(t: GateTemplate) -> str:
    return ",".join(f"{kind}:{source}" for kind, source in t.gates)


def _template_parse(values) -> GateTemplate:
    (text,) = values
    gates = [part.split(":") for part in text.split(",")]
    if any(len(g) != 2 for g in gates):
        raise ValueError(f"bad template {text!r}; expected kind:source,...")
    return GateTemplate(tuple((kind, source if source == "input" else int(source))
                              for kind, source in gates))


# record name -> token pattern(s); see data.read_records
_MODEL_RECORDS = {
    "template": "str", "input_dim": "int", "dense_head": "flag", "bias_flag": "int",
    "seed": "int", "layers": "int",
    "layer": "# fan_in int units int dr_layers int qubits_per_edge int entangle flag",
    "edge": "# # # flag hex*",
    "norm": "unfitted | # hex hex",
    "dense": "hex hex",
}
_SCALARS = ("template", "input_dim", "dense_head", "bias_flag", "seed", "layers",
            "dense")


def save_model(model: Model, path) -> None:
    """Write the versioned text format (see README for the field list)."""
    s = model.spec
    records = [(name, [value]) for name, value in zip(_SCALARS, (
        _template_str(s.template), s.input_dim, s.dense_head, s.bias_flag, s.seed,
        len(s.layers)))]
    records += [("layer", [k, layer.fan_in, layer.units, layer.dr_layers,
                           layer.qubits_per_edge, layer.entangle])
                for k, layer in enumerate(s.layers)]
    records += [("edge", [k, i, u, model.edge_active[k][i, u],
                          model.thetas[k][:, i, u].reshape(-1)])
                for k, layer in enumerate(s.layers)
                for i in range(layer.fan_in) for u in range(layer.units)]
    records += ([("norm", [])] if model.input_norm is None else
                [("norm", [i, lo, hi]) for i, (lo, hi) in enumerate(model.input_norm)])
    records.append(("dense", [model.dense_w, model.dense_b]))
    write_records(path, "quirk-model", MODEL_FORMAT_VERSION, _MODEL_RECORDS, records)


def _fail(lineno: int, msg: str, version: bool = False):
    raise (ModelVersionError if version else ModelFormatError)(f"line {lineno}: {msg}")


def _norm(values) -> list:
    if not values[0] < values[1]:
        raise ValueError(f"min {values[0].hex()} must be below max {values[1].hex()}")
    return values


def load_model(path) -> Model:
    """Read a model file; raises ModelVersionError / ModelFormatError naming
    the line on anything malformed, a value a constructor rejects included.
    Nothing is sized by a header number before the records it counts."""
    recs, end = read_records(path, "quirk-model", MODEL_FORMAT_VERSION,
                             _MODEL_RECORDS, _fail)
    read = partial(read_record, recs, fail=_fail)

    check_records(recs, {name: () for name in _SCALARS}, "a model file", end, _fail)
    input_dim, dense_head, bias_flag, seed, n_layers = (
        recs[name][()][0][0] for name in _SCALARS[1:6])
    template = read("template", (), _template_parse)
    check_records(recs, {"layer": (n_layers,)}, f"layers {n_layers}", end, _fail)
    layers = [read("layer", (k,), lambda v: LayerSpec(*v))
              for k in range(n_layers)]
    # the architecture's own rules (the layer chain, one final unit,
    # bias_flag, input_dim) fail at the layers record
    spec = read("layers", (), lambda _: NetworkSpec(
        input_dim, layers, dense_head, bias_flag, seed, template))

    unfitted = () in recs["norm"]
    check_records(recs, {"edge": (n_layers, lambda k: layers[k].fan_in,
                                  lambda k, i: layers[k].units),
                         "norm": () if unfitted else (spec.input_dim,)},
                  "the architecture", end, _fail)
    P = template.params_per_layer
    for (k, i, u), ((_, angles), line) in recs["edge"].items():
        want = layers[k].dr_layers * layers[k].qubits_per_edge * P
        if len(angles) != want:
            _fail(recs["layer"][(k,)][1], f"layer {k} gives each edge {want} angle(s), "
                  f"but edge record {(k, i, u)} on line {line} has {len(angles)}")
    # every edge record holds its angles, so these are sized by the file
    thetas = [np.zeros(_theta_shape(layer, P)) for layer in layers]
    active = [np.ones((layer.fan_in, layer.units), dtype=bool) for layer in layers]
    for (k, i, u), ((flag, angles), _) in recs["edge"].items():
        active[k][i, u] = flag
        thetas[k][:, i, u] = np.reshape(angles, thetas[k][:, i, u].shape)
    input_norm = None if unfitted else np.array(
        [read("norm", (i,), _norm) for i in range(spec.input_dim)])
    dense_w, dense_b = recs["dense"][()][0]
    return Model(spec=spec, thetas=thetas, edge_active=active,
                 dense_w=dense_w, dense_b=dense_b, input_norm=input_norm)
