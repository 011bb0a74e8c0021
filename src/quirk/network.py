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
for n-qubit edges.  A layer's edges are compiled once per parameter
state to their exact Fourier series in x (``dr._series``: one statevector
sweep over 2K+1 nodes for all edges, whatever the qubit count), and every
forward and backward pass evaluates the layer as a real-valued contraction
with the basis [1, cos kx, sin kx].  ``edge_active`` boolean masks support
pruning: an inactive edge contributes nothing, is not trained, and is not
counted.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .data import check_records, finite, read_record, read_records
from .dr import DEFAULT_TEMPLATE, DRParams, GateTemplate, _check_capacity, _series


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

    def edge_params(self, layer: int, i: int, u: int) -> DRParams:
        """The DR circuit on edge (input i -> unit u) of ``layer``."""
        ls = self.spec.layers[layer]
        return DRParams(self.thetas[layer][:, i, u], num_qubits=ls.qubits_per_edge,
                        entangle=ls.entangle, template=self.spec.template)

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
    """Map unit sums from [-|I|, |I|] back into the encoding domain:
    ((v/|I|) + (1-b)) / 2 * pi.  ``fan_in`` may be a per-unit array (pruned
    layers divide by each unit's surviving edge count).  Out-of-range values
    are clamped with a warning."""
    values = np.asarray(values, dtype=np.float64)
    cap = np.asarray(fan_in, dtype=np.float64)
    if np.any(cap < 1):
        raise ValueError("fan_in must be >= 1")
    over = np.abs(values) > cap
    if np.any(over):
        warnings.warn(
            f"{int(np.count_nonzero(over))} value(s) outside +-fan_in were clamped "
            "before rescaling", RuntimeWarning, stacklevel=2)
        values = np.clip(values, -cap, cap)
    return ((values / cap) + (1 - b)) / 2.0 * np.pi


def _unit_divisors(active: np.ndarray) -> np.ndarray:
    # per-unit effective fan-in; dead units (no live edges) get 1 to avoid
    # 0/0 -- their output is unused because downstream edges are also pruned
    counts = active.sum(axis=0).astype(np.float64)
    return np.maximum(counts, 1.0)


def _layer_eval(h: np.ndarray, layer: LayerSpec, thetas: np.ndarray,
                active: np.ndarray, template: GateTemplate, want_grads: bool):
    """Evaluate one layer on normalized inputs h (B, fan_in).

    The layer's edges are compiled to their Fourier series (``dr._series``,
    once per parameter state), so edge (i, u) reads
    f(x) = c_0 + sum_k c_k cos kx + c_{K+k} sin kx.  The basis depends on
    the input only.  f accumulates in a fixed loop of broadcast
    multiply-adds over rows, and unit sums add the inputs in order, so a row
    gets the same arithmetic in any batch.  Returns (unit_sums (B, units),
    edge_vals (B, fan_in, units), basis (2K+1, fan_in, B) or None unless
    ``want_grads``, coefficients c (fan_in, units, 2K+1) with inactive edges
    zeroed, and their Jacobian J = dc/dthetas).
    """
    K, c, J = _series(thetas, layer.qubits_per_edge, layer.entangle, template)
    c = c * active[:, :, None]
    x = np.ascontiguousarray(h.T)
    cos1, sin1 = np.cos(x), np.sin(x)
    # the backward pass needs the whole basis; a forward pass keeps only
    # the current frequency, so big batches need no (2K+1)-fold copy
    basis = np.empty((2 * K + 1,) + x.shape) if want_grads else None
    # f[i, u, b], rows innermost
    f = np.empty(c.shape[:2] + x.shape[1:])
    f[...] = c[:, :, :1]
    term = np.empty_like(f)
    cos_k, sin_k = cos1, sin1
    for k in range(1, K + 1):
        if k > 1:  # angle addition
            cos_k, sin_k = cos_k * cos1 - sin_k * sin1, sin_k * cos1 + cos_k * sin1
        f += np.multiply(cos_k[:, None, :], c[:, :, k:k + 1], out=term)
        f += np.multiply(sin_k[:, None, :], c[:, :, K + k:K + k + 1], out=term)
        if want_grads:
            basis[k], basis[K + k] = cos_k, sin_k
    if want_grads:
        basis[0] = 1.0
    # a readout <Z> lies in [-1, 1]; keep the series' rounding inside it
    np.minimum(f, 1.0, out=f)
    np.maximum(f, -1.0, out=f)
    sums = f[0].copy()
    for i in range(1, layer.fan_in):
        sums += f[i]
    return sums.T, f.transpose(2, 0, 1), basis, c, J


def layer_forward(inputs, thetas, active=None, entangle: bool = False,
                  template: GateTemplate = DEFAULT_TEMPLATE):
    """Unit sums of one layer: out[u] = sum_i DR(inputs[i]; thetas[:, i, u]).

    ``inputs`` is (fan_in,) or (B, fan_in); ``thetas`` is stacked
    (L, fan_in, units, P) (single qubit) or (L, fan_in, units, n, P).
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
    n = 1 if thetas.ndim == 4 else thetas.shape[3]
    layer = LayerSpec(fan_in=fan_in, units=units, dr_layers=thetas.shape[0],
                      qubits_per_edge=n, entangle=entangle)
    if active is None:
        active = np.ones((fan_in, units), dtype=bool)
    sums = _layer_eval(h, layer, thetas, np.asarray(active, dtype=bool), template,
                       want_grads=False)[0]
    return sums[0] if single else sums


def _forward_pass(model: Model, X: np.ndarray, want_grads: bool):
    """Shared forward: returns (yhat (B,), caches).  caches[k] holds the
    layer's unit sums, edge values, Fourier basis (None unless
    ``want_grads``), coefficients and their Jacobian (see _layer_eval), plus
    the rescale divisors."""
    if model.input_norm is None:
        raise RuntimeError(
            "input normalization is unfitted; train first or set model.input_norm")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.spec.input_dim:
        raise ValueError(
            f"expected {model.spec.input_dim} features, got {X.shape[1]}")
    if not np.all(np.isfinite(X)):
        raise ValueError("features must be finite")
    h = apply_input_norm(model.input_norm, X)
    caches = []
    v = None
    n_layers = len(model.spec.layers)
    for k, layer in enumerate(model.spec.layers):
        v, f, basis, c, J = _layer_eval(h, layer, model.thetas[k], model.edge_active[k],
                                        model.spec.template, want_grads)
        caches.append({"v": v, "f": f, "basis": basis, "c": c, "J": J})
        if k < n_layers - 1:
            div = _unit_divisors(model.edge_active[k])
            caches[-1]["div"] = div
            h = rescale(v, div, b=model.spec.bias_flag)
            # clip only binds when bias_flag = 1; clipped entries are flat,
            # so the backward pass must drop their gradient
            caches[-1]["open"] = (h > 0.0) & (h < np.pi)
            h = np.clip(h, 0.0, np.pi)
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


@dataclass
class Gradients:
    """d(half-MSE)/d(parameter), shaped exactly like the model's storage."""

    thetas: list
    dense_w: float = 0.0
    dense_b: float = 0.0


def network_backward(X, y, model: Model):
    """Exact gradients of L = mean((yhat - y)^2) / 2 over the batch.

    Returns (loss, yhat, Gradients).  Chain rule runs through the dense head,
    every DR edge, and the inter-layer rescales (derivative pi / (2 |I|) with
    |I| the per-unit divisor).
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    yhat, caches = _forward_pass(model, X, want_grads=True)
    B = y.shape[0]
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
        cot = (r * model.dense_w)[:, None]  # dL/dv of last layer
    else:
        cot = r[:, None]

    for k in range(len(model.spec.layers) - 1, -1, -1):
        cache = caches[k]
        basis, c = cache["basis"], cache["c"]
        # contract the cotangent with the basis first, so no per-sample
        # dtheta is ever built: G[i, u, m] = sum_b basis_m(h_bi) cot_bu
        G = np.matmul(basis.transpose(1, 0, 2), cot).transpose(0, 2, 1)
        G *= model.edge_active[k][:, :, None]
        grads.thetas[k] = np.einsum("liu...k,iuk->liu...", cache["J"], G)
        if k > 0:
            # dh_bi = sum_m basis'_m(h_bi) sum_u c_ium cot_bu, with
            # (cos jx)' = -j sin jx and (sin jx)' = j cos jx; c is masked
            K = basis.shape[0] // 2
            H = np.matmul(c.transpose(0, 2, 1), cot.T).transpose(1, 0, 2)
            j = np.arange(1.0, K + 1)[:, None, None]
            dh = (j * (basis[1:K + 1] * H[K + 1:] - basis[K + 1:] * H[1:K + 1])).sum(axis=0)
            div = caches[k - 1]["div"]
            cot = dh.T * (np.pi / (2.0 * div)) * caches[k - 1]["open"]
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
# bitwise.  Field names below are the format documentation (see README).


def _template_str(t: GateTemplate) -> str:
    return ",".join(f"{kind}:{source}" for kind, source in t.gates)


def _template_parse(toks) -> GateTemplate:
    (text,) = toks
    gates = [part.split(":") for part in text.split(",")]
    if any(len(g) != 2 for g in gates):
        raise ValueError(f"bad template {text!r}; expected kind:source,...")
    return GateTemplate(tuple((kind, source if source == "input" else int(source))
                              for kind, source in gates))


def save_model(model: Model, path) -> None:
    """Write the versioned text format (see README for the field list)."""
    lines = [f"quirk-model {MODEL_FORMAT_VERSION}"]
    s = model.spec
    lines.append(f"template {_template_str(s.template)}")
    lines.append(f"input_dim {s.input_dim}")
    lines.append(f"dense_head {int(s.dense_head)}")
    lines.append(f"bias_flag {s.bias_flag}")
    lines.append(f"seed {s.seed}")
    lines.append(f"layers {len(s.layers)}")
    for k, layer in enumerate(s.layers):
        lines.append(
            f"layer {k} fan_in {layer.fan_in} units {layer.units} "
            f"dr_layers {layer.dr_layers} qubits_per_edge {layer.qubits_per_edge} "
            f"entangle {int(layer.entangle)}")
    for k, layer in enumerate(s.layers):
        for i in range(layer.fan_in):
            for u in range(layer.units):
                flat = model.thetas[k][:, i, u].reshape(-1)
                hexes = " ".join(float(v).hex() for v in flat)
                lines.append(
                    f"edge {k} {i} {u} {int(model.edge_active[k][i, u])} {hexes}")
    if model.input_norm is None:
        lines.append("norm unfitted")
    else:
        for i in range(s.input_dim):
            lo, hi = model.input_norm[i]
            lines.append(f"norm {i} {float(lo).hex()} {float(hi).hex()}")
    lines.append(f"dense {float(model.dense_w).hex()} {float(model.dense_b).hex()}")
    lines.append("end")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _fail(lineno: int, msg: str, version: bool = False):
    raise (ModelVersionError if version else ModelFormatError)(f"line {lineno}: {msg}")


def _int(toks) -> int:
    (tok,) = toks
    return int(tok)


def _hexes(toks, shape) -> np.ndarray:
    if len(toks) != np.prod(shape):
        raise ValueError(f"needs {np.prod(shape)} number(s), got {len(toks)}")
    return np.reshape([finite(t, float.fromhex) for t in toks], shape)


def _layer(toks) -> LayerSpec:
    kv = dict(zip(toks[::2], toks[1::2]))
    if len(toks) != 2 * len(_LAYER_FIELDS) or set(kv) != set(_LAYER_FIELDS):
        raise ValueError(f"needs fields {_LAYER_FIELDS}")
    row = {f: int(kv[f]) for f in _LAYER_FIELDS}
    return LayerSpec(**row | {"entangle": bool(row["entangle"])})


def _norm(toks) -> np.ndarray:
    row = _hexes(toks, 2)
    if not row[0] < row[1]:
        raise ValueError(f"min {toks[0]} must be below max {toks[1]}")
    return row


# record name -> number of index tokens that key it (see data.read_records)
_MODEL_ARITY = {"template": 0, "input_dim": 0, "dense_head": 0, "bias_flag": 0,
                "seed": 0, "layers": 0, "layer": 1, "edge": 3, "norm": 1, "dense": 0}
_LAYER_FIELDS = ("fan_in", "units", "dr_layers", "qubits_per_edge", "entangle")


def load_model(path) -> Model:
    """Read a model file; raises ModelVersionError / ModelFormatError naming
    the line on anything malformed.  Each record is checked as it is parsed,
    so a value a constructor rejects fails at its own line too."""
    recs, end = read_records(path, "quirk-model", MODEL_FORMAT_VERSION,
                             _MODEL_ARITY, _fail)

    read = partial(read_record, recs, fail=_fail)

    check_records(recs, {name: [()] for name, n in _MODEL_ARITY.items() if n == 0},
                  "a model file", end, _fail)
    template = read("template", (), _template_parse)
    input_dim, dense_head, bias_flag, seed, n_layers = (
        read(name, (), _int)
        for name in ("input_dim", "dense_head", "bias_flag", "seed", "layers"))
    check_records(recs, {"layer": [(k,) for k in range(n_layers)]}, f"layers {n_layers}",
                  end, _fail)
    layers = [read("layer", (k,), _layer) for k in range(n_layers)]
    # the architecture's own rules (the layer chain, one final unit,
    # bias_flag, input_dim) fail at the layers record
    spec = read("layers", (), lambda _: NetworkSpec(
        input_dim, layers, bool(dense_head), bias_flag, seed, template))

    unfitted = ("unfitted",) in recs["norm"]
    want = {"edge": [(k, i, u) for k, layer in enumerate(layers)
                     for i in range(layer.fan_in) for u in range(layer.units)],
            "norm": [("unfitted",)] if unfitted else [(i,) for i in range(spec.input_dim)]}
    check_records(recs, want, "the architecture", end, _fail)
    P = template.params_per_layer
    thetas = [np.zeros(_theta_shape(layer, P)) for layer in layers]
    active = [np.ones((layer.fan_in, layer.units), dtype=bool) for layer in layers]
    for k, i, u in want["edge"]:
        angles = thetas[k][:, i, u]  # a view
        active[k][i, u], angles[...] = read(
            "edge", (k, i, u), lambda t: (bool(int(t[0])), _hexes(t[1:], angles.shape)))
    if unfitted:
        read("norm", ("unfitted",), lambda t: _hexes(t, 0))
        input_norm = None
    else:
        input_norm = np.array([read("norm", (i,), _norm) for i in range(spec.input_dim)])
    dense_w, dense_b = read("dense", (), lambda t: _hexes(t, 2))
    return Model(spec=spec, thetas=thetas, edge_active=active,
                 dense_w=float(dense_w), dense_b=float(dense_b), input_norm=input_norm)
