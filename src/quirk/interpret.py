"""Turn a trained model into a readable closed form.

Every edge of the network is a univariate map from the encoding domain
[0, pi] into [-1, 1], so each one can be sampled on a grid and fitted with a
low-degree polynomial.  ``report`` reads the samples from each layer's
compiled Fourier series (the evaluator the network itself runs), not from
the circuit; ``sample_edge`` simulates one edge's circuit and stays as the
independent reference for plots and tests.  Composing those polynomials
through the (purely affine) rescale maps and the dense head gives a
classical surrogate whose error against the model is measured directly.

Fits run on a Chebyshev basis over t = 2*x/pi - 1 for conditioning; reported
coefficients are monomials in t (ascending degree).  Keep that variable
change in mind when reading a report: the printed affine input maps take raw
features to x in [0, pi] first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .dr import dr_forward_batch
from .network import (Model, _layer_eval, _unit_divisors, apply_input_norm,
                      network_forward, rescale)
from .data import check_records, finite, read_record, read_records, write_csv_rows

DEFAULT_GRID_SIZE = 257
DEFAULT_MAX_DEGREE = 6
DEFAULT_R2_TARGET = 0.99

REPORT_FORMAT_VERSION = "v1"


class ReportFormatError(ValueError):
    pass


@dataclass
class EdgeFunctionSample:
    edge_id: tuple  # (layer, input, unit)
    xs: np.ndarray  # grid in [0, pi], ascending
    ys: np.ndarray  # DR outputs, within [-1, 1]


@dataclass
class PolyFit:
    coefficients: np.ndarray  # monomials in t = 2x/pi - 1, ascending degree
    degree: int
    r_squared: float

    def __call__(self, t):
        return np.polynomial.polynomial.polyval(np.asarray(t, dtype=np.float64),
                                                self.coefficients)


def sample_edge(model: Model, edge_id, grid_size: int = DEFAULT_GRID_SIZE
                ) -> EdgeFunctionSample:
    """Evaluate one edge's circuit alone on a uniform grid over [0, pi]."""
    layer, i, u = edge_id
    try:
        params = model.edge_params(layer, i, u)
    except (IndexError, ValueError) as exc:
        raise KeyError(f"no edge {tuple(edge_id)} in this model") from exc
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    xs = np.linspace(0.0, np.pi, grid_size)
    ys = dr_forward_batch(xs, params)
    return EdgeFunctionSample(edge_id=(layer, i, u), xs=xs, ys=ys)


def _to_t(xs: np.ndarray) -> np.ndarray:
    return 2.0 * np.asarray(xs, dtype=np.float64) / np.pi - 1.0


def _r_squared(ys: np.ndarray, residual_ss: float) -> float:
    # essentially-zero residual is a perfect fit even when total_ss is also
    # rounding dust (constant data), where the ratio would be 0/0
    scale = max(float(np.sum(ys**2)), 1.0)
    if residual_ss <= 1e-24 * scale:
        return 1.0
    total_ss = float(np.sum((ys - ys.mean()) ** 2))
    if total_ss == 0.0:
        return 0.0
    return max(0.0, 1.0 - residual_ss / total_ss)


def fit_poly(sample: EdgeFunctionSample, max_degree: int = DEFAULT_MAX_DEGREE,
             r2_target: float = DEFAULT_R2_TARGET) -> PolyFit:
    """Smallest-degree polynomial reaching ``r2_target``, else the
    ``max_degree`` fit.  Least squares on the Chebyshev basis; coefficients
    returned as monomials in t."""
    xs = np.asarray(sample.xs, dtype=np.float64)
    ys = np.asarray(sample.ys, dtype=np.float64)
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    if xs.size < max_degree + 1:
        raise ValueError(f"{xs.size} points cannot fix degree {max_degree}")
    if np.ptp(xs) == 0.0:
        raise ValueError("degenerate grid: all xs identical")
    # the degree-d basis is the first d + 1 columns of the full one
    V_all = _cheb.chebvander(_to_t(xs), max_degree)
    for degree in range(max_degree + 1):
        V = V_all[:, :degree + 1]
        c_cheb = np.linalg.solve(V.T @ V, V.T @ ys)
        r2 = _r_squared(ys, float(np.sum((V @ c_cheb - ys) ** 2)))
        if r2 >= r2_target:
            break
    return PolyFit(coefficients=_cheb.cheb2poly(c_cheb), degree=degree,
                   r_squared=r2)


@dataclass
class EdgeReport:
    edge_id: tuple
    active: bool
    fit: Optional[PolyFit]  # None for pruned edges


@dataclass
class InterpretReport:
    """Everything needed to re-evaluate the polynomial surrogate."""

    shape: tuple  # (input_dim, units per layer ...)
    input_norm: np.ndarray  # (input_dim, 2) feature (min, max)
    edges: list  # EdgeReport, fixed (layer, i, u) order
    divisors: list  # per layer, per-unit rescale divisor
    bias_flag: int
    dense: Optional[tuple]  # (w, b) or None
    surrogate_rmse: float  # surrogate vs model, evaluation inputs
    model_rmse: Optional[float]  # model vs targets on the same inputs
    grid_size: int = DEFAULT_GRID_SIZE
    max_degree: int = DEFAULT_MAX_DEGREE
    r2_target: float = DEFAULT_R2_TARGET

    def edge(self, layer: int, i: int, u: int) -> EdgeReport:
        for e in self.edges:
            if e.edge_id == (layer, i, u):
                return e
        raise KeyError(f"no edge {(layer, i, u)} in report")

    def summary(self) -> str:
        lines = [
            "polynomial surrogate, edge variables t = 2*x/pi - 1",
        ]
        for f in range(len(self.input_norm)):
            lo, hi = self.input_norm[f]
            lines.append(
                f"  x{f + 1}: raw feature {f + 1} mapped by "
                f"x = pi*(raw - {lo:g})/({hi:g} - {lo:g}), clamped to [0, pi]")
        for k, div in enumerate(self.divisors):
            units = len(div)
            for u in range(units):
                terms = []
                for e in self.edges:
                    layer, i, uu = e.edge_id
                    if layer != k or uu != u or not e.active:
                        continue
                    terms.append(f"p[{layer},{i},{u}](t_{i})")
                body = " + ".join(terms) if terms else "0"
                lines.append(f"  layer {k} unit {u}: v = {body}")
            if k < len(self.divisors) - 1:
                lines.append(
                    f"    then x = pi*((v/divisor) + {1 - self.bias_flag})/2 "
                    f"per unit, divisors {list(div)}")
        if self.dense is not None:
            w, b = self.dense
            lines.append(f"  output: y = {w:g}*v + {b:g}")
        else:
            lines.append("  output: y = v")
        return "\n".join(lines)


def surrogate_forward(report: InterpretReport, raw_input) -> np.ndarray:
    """Run the polynomial surrogate on raw features: every edge circuit is
    replaced by its fitted polynomial, everything else is unchanged."""
    X = np.atleast_2d(np.asarray(raw_input, dtype=np.float64))
    if X.shape[1] != len(report.input_norm):
        raise ValueError(f"expected {len(report.input_norm)} features")
    if not np.all(np.isfinite(X)):
        raise ValueError("features must be finite")
    polys = {e.edge_id: e.fit for e in report.edges if e.active}
    h = apply_input_norm(np.asarray(report.input_norm), X)
    n_layers = len(report.divisors)
    v = None
    widths = [len(d) for d in report.divisors]
    fan_ins = [X.shape[1]] + widths[:-1]
    for k in range(n_layers):
        t = _to_t(h)
        v = np.zeros((X.shape[0], widths[k]))
        for u in range(widths[k]):
            for i in range(fan_ins[k]):
                fit = polys.get((k, i, u))
                if fit is not None:
                    v[:, u] += fit(t[:, i])
        if k < n_layers - 1:
            h = rescale(v, np.asarray(report.divisors[k]), b=report.bias_flag)
            h = np.clip(h, 0.0, np.pi)
    out = v[:, 0]
    if report.dense is not None:
        out = report.dense[0] * out + report.dense[1]
    return out


def check_settings(grid_size: int, max_degree: int) -> None:
    """The readout's grid rule, shared by ``report``, report files and the
    CLI: a degree-d fit needs more than d grid points."""
    if not (0 <= max_degree < grid_size and grid_size >= 2):
        raise ValueError(f"grid {grid_size} and max_degree {max_degree} break "
                         f"0 <= max_degree < grid_size, grid_size >= 2")


def report(model: Model, dataset, grid_size: int = DEFAULT_GRID_SIZE,
           max_degree: int = DEFAULT_MAX_DEGREE,
           r2_target: float = DEFAULT_R2_TARGET) -> InterpretReport:
    """Fit every active edge, compose the surrogate, and measure its RMSE
    against the model.  Each layer's edges are sampled on the grid in one
    evaluation of its compiled Fourier series, so the fits see exactly the
    function the model serves.  ``dataset`` supplies the evaluation inputs
    (the test split when one is attached, otherwise all rows)."""
    if model.input_norm is None:
        raise RuntimeError("model has no fitted input normalization")
    check_settings(grid_size, max_degree)
    xs = np.linspace(0.0, np.pi, grid_size)
    edges = []
    divisors = []
    for k, layer in enumerate(model.spec.layers):
        active = model.edge_active[k]
        divisors.append(_unit_divisors(active).tolist())
        f = _layer_eval(np.repeat(xs[:, None], layer.fan_in, axis=1), layer,
                        model.thetas[k], active, model.spec.template,
                        want_grads=False)[1]
        for i in range(layer.fan_in):
            for u in range(layer.units):
                fit = (fit_poly(EdgeFunctionSample((k, i, u), xs, f[:, i, u]),
                                max_degree, r2_target) if active[i, u] else None)
                edges.append(EdgeReport(edge_id=(k, i, u),
                                        active=bool(active[i, u]), fit=fit))
    if dataset.splits is not None:
        X_eval, y_eval = dataset.part("test")
    else:
        X_eval, y_eval = dataset.X, dataset.y
    rep = InterpretReport(
        shape=(model.spec.input_dim,) + tuple(l.units for l in model.spec.layers),
        input_norm=np.asarray(model.input_norm, dtype=np.float64),
        edges=edges,
        divisors=divisors,
        bias_flag=model.spec.bias_flag,
        dense=(model.dense_w, model.dense_b) if model.spec.dense_head else None,
        surrogate_rmse=0.0,
        model_rmse=None,
        grid_size=grid_size, max_degree=max_degree, r2_target=r2_target)
    model_out = network_forward(X_eval, model)
    surr_out = surrogate_forward(rep, X_eval)
    rep.surrogate_rmse = float(np.sqrt(np.mean((surr_out - model_out) ** 2)))
    if y_eval is not None:
        rep.model_rmse = float(np.sqrt(np.mean((model_out - y_eval) ** 2)))
    return rep


# --- report files -----------------------------------------------------------


def save_report(rep: InterpretReport, path) -> None:
    """Line-oriented text; repr() floats round-trip float64 exactly, so the
    surrogate is recomputable from the file alone."""
    lines = [f"quirk-interpret {REPORT_FORMAT_VERSION}",
             "shape " + " ".join(str(s) for s in rep.shape),
             f"settings grid {rep.grid_size} max_degree {rep.max_degree} "
             f"r2_target {repr(rep.r2_target)}",
             f"bias_flag {rep.bias_flag}"]
    for f in range(len(rep.input_norm)):
        lo, hi = rep.input_norm[f]
        lines.append(f"input {f} min {repr(float(lo))} max {repr(float(hi))}")
    for k, div in enumerate(rep.divisors):
        lines.append("divisors " + str(k) + " " +
                     " ".join(repr(float(d)) for d in div))
    for e in rep.edges:
        layer, i, u = e.edge_id
        if e.active:
            coeffs = " ".join(repr(float(c)) for c in e.fit.coefficients)
            lines.append(f"edge {layer} {i} {u} active degree {e.fit.degree} "
                         f"r2 {repr(float(e.fit.r_squared))} coeffs {coeffs}")
        else:
            lines.append(f"edge {layer} {i} {u} pruned")
    if rep.dense is not None:
        lines.append(f"dense w {repr(float(rep.dense[0]))} "
                     f"b {repr(float(rep.dense[1]))}")
    else:
        lines.append("dense none")
    lines.append(f"surrogate_rmse {repr(float(rep.surrogate_rmse))}")
    if rep.model_rmse is not None:
        lines.append(f"model_rmse {repr(float(rep.model_rmse))}")
    lines.append("end")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# record name -> number of index tokens that key it (see data.read_records)
_REPORT_ARITY = {"shape": 0, "settings": 0, "bias_flag": 0, "input": 1,
                 "divisors": 1, "edge": 3, "dense": 0, "surrogate_rmse": 0,
                 "model_rmse": 0}


def load_report(path) -> InterpretReport:
    """Read a report file; raises ReportFormatError naming the line on
    anything malformed or not fitting the report's own ``shape``."""
    def fail(no, msg, version=False):
        raise ReportFormatError(f"{path}:{no}: {msg}")

    recs, end = read_records(path, "quirk-interpret", REPORT_FORMAT_VERSION,
                             _REPORT_ARITY, fail)

    read = partial(read_record, recs, fail=fail)

    def network(toks):
        shape = tuple(int(t) for t in toks)
        if len(shape) < 2 or min(shape) < 1 or shape[-1] != 1:
            raise ValueError(f"shape {list(shape)} is not a network ending in one unit")
        return shape

    def settings(toks):
        grid, max_degree = int(toks[1]), int(toks[3])
        check_settings(grid, max_degree)
        return {"grid_size": grid, "max_degree": max_degree, "r2_target": finite(toks[5])}

    def flag(toks):
        if int(toks[0]) not in (0, 1):
            raise ValueError(f"bias_flag must be 0 or 1, got {toks[0]}")
        return int(toks[0])

    def divisors(toks, k):
        # each unit divides by its live incoming edges, at least 1
        div = [finite(t) for t in toks]
        live = _unit_divisors(np.array([[fits[k, i, u] is not None
                                         for u in range(shape[k + 1])]
                                        for i in range(shape[k])])).tolist()
        if div != live:
            raise ValueError(f"divisors {div} do not match the live edges, "
                             f"which give {live}")
        return div

    def edge(toks):
        if toks[0] == "pruned":
            return None
        if toks[0] != "active":
            raise ValueError(f"edge state must be active|pruned, got {toks[0]!r}")
        degree, coeffs = int(toks[2]), np.array([finite(t) for t in toks[6:]])
        if degree < 0 or coeffs.size != degree + 1:
            raise ValueError(f"degree {degree} needs {degree + 1} coefficients, "
                             f"found {coeffs.size}")
        if degree > kw["max_degree"]:
            raise ValueError(f"degree {degree} exceeds max_degree {kw['max_degree']}")
        return PolyFit(coeffs, degree, finite(toks[4]))

    check_records(recs, {name: [()] for name in ("shape", "settings", "bias_flag",
                                                  "dense", "surrogate_rmse")},
                  "a report file", end, fail)
    shape = read("shape", (), network)
    kw = read("settings", (), settings)
    # every record the shape calls for, exactly once, and nothing else
    want = {"input": [(f,) for f in range(shape[0])],
            "divisors": [(k,) for k in range(len(shape) - 1)],
            "edge": [(k, i, u) for k in range(len(shape) - 1)
                     for i in range(shape[k]) for u in range(shape[k + 1])]}
    check_records(recs, want, f"shape {list(shape)}", end, fail)
    fits = {eid: read("edge", eid, edge) for eid in want["edge"]}
    return InterpretReport(
        shape=shape,
        input_norm=np.array([read("input", f, lambda t: (finite(t[1]), finite(t[3])))
                             for f in want["input"]]),
        edges=[EdgeReport(eid, fit is not None, fit) for eid, fit in fits.items()],
        divisors=[read("divisors", (k,), lambda t: divisors(t, k))
                  for (k,) in want["divisors"]],
        bias_flag=read("bias_flag", (), flag),
        dense=read("dense", (), lambda t: None if t[0] == "none"
                   else (finite(t[1]), finite(t[3]))),
        surrogate_rmse=read("surrogate_rmse", (), lambda t: finite(t[0])),
        model_rmse=(read("model_rmse", (), lambda t: finite(t[0]))
                    if recs["model_rmse"] else None),
        **kw)


def save_coeffs_csv(rep: InterpretReport, path) -> None:
    """Coefficient table, one row per edge, padded with zeros up to the
    report's max degree."""
    width = rep.max_degree + 1
    header = ["layer", "input", "unit", "active", "degree", "r_squared"] + [
        f"c{d}" for d in range(width)]
    rows = []
    for e in rep.edges:
        layer, i, u = e.edge_id
        if e.active:
            padded = np.zeros(width)
            padded[:e.fit.coefficients.size] = e.fit.coefficients
            rows.append([layer, i, u, 1, e.fit.degree, e.fit.r_squared,
                         *padded.tolist()])
        else:
            rows.append([layer, i, u, 0, "", "", *[""] * width])
    write_csv_rows(path, header, rows)
