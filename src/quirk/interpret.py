"""Turn a trained model into a readable closed form.

Every edge of the network is a univariate map from the encoding domain
[0, pi] into [-1, 1], so each one can be sampled on a grid and fitted with a
low-degree polynomial.  ``report`` reads the samples from each layer's
compiled Fourier series (the evaluator the network itself runs), not from
the circuit; ``sample_edge`` simulates one edge's circuit and stays as the
independent reference for plots and tests.  Composing those polynomials
through the rescale maps (affine, then clamped to [0, pi]) and the dense
head gives a classical surrogate whose error against the model is measured
directly.

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
from .network import (Model, _compiled, _layer_eval, _unit_divisors,
                      apply_input_norm, network_forward, rescale, spec_from_shape)
from .data import (check_records, read_record, read_records, write_csv_rows,
                   write_records)

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
    evaluation of its compiled Fourier series, read from the same memo the
    network's forward pass uses, so the fits see exactly the function the
    model serves.  ``dataset`` supplies the evaluation inputs
    (the test split when one is attached, otherwise all rows)."""
    if model.input_norm is None:
        raise RuntimeError("model has no fitted input normalization")
    check_settings(grid_size, max_degree)
    xs = np.linspace(0.0, np.pi, grid_size)
    edges = []
    divisors = []
    series = _compiled(model.spec.layers, model.spec.template, model.thetas,
                       model.edge_active)
    for k, (layer, blk) in enumerate(zip(model.spec.layers, series)):
        active = model.edge_active[k]
        divisors.append(_unit_divisors(active).tolist())
        # only the live block is evaluated; pruned edges are not fitted
        f = np.zeros((grid_size, layer.fan_in, layer.units))
        f[(slice(None),) + blk.at] = _layer_eval(
            np.repeat(xs[:, None], len(blk.c), axis=1), blk.K, blk.c,
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


# record name -> token pattern(s); see data.read_records
_REPORT_RECORDS = {
    "shape": "int*",
    "settings": "grid int max_degree int r2_target float",
    "bias_flag": "int",
    "input": "# min float max float",
    "divisors": "# float*",
    "edge": "# # # pruned | # # # active degree int r2 float coeffs float*",
    "dense": "none | w float b float",
    "surrogate_rmse": "float",
    "model_rmse": "float",
}


def save_report(rep: InterpretReport, path) -> None:
    """Line-oriented text; repr() floats round-trip float64 exactly, so the
    surrogate is recomputable from the file alone."""
    records = [("shape", [rep.shape]),
               ("settings", [rep.grid_size, rep.max_degree, rep.r2_target]),
               ("bias_flag", [rep.bias_flag])]
    records += [("input", [f, lo, hi]) for f, (lo, hi) in enumerate(rep.input_norm)]
    records += [("divisors", [k, div]) for k, div in enumerate(rep.divisors)]
    records += [("edge", [*e.edge_id, e.fit.degree, e.fit.r_squared, e.fit.coefficients]
                 if e.active else list(e.edge_id)) for e in rep.edges]
    records.append(("dense", [] if rep.dense is None else list(rep.dense)))
    records.append(("surrogate_rmse", [rep.surrogate_rmse]))
    if rep.model_rmse is not None:
        records.append(("model_rmse", [rep.model_rmse]))
    write_records(path, "quirk-interpret", REPORT_FORMAT_VERSION, _REPORT_RECORDS,
                  records)


def load_report(path) -> InterpretReport:
    """Read a report file; raises ReportFormatError naming the line on
    anything malformed or not fitting the report's own ``shape``."""
    def fail(no, msg, version=False):
        raise ReportFormatError(f"{path}:{no}: {msg}")

    recs, end = read_records(path, "quirk-interpret", REPORT_FORMAT_VERSION,
                             _REPORT_RECORDS, fail)
    read = partial(read_record, recs, fail=fail)

    def settings(values):
        check_settings(*values[:2])
        return dict(zip(("grid_size", "max_degree", "r2_target"), values))

    def divisors(values, k):
        # each unit divides by its live incoming edges, at least 1
        live = _unit_divisors(np.array([[fits[k, i, u] is not None
                                         for u in range(shape[k + 1])]
                                        for i in range(shape[k])])).tolist()
        if values[0] != live:
            raise ValueError(f"divisors {values[0]} do not match the live edges, "
                             f"which give {live}")
        return live

    def edge(values):
        if not values:  # pruned
            return None
        degree, r2, coeffs = values
        if degree < 0 or len(coeffs) != degree + 1:
            raise ValueError(f"degree {degree} needs {degree + 1} coefficients, "
                             f"found {len(coeffs)}")
        if degree > kw["max_degree"]:
            raise ValueError(f"degree {degree} exceeds max_degree {kw['max_degree']}")
        return PolyFit(np.array(coeffs), degree, r2)

    check_records(recs, {name: () for name in ("shape", "settings", "bias_flag",
                                               "dense", "surrogate_rmse")},
                  "a report file", end, fail)
    # shape and bias_flag follow the rules of a network's spec
    shape = read("shape", (), lambda v: tuple(spec_from_shape(v[0], 1).shape))
    kw = read("settings", (), settings)
    n = len(shape) - 1
    # every record the shape calls for, exactly once, and nothing else
    check_records(recs, {"input": (shape[0],), "divisors": (n,),
                         "edge": (n, lambda k: shape[k], lambda k, i: shape[k + 1])},
                  f"shape {list(shape)}", end, fail)
    fits = {eid: read("edge", eid, edge) for eid in sorted(recs["edge"])}
    return InterpretReport(
        shape=shape,
        input_norm=np.array([recs["input"][(f,)][0] for f in range(shape[0])]),
        edges=[EdgeReport(eid, fit is not None, fit) for eid, fit in fits.items()],
        divisors=[read("divisors", (k,), lambda v: divisors(v, k)) for k in range(n)],
        bias_flag=read("bias_flag", (), lambda v: spec_from_shape(
            shape, 1, bias_flag=v[0]).bias_flag),
        dense=tuple(recs["dense"][()][0]) or None,
        surrogate_rmse=recs["surrogate_rmse"][()][0][0],
        model_rmse=recs["model_rmse"][()][0][0] if recs["model_rmse"] else None,
        **kw)


def save_coeffs_csv(rep: InterpretReport, path) -> None:
    """Coefficient table, one row per edge, padded with zeros up to the
    largest degree fitted in the report."""
    width = max((e.fit.degree + 1 for e in rep.edges if e.active), default=0)
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
