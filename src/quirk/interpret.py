"""Turn a trained model into a readable closed form.

Every edge of the network is a univariate map from the encoding domain
[0, pi] into [-1, 1], so each one can be sampled on a grid and fitted with a
low-degree polynomial.  ``report`` and the CLI's edge plots sample every
live edge through ``network.edge_samples``, from the compiled Fourier series
the network itself runs, not from the circuit.  Composing those polynomials
through the rescale maps (affine, then clamped to [0, pi]) and the dense
head gives a classical surrogate whose error against the model is measured
directly.

``report`` fits all live edges of the network together, with one
least-squares solve per degree over the edges still short of the R^2
target; ``fit_poly(xs, ys)`` is the same fitter on one edge's samples.
Fits run on a Chebyshev basis over t = 2*x/pi - 1 for conditioning; reported
coefficients are monomials in t (ascending degree), degree + 1 of them.
Keep that variable change in mind when reading a report: the printed affine
input maps take raw features to x in [0, pi] first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np
from numpy.polynomial import chebyshev as _cheb

# not called here: benchmarks/run.py's tracer wraps it, test_tooling.py pins it
from .dr import dr_forward_batch
from .network import (Model, apply_input_norm, edge_samples, network_forward,
                      rescale, spec_from_shape, unit_divisors)
from .data import (check_records, read_record, read_records, write_csv_rows,
                   write_records)

DEFAULT_GRID_SIZE = 257
DEFAULT_MAX_DEGREE = 6
DEFAULT_R2_TARGET = 0.99

REPORT_FORMAT_VERSION = "v1"


class ReportFormatError(ValueError):
    pass


@dataclass
class PolyFit:
    coefficients: np.ndarray  # monomials in t = 2x/pi - 1, ascending degree
    degree: int
    r_squared: float

    def __call__(self, t):
        return np.polynomial.polynomial.polyval(np.asarray(t, dtype=np.float64),
                                                self.coefficients)


def _to_t(xs: np.ndarray) -> np.ndarray:
    return 2.0 * np.asarray(xs, dtype=np.float64) / np.pi - 1.0


def _r_squared(ys: np.ndarray, residual_ss) -> np.ndarray:
    """R^2 of each row of ys (..., grid) given its residual sum of squares
    (...); sums run along the contiguous grid axis, so a row's R^2 does not
    depend on how many rows come with it."""
    total_ss = np.sum((ys - ys.mean(axis=-1, keepdims=True)) ** 2, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(total_ss == 0.0, 0.0,
                      np.fmax(0.0, 1.0 - residual_ss / total_ss))
    # essentially-zero residual is a perfect fit even when total_ss is also
    # rounding dust (constant data), where the ratio would be 0/0
    scale = np.maximum(np.sum(ys**2, axis=-1), 1.0)
    return np.where(residual_ss <= 1e-24 * scale, 1.0, r2)


def _mulx(c: np.ndarray) -> np.ndarray:
    # numpy's polymulx on every column: t times each polynomial
    out = np.empty((len(c) + 1,) + c.shape[1:])
    out[0] = c[0] * 0
    out[1:] = c
    return out


def _cheb2poly(c: np.ndarray) -> np.ndarray:
    """numpy's ``cheb2poly`` recurrence, run on every column of c
    (Chebyshev coefficients down axis 0) at once, with the same operations
    in the same order.  Unlike numpy it trims no trailing zeros: a degree-d
    column keeps its d + 1 monomial coefficients."""
    n = len(c)
    if n < 3:
        return c.copy()
    c0, c1 = c[-2:-1], c[-1:]
    # i is the current degree of c1
    for i in range(n - 1, 1, -1):
        tmp = c0
        c0 = -c1
        c0[0] += c[i - 2]
        c1 = _mulx(c1) * 2
        c1[:len(tmp)] += tmp
    out = _mulx(c1)
    out[:len(c0)] += c0
    return out


def _fit_polys(xs: np.ndarray, ys: np.ndarray, max_degree: int,
               r2_target: float) -> list:
    """``fit_poly`` on every row of ys (E, grid) at once: one least-squares
    solve per degree covers every row still short of ``r2_target``, and each
    row keeps the first degree that reaches it, else ``max_degree``."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.ascontiguousarray(ys, dtype=np.float64)
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    if xs.size < max_degree + 1:
        raise ValueError(f"{xs.size} points cannot fix degree {max_degree}")
    if np.ptp(xs) == 0.0:
        raise ValueError("degenerate grid: all xs identical")
    fits = [None] * len(ys)
    todo = np.arange(len(ys))
    # the degree-d basis is the first d + 1 columns of the full one
    V_all = _cheb.chebvander(_to_t(xs), max_degree)
    for degree in range(max_degree + 1):
        if not todo.size:
            break
        V = V_all[:, :degree + 1]
        Y = ys[todo]
        # coefficients down axis 0, one column per row of Y
        c_cheb = np.linalg.solve(V.T @ V, V.T @ Y.T)
        r2 = _r_squared(Y, np.sum((c_cheb.T @ V.T - Y) ** 2, axis=1))
        done = (r2 >= r2_target) | (degree == max_degree)
        if done.any():
            coeffs = _cheb2poly(c_cheb[:, done])
            for j, (row, r) in enumerate(zip(todo[done], r2[done])):
                fits[row] = PolyFit(coefficients=coeffs[:, j].copy(),
                                    degree=degree, r_squared=float(r))
        todo = todo[~done]
    return fits


def fit_poly(xs, ys, max_degree: int = DEFAULT_MAX_DEGREE,
             r2_target: float = DEFAULT_R2_TARGET) -> PolyFit:
    """Smallest-degree polynomial through samples ``ys`` at grid ``xs``
    reaching ``r2_target``, else the ``max_degree`` fit.  Least squares on
    the Chebyshev basis; coefficients returned as monomials in t, degree + 1
    of them."""
    return _fit_polys(xs, np.asarray(ys, dtype=np.float64)[None],
                      max_degree, r2_target)[0]


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
                    f"    then v clamped to [-divisor, divisor], x = "
                    f"pi*((v/divisor) + {1 - self.bias_flag})/2 clipped to [0, pi], "
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
    h = apply_input_norm(np.asarray(report.input_norm), X)
    n_layers = len(report.divisors)
    fits = {e.edge_id: e.fit.coefficients for e in report.edges if e.active}
    for k, div in enumerate(report.divisors):
        # the layer's live edges in (input, unit) order, their fits down
        # axis 0 of one (degree + 1, edges, 1) array, zero-padded to the
        # top degree, and their inputs t, rows innermost
        ids = sorted(e for e in fits if e[0] == k)
        coeffs = np.zeros((max([len(fits[e]) for e in ids], default=1), len(ids), 1))
        for j, e in enumerate(ids):
            coeffs[:len(fits[e]), j, 0] = fits[e]
        t = _to_t(h).T[[i for _, i, _ in ids]]
        # polyval's Horner steps on all of them at once; a padded edge stays
        # 0 until its top coefficient, so each edge gets polyval's bits
        p = coeffs[-1] + t * 0
        for c in coeffs[-2::-1]:
            p *= t
            p += c
        # each unit adds its inputs in order
        v = np.zeros((len(div), X.shape[0]))
        for j, (_, _, u) in enumerate(ids):
            v[u] += p[j]
        v = v.T
        if k < n_layers - 1:
            h = rescale(v, np.asarray(div), b=report.bias_flag)
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
    against the model.  The edges are sampled on the grid by
    ``network.edge_samples``, from the compiled Fourier series the network's
    forward pass uses, so the fits see exactly the function the model
    serves.  The live edges of all layers are then fitted together,
    one least-squares solve per degree (see ``_fit_polys``).  ``dataset``
    supplies the evaluation inputs (the test split when one is attached,
    otherwise all rows)."""
    if model.input_norm is None:
        raise RuntimeError("model has no fitted input normalization")
    check_settings(grid_size, max_degree)
    xs = np.linspace(0.0, np.pi, grid_size)
    fits = iter(_fit_polys(xs, edge_samples(model, xs), max_degree, r2_target))
    edges = [EdgeReport(edge_id=(k, i, u), active=bool(live),
                        fit=next(fits) if live else None)
             for k, active in enumerate(model.edge_active)
             for (i, u), live in np.ndenumerate(active)]
    if dataset.splits is not None:
        X_eval, y_eval = dataset.part("test")
    else:
        X_eval, y_eval = dataset.X, dataset.y
    rep = InterpretReport(
        shape=(model.spec.input_dim,) + tuple(l.units for l in model.spec.layers),
        input_norm=np.asarray(model.input_norm, dtype=np.float64),
        edges=edges,
        divisors=[unit_divisors(active).tolist() for active in model.edge_active],
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
        live = unit_divisors(np.array([[fits[k, i, u] is not None
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
