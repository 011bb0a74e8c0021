"""Every public entry checks its input at the boundary: rows of features,
grids, samples and targets by ``data.finite_rows``, counts and seeds by
``data.check_count``.  A bad value raises a ValueError that names the kind
of input or the field, before any numpy error or NaN; a numpy integer is
taken wherever an int is."""

from functools import cache

import numpy as np
import pytest

from quirk.data import Dataset, generate, generate_univariate
from quirk.dr import DRParams, dr_forward_batch
from quirk.interpret import fit_poly, report, surrogate_forward
from quirk.network import (LayerSpec, NetworkSpec, edge_samples, edge_scores,
                           fit_input_norm, init_model, layer_forward,
                           network_backward, network_forward, prepare_rows,
                           spec_from_shape)


@cache
def _model():
    m = init_model(spec_from_shape([2, 2, 1], dr_layers=2, seed=0))
    m.input_norm = np.array([[0.0, 1.0], [0.0, 1.0]])
    return m


@cache
def _report():
    X = np.random.default_rng(0).uniform(0, 1, (20, 2))
    return report(_model(), Dataset(X, np.zeros(20)), grid_size=33)


GRID = np.linspace(0.0, np.pi, 33)

# entry, kind of input, its width (None: any), whether it takes only one
# row, and the call on that input
ROW_ENTRIES = [
    ("network_forward", "features", 2, False,
     lambda X: network_forward(X, _model())),
    ("network_backward", "features", 2, False,
     lambda X: network_backward(X, np.zeros(len(X)), _model())),
    ("network_backward", "targets", 3, True,
     lambda y: network_backward(np.full((3, 2), 0.5), y, _model())),
    ("edge_scores", "features", 2, False, lambda X: edge_scores(_model(), X)),
    ("prepare_rows", "features", 2, False, lambda X: prepare_rows(_model(), X)),
    ("edge_samples", "grid", None, True, lambda xs: edge_samples(_model(), xs)),
    ("layer_forward", "features", 2, False,
     lambda X: layer_forward(X, _model().thetas[0])),
    ("surrogate_forward", "features", 2, False,
     lambda X: surrogate_forward(_report(), X)),
    ("fit_poly", "grid", None, True, lambda xs: fit_poly(xs, np.sin(GRID))),
    ("fit_poly", "samples", len(GRID), True, lambda ys: fit_poly(GRID, ys)),
    ("fit_input_norm", "features", None, False, fit_input_norm),
]


def _row_cases():
    for entry, kind, width, single, call in ROW_ENTRIES:
        good = (np.linspace(0.1, 3.0, width or len(GRID)) if single
                else np.full((3, width or 2), 0.5))
        shapes = {"3-D": good[None, None] if single else np.zeros((2, 2, 2)),
                  "2-D": good[None] if single else None,
                  "width": None if width is None else (
                      good[:-1] if single else np.zeros((3, width + 1)))}
        for case, bad in shapes.items():
            if bad is not None:
                yield pytest.param(call, bad, kind, id=f"{entry}-{kind}-{case}")
        for value in (np.nan, np.inf, -np.inf):
            bad = good.copy()
            bad.flat[1] = value
            yield pytest.param(call, bad, f"{kind} must be finite",
                               id=f"{entry}-{kind}-{value}")


@pytest.mark.parametrize("call, bad, match", _row_cases())
def test_bad_rows_rejected_at_the_entry(call, bad, match):
    with pytest.raises(ValueError, match=match):
        call(bad)


# entry, field, its least value, and the call on that value
COUNT_ENTRIES = [
    ("LayerSpec", "fan_in", 1, lambda v: LayerSpec(v, 1, 1)),
    ("LayerSpec", "units", 1, lambda v: LayerSpec(1, v, 1)),
    ("LayerSpec", "dr_layers", 1, lambda v: LayerSpec(1, 1, v)),
    ("LayerSpec", "qubits_per_edge", 1, lambda v: LayerSpec(1, 1, 1, v)),
    ("NetworkSpec", "input_dim", 1, lambda v: NetworkSpec(v, (LayerSpec(2, 1, 1),))),
    ("NetworkSpec", "seed", 0, lambda v: NetworkSpec(1, (LayerSpec(1, 1, 1),), seed=v)),
    ("spec_from_shape", "fan_in", 1, lambda v: spec_from_shape([v, 1], 1)),
    ("spec_from_shape", "units", 1, lambda v: spec_from_shape([2, v, 1], 1)),
    ("spec_from_shape", "dr_layers", 1, lambda v: spec_from_shape([2, 1], v)),
    ("spec_from_shape", "seed", 0, lambda v: spec_from_shape([2, 1], 1, seed=v)),
    ("generate", "n_samples", 1, lambda v: generate("I.6.2", v)),
    ("generate", "seed", 0, lambda v: generate("I.6.2", 5, seed=v)),
    ("generate_univariate", "n_samples", 1, lambda v: generate_univariate("sin", v)),
    ("generate_univariate", "seed", 0,
     lambda v: generate_univariate("sin", 5, seed=v)),
    ("DRParams", "num_qubits", 1,
     lambda v: dr_forward_batch(0.5, DRParams(np.full((1, 2, 2), 0.3), num_qubits=v))),
]


@pytest.mark.parametrize("bad", [2.5, True, -1])
@pytest.mark.parametrize("entry, field, least, call", COUNT_ENTRIES,
                         ids=[f"{e}-{f}" for e, f, _, _ in COUNT_ENTRIES])
def test_bad_count_rejected_at_the_entry(entry, field, least, call, bad):
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= {least}, "):
        call(bad)


@pytest.mark.parametrize("entry, field, least, call", COUNT_ENTRIES,
                         ids=[f"{e}-{f}" for e, f, _, _ in COUNT_ENTRIES])
def test_numpy_integer_count_accepted(entry, field, least, call):
    got, want = call(np.int64(least + 1)), call(least + 1)
    if isinstance(got, Dataset):
        got, want = ((d.X.tobytes(), d.y.tobytes()) for d in (got, want))
    assert got == want


# zero rows: an entry that reduces over its rows names them, and one that
# maps rows to rows returns none
EMPTY_ENTRIES = [
    ("edge_scores", lambda: edge_scores(_model(), np.zeros((0, 2))),
     "^edge_scores needs at least one row$"),
    ("fit_input_norm", lambda: fit_input_norm(np.zeros((0, 2))),
     "^fit_input_norm needs at least one row$"),
    ("fit_poly", lambda: fit_poly(np.zeros(0), np.zeros(0)),
     "^a grid of 0 points cannot fix degree 6$"),
    ("report", lambda: report(_model(), Dataset(
        np.full((3, 2), 0.5), np.zeros(3),
        splits={"train": [0, 1], "val": [2], "test": []})),
     "^report needs at least one row; the test split is empty$"),
]


@pytest.mark.parametrize("call, match", [e[1:] for e in EMPTY_ENTRIES],
                         ids=[e[0] for e in EMPTY_ENTRIES])
def test_zero_rows_rejected_where_rows_are_reduced(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("call, want", [
    (lambda X: network_forward(X, _model()), (0,)),
    (lambda X: layer_forward(X, _model().thetas[0]), (0, 2)),
    (lambda X: surrogate_forward(_report(), X), (0,)),
    (lambda X: edge_samples(_model(), X[:, 0]), (6, 0)),
    (lambda X: prepare_rows(_model(), X), (0, 2)),
], ids=["network_forward", "layer_forward", "surrogate_forward", "edge_samples",
        "prepare_rows"])
def test_zero_rows_give_zero_rows_where_rows_are_mapped(call, want):
    assert call(np.zeros((0, 2))).shape == want


# report's settings (see interpret.check_settings): the grid is a count
# like any other, and r2_target a finite number
@pytest.mark.parametrize("field, bad, match", [
    ("grid_size", 2.5, "^grid_size must be an integer >= 2, got 2.5"),
    ("grid_size", True, "^grid_size must be an integer >= 2, got True"),
    ("grid_size", -1, "^grid_size must be an integer >= 2, got -1"),
    ("r2_target", np.nan, "^r2_target must be finite, got nan"),
    ("r2_target", np.inf, "^r2_target must be finite, got inf"),
])
def test_bad_report_setting_rejected(field, bad, match):
    X = np.random.default_rng(0).uniform(0, 1, (20, 2))
    with pytest.raises(ValueError, match=match):
        report(_model(), Dataset(X, np.zeros(20)), **{field: bad})


def test_dataset_rejects_3d_features():
    with pytest.raises(ValueError, match=r"^features must have shape \(B, n\), "
                                         r"got \(3, 2, 2\)"):
        Dataset(np.zeros((3, 2, 2)), np.zeros(3))
