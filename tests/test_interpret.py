import dataclasses
import os
import re

import numpy as np
import numpy.testing as npt
import pytest

from quirk import interpret
from quirk.data import generate
from quirk.dr import SU2_TEMPLATE, GateTemplate
from quirk.network import (Model, fit_input_norm, init_model, network_forward,
                           spec_from_shape)
from quirk.train import TrainConfig, train

from mutations import escapes


def lstsq_poly_oracle(xs, ys, degree):
    """Plain monomial-Vandermonde least squares in t = 2x/pi - 1.

    Independent check for fit_poly: same minimizer, different basis and
    solver, so agreement is meaningful.
    """
    t = 2.0 * xs / np.pi - 1.0
    V = np.vander(t, degree + 1, increasing=True)
    coeffs, *_ = np.linalg.lstsq(V, ys, rcond=None)
    resid = V @ coeffs - ys
    return coeffs, float(resid @ resid)


def per_degree_fit_poly(xs, ys, max_degree, r2_target):
    """fit_poly as a loop that builds each degree's Chebyshev basis afresh
    and converts every fit; the one-basis version must match it exactly."""
    t = 2.0 * xs / np.pi - 1.0
    for degree in range(max_degree + 1):
        V = np.polynomial.chebyshev.chebvander(t, degree)
        c = np.linalg.solve(V.T @ V, V.T @ ys)
        r2 = interpret._r_squared(ys, float(np.sum((V @ c - ys) ** 2)))
        fit = (np.polynomial.chebyshev.cheb2poly(c), degree, r2)
        if r2 >= r2_target:
            break
    return fit


def theta_zero_model(shape, dr_layers=1, seed=0):
    spec = spec_from_shape(shape, dr_layers=dr_layers, seed=seed)
    m = init_model(spec)
    for th in m.thetas:
        th[...] = 0.0
    m.input_norm = np.stack([np.zeros(spec.input_dim),
                             np.ones(spec.input_dim)], axis=1)
    return m


def readout_models():
    """A pruned dense-head bias_flag 1 network, a 2-qubit entangled SU2
    network and a one-gate network, each with inputs normalised to [0, 1]."""
    pruned = init_model(spec_from_shape([3, 4, 2, 1], dr_layers=2,
                                        dense_head=True, bias_flag=1, seed=4))
    pruned.edge_active[0][[0, 2, 1], [1, 1, 3]] = False
    pruned.edge_active[1][3, 0] = False
    su2 = init_model(spec_from_shape([2, 2, 1], dr_layers=2, seed=5,
                                     qubits_per_edge=2, entangle=True,
                                     template=SU2_TEMPLATE))
    one_gate = init_model(spec_from_shape(
        [2, 1], dr_layers=3, seed=6, template=GateTemplate((("ry", "input"),))))
    for m in (pruned, su2, one_gate):
        m.input_norm = np.stack([np.zeros(m.spec.input_dim),
                                 np.ones(m.spec.input_dim)], axis=1)
    return [pruned, su2, one_gate]


def plain_dataset(dim, seed=0):
    class Plain:
        X = np.random.default_rng(seed).uniform(0, 1, (60, dim))
        y = None
        splits = None
    return Plain()


class TestSampleEdge:
    def test_theta_zero_is_cosine(self):
        m = theta_zero_model([2, 1])
        s = interpret.sample_edge(m, (0, 1, 0), grid_size=33)
        npt.assert_allclose(s.ys, np.cos(s.xs), atol=1e-14)

    def test_grid_two_hits_endpoints(self):
        m = theta_zero_model([1, 1])
        s = interpret.sample_edge(m, (0, 0, 0), grid_size=2)
        npt.assert_array_equal(s.xs, [0.0, np.pi])

    def test_grid_sorted_and_range_invariant(self):
        spec = spec_from_shape([2, 2, 1], dr_layers=3, seed=5)
        m = init_model(spec)
        m.input_norm = np.array([[0.0, 1.0], [0.0, 1.0]])
        s = interpret.sample_edge(m, (1, 1, 0))
        assert np.all(np.diff(s.xs) > 0)
        assert np.all(np.abs(s.ys) <= 1.0 + 1e-12)

    def test_unknown_edge_raises_lookup(self):
        m = theta_zero_model([2, 1])
        with pytest.raises(LookupError):
            interpret.sample_edge(m, (0, 5, 0))
        with pytest.raises(LookupError):
            interpret.sample_edge(m, (3, 0, 0))


class TestFitPoly:
    def test_exact_quadratic(self):
        xs = np.linspace(0.0, np.pi, 41)
        t = 2 * xs / np.pi - 1
        ys = 0.5 * t**2 - 0.3 * t + 0.1
        fit = interpret.fit_poly(interpret.EdgeFunctionSample((0, 0, 0), xs, ys))
        assert fit.degree == 2
        assert fit.r_squared >= 1 - 1e-10
        npt.assert_allclose(fit.coefficients, [0.1, -0.3, 0.5], rtol=1e-8)

    def test_constant_selects_degree_zero(self):
        xs = np.linspace(0.0, np.pi, 20)
        fit = interpret.fit_poly(
            interpret.EdgeFunctionSample((0, 0, 0), xs, np.full(20, 0.7)))
        assert fit.degree == 0
        npt.assert_allclose(fit.coefficients, [0.7], rtol=1e-12)

    def test_cosine_degree_four_quality(self):
        # oracle: direct least-squares residual of the degree-4 fit
        xs = np.linspace(0.0, np.pi, 257)
        ys = np.cos(xs)
        _, resid = lstsq_poly_oracle(xs, ys, 4)
        r2_oracle = 1.0 - resid / np.sum((ys - ys.mean()) ** 2)
        assert r2_oracle >= 0.999
        fit = interpret.fit_poly(interpret.EdgeFunctionSample((0, 0, 0), xs, ys),
                                 max_degree=4, r2_target=0.9999999)
        # forced to max degree; must match the oracle's minimizer
        assert fit.degree == 4
        oc, _ = lstsq_poly_oracle(xs, ys, 4)
        npt.assert_allclose(fit.coefficients, oc, atol=1e-9)
        npt.assert_allclose(fit.r_squared, r2_oracle, atol=1e-12)

    @pytest.mark.parametrize("degree", [0, 1, 3, 5])
    def test_exact_poly_recovery(self, degree):
        rng = np.random.default_rng(degree)
        coeffs = rng.normal(size=degree + 1)
        xs = np.linspace(0.0, np.pi, 64)
        t = 2 * xs / np.pi - 1
        ys = np.polynomial.polynomial.polyval(t, coeffs)
        # near-exact target: the selector stops at the true degree instead of
        # settling for a statistically-good lower one
        fit = interpret.fit_poly(interpret.EdgeFunctionSample((0, 0, 0), xs, ys),
                                 max_degree=6, r2_target=1 - 1e-12)
        assert fit.degree <= degree  # never a larger degree than needed
        got = np.zeros(degree + 1)
        got[:fit.coefficients.size] = fit.coefficients
        npt.assert_allclose(got, coeffs, rtol=1e-8, atol=1e-10)

    def test_degree_selection_monotone_in_target(self):
        xs = np.linspace(0.0, np.pi, 129)
        ys = np.cos(2 * xs) * 0.8 + 0.1 * xs
        sample = interpret.EdgeFunctionSample((0, 0, 0), xs, ys)
        degrees = [interpret.fit_poly(sample, 6, tgt).degree
                   for tgt in (0.5, 0.9, 0.99, 0.9999)]
        assert degrees == sorted(degrees)

    def test_degenerate_grid_rejected(self):
        xs = np.full(10, 1.0)
        with pytest.raises(ValueError, match="degenerate"):
            interpret.fit_poly(interpret.EdgeFunctionSample((0, 0, 0), xs, xs))

    def test_too_few_points_rejected(self):
        xs = np.linspace(0.0, np.pi, 4)
        with pytest.raises(ValueError, match="points"):
            interpret.fit_poly(interpret.EdgeFunctionSample((0, 0, 0), xs, xs),
                               max_degree=6)

    def test_negative_max_degree_rejected(self):
        xs = np.linspace(0.0, np.pi, 8)
        with pytest.raises(ValueError, match="max_degree"):
            interpret.fit_poly(interpret.EdgeFunctionSample((0, 0, 0), xs, xs),
                               max_degree=-1)

    @pytest.mark.parametrize("r2_target", [0.5, 0.99, 0.9999, 2.0])
    def test_matches_per_degree_reference_bitwise(self, r2_target):
        rng = np.random.default_rng(4)
        for grid in (9, 65, 257):
            xs = np.linspace(0.0, np.pi, grid)
            ys = np.cos(3 * xs + rng.uniform(0, 6)) * rng.uniform(0.2, 1)
            fit = interpret.fit_poly(
                interpret.EdgeFunctionSample((0, 0, 0), xs, ys), 6, r2_target)
            coeffs, degree, r2 = per_degree_fit_poly(xs, ys, 6, r2_target)
            assert (fit.degree, fit.r_squared) == (degree, r2)
            assert fit.coefficients.tobytes() == coeffs.tobytes()

    def test_r_squared_clamped_at_zero(self):
        # worse-than-mean fit: degree 0 on strongly sloped data is the mean,
        # so force max_degree=0 and check against wild data offsets
        xs = np.linspace(0.0, np.pi, 32)
        ys = np.sin(5 * xs)
        fit = interpret.fit_poly(interpret.EdgeFunctionSample((0, 0, 0), xs, ys),
                                 max_degree=0, r2_target=0.99)
        assert 0.0 <= fit.r_squared <= 1.0


class TestReport:
    def trained_model(self):
        ds = generate("x2-y2", 800, seed=3).split(seed=3)
        spec = spec_from_shape([2, 1], dr_layers=3, seed=1)
        cfg = TrainConfig(learning_rate=0.05, max_steps=600, seed=3,
                          early_stop_patience=600)
        model, _ = train(ds, spec, cfg)
        return model, ds

    def test_report_structure_and_surrogate(self):
        model, ds = self.trained_model()
        rep = interpret.report(model, ds)
        assert len(rep.edges) == 2
        assert all(e.active for e in rep.edges)
        assert rep.model_rmse is not None
        # surrogate error vs the model is bounded by fit quality
        Xte, _ = ds.part("test")
        direct = interpret.surrogate_forward(rep, Xte)
        model_out = network_forward(Xte, model)
        npt.assert_allclose(
            np.sqrt(np.mean((direct - model_out) ** 2)), rep.surrogate_rmse,
            rtol=1e-12)

    def test_theta_zero_reports_cosine_fits(self):
        m = theta_zero_model([2, 1])
        rng = np.random.default_rng(0)

        class Plain:
            X = rng.uniform(0, 1, (40, 2))
            y = None
            splits = None

        rep = interpret.report(m, Plain())
        for e in rep.edges:
            assert e.fit.degree <= 4
            assert e.fit.r_squared >= 0.99

    def test_summary_mentions_every_input(self):
        model, ds = self.trained_model()
        rep = interpret.report(model, ds)
        text = rep.summary()
        assert "x1" in text and "x2" in text
        assert "t = 2*x/pi - 1" in text

    def test_report_file_round_trip(self, tmp_path):
        model, ds = self.trained_model()
        rep = interpret.report(model, ds)
        p = tmp_path / "report.txt"
        interpret.save_report(rep, p)
        rep2 = interpret.load_report(p)
        Xte, _ = ds.part("test")
        npt.assert_array_equal(interpret.surrogate_forward(rep, Xte),
                               interpret.surrogate_forward(rep2, Xte))
        assert rep2.surrogate_rmse == rep.surrogate_rmse
        assert rep2.model_rmse == rep.model_rmse

    def test_load_rejects_corrupt_files(self, tmp_path):
        model, ds = self.trained_model()
        rep = interpret.report(model, ds)
        p = tmp_path / "report.txt"
        interpret.save_report(rep, p)
        lines = p.read_text().splitlines()

        bad_version = tmp_path / "v.txt"
        bad_version.write_text(lines[0].replace("v1", "v9") + "\n" +
                               "\n".join(lines[1:]) + "\n")
        with pytest.raises(interpret.ReportFormatError, match="version"):
            interpret.load_report(bad_version)

        truncated = tmp_path / "t.txt"
        truncated.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(interpret.ReportFormatError, match="end"):
            interpret.load_report(truncated)

        mangled = tmp_path / "m.txt"
        out = [ln if not ln.startswith("edge") else ln + " 0.5"
               for ln in lines]
        mangled.write_text("\n".join(out) + "\n")
        with pytest.raises(interpret.ReportFormatError):
            interpret.load_report(mangled)

    def saved_dense_head_report(self, tmp_path):
        m = init_model(spec_from_shape([2, 2, 1], dr_layers=3, dense_head=True,
                                       seed=0))
        m.input_norm = np.array([[0.0, 1.0], [0.0, 1.0]])
        m.edge_active[0][1, 0] = False

        class Plain:
            X = np.random.default_rng(2).uniform(0, 1, (30, 2))
            y = None
            splits = None

        p = tmp_path / "report.txt"
        interpret.save_report(interpret.report(m, Plain()), p)
        return p

    def test_mutated_file_loads_or_raises_format_error(self, tmp_path):
        p = self.saved_dense_head_report(tmp_path)

        def load_consistent(path):
            # a file that loads must still fit its own shape
            rep = interpret.load_report(path)
            shape = rep.shape
            assert len(rep.input_norm) == shape[0]
            assert [len(d) for d in rep.divisors] == list(shape[1:])
            assert [e.edge_id for e in rep.edges] == [
                (k, i, u) for k in range(len(shape) - 1)
                for i in range(shape[k]) for u in range(shape[k + 1])]

        assert escapes(p, load_consistent, interpret.ReportFormatError,
                       prefix=re.escape(str(p)) + r":\d+: ") == []

    @pytest.mark.parametrize("old,new,match", [
        ("divisors 1 ", None, "divisors record 1"),
        ("divisors 0 1.0 2.0", "divisors 0 2.0 2.0", "do not match the live edges"),
        ("divisors 0 1.0 2.0", "divisors 0 1.0", "do not match the live edges"),
        ("edge 1 1 0 ", None, r"edge record \(1, 1, 0\)"),
        ("edge 0 0 1 ", None, r"edge record \(0, 0, 1\)"),
        ("edge 0 0 0 ", "edge 7 0 0 ", r"\(7, 0, 0\) does not fit"),
        ("edge 0 1 1 ", "edge 0 1 1 ", "duplicate record"),
        ("shape 2 2 1", "shape 3 2 1", "input record 2"),
        ("settings grid 257 max_degree 6", "settings grid 257 max_degree -3",
         "max_degree -3 break"),
        ("settings grid 257 ", "settings grid 0 ", "grid 0 and"),
        ("settings grid 257 max_degree 6", "settings grid 1 max_degree 0",
         "grid 1 and"),
        ("settings grid 257 ", "settings grid 6 ", "grid 6 and"),
        ("settings grid 257 max_degree 6", "settings grid 257 max_degree 1",
         "degree [2-6] exceeds max_degree 1"),
    ])
    def test_record_not_fitting_shape_rejected(self, tmp_path, old, new, match):
        p = self.saved_dense_head_report(tmp_path)
        lines = []
        for line in p.read_text().splitlines():
            if line.startswith(old):
                if new == old:  # duplicate the row
                    lines.append(line)
                if new is not None:
                    lines.append(new + line[len(old):])
            else:
                lines.append(line)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(interpret.ReportFormatError,
                           match=r"report\.txt:\d+: .*" + match):
            interpret.load_report(p)

    @pytest.mark.parametrize("record", ["quirk-interpret", "shape", "settings",
                                        "bias_flag", "input 1", "divisors 0",
                                        "dense", "surrogate_rmse", "end"])
    def test_duplicate_or_trailing_record_names_its_line(self, tmp_path, record):
        p = self.saved_dense_head_report(tmp_path)
        lines = p.read_text().splitlines()
        at = next(n for n, ln in enumerate(lines) if ln.split()[0] == record
                  or ln.startswith(record + " "))
        lines.insert(at + 1, lines[at])
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(interpret.ReportFormatError,
                           match=rf"report\.txt:{at + 2}: "):
            interpret.load_report(p)

    def test_blank_lines_and_comments_skipped(self, tmp_path):
        p = self.saved_dense_head_report(tmp_path)
        want = interpret.load_report(p)
        lines = p.read_text().splitlines()
        p.write_text("# a report\n\n" + "\n  # note\n".join(lines) + "\n")
        got = interpret.load_report(p)
        assert (got.shape, got.divisors, got.dense, got.surrogate_rmse) == (
            want.shape, want.divisors, want.dense, want.surrogate_rmse)
        for a, b in zip(got.edges, want.edges):
            assert a.edge_id == b.edge_id and a.active == b.active
            if a.active:
                npt.assert_array_equal(a.fit.coefficients, b.fit.coefficients)

    def test_record_after_end_rejected(self, tmp_path):
        p = self.saved_dense_head_report(tmp_path)
        n = len(p.read_text().splitlines())
        p.write_text(p.read_text() + "model_rmse 0.5\n")
        with pytest.raises(interpret.ReportFormatError,
                           match=rf"report\.txt:{n + 1}: record after 'end'"):
            interpret.load_report(p)

    @pytest.mark.parametrize("record,index,value", [
        ("settings", 6, "nan"),
        ("input", 3, "inf"),
        ("divisors", 2, "nan"),
        ("edge 0 0 0", 8, "nan"),
        ("edge 0 0 0", 10, "nan"),
        ("dense", 2, "-inf"),
        ("surrogate_rmse", 1, "nan"),
        ("model_rmse", 1, "inf"),
    ])
    def test_non_finite_number_rejected(self, tmp_path, record, index, value):
        p = self.saved_dense_head_report(tmp_path)
        lines = p.read_text().splitlines()
        if record == "model_rmse":  # written only when the report had targets
            lines.insert(-1, "model_rmse 0.5")
        no = next(n for n, ln in enumerate(lines) if ln.startswith(record + " "))
        tok = lines[no].split()
        tok[index] = value
        lines[no] = " ".join(tok)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(interpret.ReportFormatError,
                           match=rf"report\.txt:{no + 1}: .*non-finite"):
            interpret.load_report(p)

    def test_coeffs_csv_shape(self, tmp_path):
        model, ds = self.trained_model()
        rep = interpret.report(model, ds)
        p = tmp_path / "coeffs.csv"
        interpret.save_coeffs_csv(rep, p)
        rows = p.read_text().splitlines()
        assert rows[0].split(",")[:6] == ["layer", "input", "unit", "active",
                                          "degree", "r_squared"]
        assert len(rows) == 1 + len(rep.edges)

    def test_pruned_edges_skip_fit(self):
        spec = spec_from_shape([2, 2, 1], dr_layers=2, seed=2)
        m = init_model(spec)
        m.input_norm = np.array([[0.0, 1.0], [0.0, 1.0]])
        m.edge_active[0][1, 1] = False

        class Plain:
            X = np.random.default_rng(1).uniform(0, 1, (30, 2))
            y = None
            splits = None

        rep = interpret.report(m, Plain())
        e = rep.edge(0, 1, 1)
        assert not e.active and e.fit is None
        # surrogate must also skip it
        assert interpret.surrogate_forward(rep, Plain.X).shape == (30,)

    def test_surrogate_rejects_non_finite_features(self):
        m = theta_zero_model([2, 1])
        rep = interpret.report(m, plain_dataset(2))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="features must be finite"):
                interpret.surrogate_forward(rep, [[bad, 2.0]])
            with pytest.raises(ValueError, match="features must be finite"):
                network_forward([[bad, 2.0]], m)

    @pytest.mark.parametrize("index", range(3))
    def test_report_matches_circuit_readout(self, index):
        # the per-edge circuit samples are the reference the series must match
        m = readout_models()[index]
        ds = plain_dataset(m.spec.input_dim)
        rep = interpret.report(m, ds)
        edges = []
        for e in rep.edges:
            assert e.active == bool(m.edge_active[e.edge_id[0]][e.edge_id[1:]])
            if not e.active:
                edges.append(e)
                continue
            ref = interpret.fit_poly(interpret.sample_edge(m, e.edge_id))
            assert e.fit.degree == ref.degree
            npt.assert_allclose(e.fit.r_squared, ref.r_squared, rtol=0, atol=1e-12)
            npt.assert_allclose(e.fit.coefficients, ref.coefficients, rtol=0, atol=1e-9)
            edges.append(interpret.EdgeReport(e.edge_id, True, ref))
        ref_rep = dataclasses.replace(rep, edges=edges)
        ref_rmse = np.sqrt(np.mean((interpret.surrogate_forward(ref_rep, ds.X)
                                    - network_forward(ds.X, m)) ** 2))
        npt.assert_allclose(rep.surrogate_rmse, ref_rmse, rtol=1e-12)

    def test_report_does_not_simulate_circuits(self, monkeypatch):
        m = readout_models()[0]
        ds = plain_dataset(m.spec.input_dim)
        want = interpret.report(m, ds)

        def no_circuit(*args, **kwargs):
            raise AssertionError("report() simulated a circuit")

        monkeypatch.setattr(interpret, "dr_forward_batch", no_circuit)
        monkeypatch.setattr(Model, "edge_params", no_circuit)
        got = interpret.report(m, ds)
        assert got.surrogate_rmse == want.surrogate_rmse
        for a, b in zip(got.edges, want.edges):
            assert (a.edge_id, a.active) == (b.edge_id, b.active)
            if a.active:
                npt.assert_array_equal(a.fit.coefficients, b.fit.coefficients)
                assert (a.fit.degree, a.fit.r_squared) == (b.fit.degree, b.fit.r_squared)

    def test_report_checks_settings_before_fitting(self, monkeypatch):
        m = readout_models()[2]

        def no_fit(*args, **kwargs):
            raise AssertionError("report() fitted with settings it must reject")

        monkeypatch.setattr(interpret, "fit_poly", no_fit)
        with pytest.raises(ValueError, match="grid 5 and max_degree 6"):
            interpret.report(m, plain_dataset(m.spec.input_dim), grid_size=5,
                             max_degree=6)

    def test_report_grid_size_below_two_rejected(self):
        m = readout_models()[2]
        with pytest.raises(ValueError, match="grid_size"):
            interpret.report(m, plain_dataset(m.spec.input_dim), grid_size=1)
