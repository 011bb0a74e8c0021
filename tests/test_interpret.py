import dataclasses
import os
import re
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quirk import dr, interpret
from quirk.data import generate
from quirk.dr import SU2_TEMPLATE, DRParams, GateTemplate, dr_forward_batch
from quirk.network import (apply_input_norm, edge_samples, fit_input_norm,
                           init_model, network_forward, rescale, spec_from_shape)
from quirk.train import TrainConfig, train

from mutations import escapes, insertions


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


def circuit_samples(model, edge_id, xs):
    """One edge's circuit simulated alone at grid ``xs``: the statevector
    reference for the compiled series that reports and plots read."""
    k, i, u = edge_id
    layer = model.spec.layers[k]
    return dr_forward_batch(xs, DRParams(model.thetas[k][:, i, u],
                                         num_qubits=layer.qubits_per_edge,
                                         entangle=layer.entangle,
                                         template=model.spec.template))


def plain_dataset(dim, seed=0):
    class Plain:
        X = np.random.default_rng(seed).uniform(0, 1, (60, dim))
        y = None
        splits = None
    return Plain()


class TestSampleEdge:
    """Edges sampled on a grid by ``network.edge_samples``, the one edge
    evaluator behind reports and plots."""

    def test_theta_zero_is_cosine(self):
        m = theta_zero_model([2, 1])
        xs = np.linspace(0.0, np.pi, 33)
        ys = edge_samples(m, xs)
        assert ys.shape == (2, 33)
        npt.assert_allclose(ys, np.cos(xs)[None].repeat(2, axis=0), atol=1e-14)

    def test_grid_two_hits_endpoints(self):
        m = theta_zero_model([1, 1])
        npt.assert_allclose(edge_samples(m, [0.0, np.pi]), [[1.0, -1.0]], atol=1e-14)

    def test_grid_sorted_and_range_invariant(self):
        spec = spec_from_shape([2, 2, 1], dr_layers=3, seed=5)
        m = init_model(spec)
        m.input_norm = np.array([[0.0, 1.0], [0.0, 1.0]])
        xs = np.linspace(0.0, np.pi, interpret.DEFAULT_GRID_SIZE)
        ys = edge_samples(m, xs)
        # one row per edge of both layers
        assert ys.shape == (6, xs.size)
        assert np.all(np.abs(ys) <= 1.0 + 1e-12)


class TestFitPoly:
    def test_exact_quadratic(self):
        xs = np.linspace(0.0, np.pi, 41)
        t = 2 * xs / np.pi - 1
        ys = 0.5 * t**2 - 0.3 * t + 0.1
        fit = interpret.fit_poly(xs, ys)
        assert fit.degree == 2
        assert fit.r_squared >= 1 - 1e-10
        npt.assert_allclose(fit.coefficients, [0.1, -0.3, 0.5], rtol=1e-8)

    def test_constant_selects_degree_zero(self):
        xs = np.linspace(0.0, np.pi, 20)
        # a constant's R^2 is exactly 1, so even a target of 1 is reached
        for r2_target in (interpret.DEFAULT_R2_TARGET, 1.0):
            fit = interpret.fit_poly(xs, np.full(20, 0.7), r2_target=r2_target)
            assert fit.degree == 0
            npt.assert_allclose(fit.coefficients, [0.7], rtol=1e-12)

    def test_cosine_degree_four_quality(self):
        # oracle: direct least-squares residual of the degree-4 fit
        xs = np.linspace(0.0, np.pi, 257)
        ys = np.cos(xs)
        _, resid = lstsq_poly_oracle(xs, ys, 4)
        r2_oracle = 1.0 - resid / np.sum((ys - ys.mean()) ** 2)
        assert r2_oracle >= 0.999
        fit = interpret.fit_poly(xs, ys, max_degree=4, r2_target=0.9999999)
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
        fit = interpret.fit_poly(xs, ys, max_degree=6, r2_target=1 - 1e-12)
        assert fit.degree <= degree  # never a larger degree than needed
        got = np.zeros(degree + 1)
        got[:fit.coefficients.size] = fit.coefficients
        npt.assert_allclose(got, coeffs, rtol=1e-8, atol=1e-10)

    def test_degree_selection_monotone_in_target(self):
        xs = np.linspace(0.0, np.pi, 129)
        ys = np.cos(2 * xs) * 0.8 + 0.1 * xs
        degrees = [interpret.fit_poly(xs, ys, 6, tgt).degree
                   for tgt in (0.5, 0.9, 0.99, 0.9999)]
        assert degrees == sorted(degrees)

    def test_degenerate_grid_rejected(self):
        xs = np.full(10, 1.0)
        with pytest.raises(ValueError, match="degenerate"):
            interpret.fit_poly(xs, xs)

    def test_too_few_points_rejected(self):
        xs = np.linspace(0.0, np.pi, 4)
        with pytest.raises(ValueError, match="points"):
            interpret.fit_poly(xs, xs, max_degree=6)

    def test_negative_max_degree_rejected(self):
        xs = np.linspace(0.0, np.pi, 8)
        with pytest.raises(ValueError, match="max_degree"):
            interpret.fit_poly(xs, xs, max_degree=-1)

    @pytest.mark.parametrize("r2_target", [0.5, 0.99, 0.9999, 2.0])
    def test_matches_per_degree_reference_bitwise(self, r2_target):
        rng = np.random.default_rng(4)
        for grid in (9, 65, 257):
            xs = np.linspace(0.0, np.pi, grid)
            ys = np.cos(3 * xs + rng.uniform(0, 6)) * rng.uniform(0.2, 1)
            fit = interpret.fit_poly(xs, ys, 6, r2_target)
            coeffs, degree, r2 = per_degree_fit_poly(xs, ys, 6, r2_target)
            assert (fit.degree, fit.r_squared) == (degree, r2)
            assert fit.coefficients.tobytes() == coeffs.tobytes()

    def test_zero_samples_keep_every_coefficient(self, tmp_path):
        # numpy's cheb2poly trims trailing zeros, which left degree 6 with
        # one coefficient: a fit the report reader rejects
        xs = np.linspace(0.0, np.pi, 33)
        fit = interpret.fit_poly(xs, np.zeros(33), max_degree=6, r2_target=2.0)
        assert fit.degree == 6
        assert fit.coefficients.shape == (7,)
        npt.assert_array_equal(fit.coefficients, 0.0)
        rep = interpret.InterpretReport(
            shape=(1, 1), input_norm=np.array([[0.0, 1.0]]),
            edges=[interpret.EdgeReport((0, 0, 0), True, fit)], divisors=[[1.0]],
            bias_flag=0, dense=None, surrogate_rmse=0.0, model_rmse=None,
            r2_target=2.0)
        p = tmp_path / "report.txt"
        interpret.save_report(rep, p)
        got = interpret.load_report(p).edge(0, 0, 0).fit
        assert got.degree == 6
        assert got.coefficients.tobytes() == fit.coefficients.tobytes()

    def test_column_recurrence_matches_cheb2poly_bitwise(self):
        rng = np.random.default_rng(7)
        for n in range(1, 8):
            for c in (rng.normal(size=(n, 100)) * 10.0 ** rng.integers(-3, 4, 100),
                      rng.integers(-3, 4, (n, 100)).astype(float)):
                c[-1] = np.where(c[-1] == 0.0, 1.5, c[-1])  # top coefficient != 0
                got = interpret._cheb2poly(c)
                assert got.shape == c.shape
                for j in range(c.shape[1]):
                    want = np.polynomial.chebyshev.cheb2poly(c[:, j])
                    assert got[:, j].tobytes() == want.tobytes()

    def test_r_squared_rows_follow_scalar_rules(self):
        def scalar(ys, residual_ss):
            scale = max(float(np.sum(ys**2)), 1.0)
            if residual_ss <= 1e-24 * scale:
                return 1.0
            total_ss = float(np.sum((ys - ys.mean()) ** 2))
            if total_ss == 0.0:
                return 0.0
            return max(0.0, 1.0 - residual_ss / total_ss)

        rng = np.random.default_rng(3)
        ramp = np.linspace(-1.0, 1.0, 9)
        cases = [(np.full(9, 0.7), 1e-30), (np.full(9, 0.7), 0.5),
                 # scale 33.75: 1e-23 is under 1e-24 * scale, 9e-23 is not
                 (3.0 * ramp, 1e-23), (3.0 * ramp, 9e-23),
                 (1e-12 * ramp, 1e-22), (ramp, 100.0), (ramp, np.nan),
                 (ramp, 0.25)] + [(rng.normal(size=9), rng.uniform(0, 5))
                                  for _ in range(20)]
        ys = np.array([c[0] for c in cases])
        res = np.array([c[1] for c in cases])
        got = interpret._r_squared(ys, res)
        want = [scalar(y, r) for y, r in cases]
        assert got.tobytes() == np.array(want).tobytes()

    def test_r_squared_clamped_at_zero(self):
        # worse-than-mean fit: degree 0 on strongly sloped data is the mean,
        # so force max_degree=0 and check against wild data offsets
        xs = np.linspace(0.0, np.pi, 32)
        ys = np.sin(5 * xs)
        fit = interpret.fit_poly(xs, ys, max_degree=0, r2_target=0.99)
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
        # between layers the summary states rescale's clamp and clip
        deep = init_model(spec_from_shape([2, 2, 1], dr_layers=1, seed=1))
        deep.input_norm = fit_input_norm(ds.part("train")[0])
        text = interpret.report(deep, ds).summary()
        assert "then v clamped to [-divisor, divisor], x = pi*((v/divisor) + 1)/2 " \
               "clipped to [0, pi], per unit" in text

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
        again = tmp_path / "again.txt"
        interpret.save_report(rep2, again)
        assert again.read_bytes() == p.read_bytes()

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

    def saved_dense_head_report(self, tmp_path, dense_head=True):
        m = init_model(spec_from_shape([2, 2, 1], dr_layers=3, dense_head=dense_head,
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

    @pytest.mark.parametrize("dense_head", [True, False])
    def test_file_round_trip_is_byte_exact(self, tmp_path, dense_head):
        # a pruned edge, no model_rmse, and 'dense w .. b ..' or 'dense none'
        p = self.saved_dense_head_report(tmp_path, dense_head)
        text = p.read_text()
        assert "pruned" in text and "model_rmse" not in text
        assert ("dense none" in text) != dense_head
        again = tmp_path / "again.txt"
        interpret.save_report(interpret.load_report(p), again)
        assert again.read_text() == text

    def test_inserted_token_never_loads(self, tmp_path):
        p = self.saved_dense_head_report(tmp_path)
        assert escapes(p, interpret.load_report, interpret.ReportFormatError,
                       prefix=re.escape(str(p)) + r":\d+: ", cases=insertions,
                       must_fail=True) == []

    @pytest.mark.parametrize("record,keyword,junk", [
        ("input 0 ", "min", "foo"),
        ("settings ", "max_degree", "foo"),
        ("dense w ", "b", "q"),
        ("edge 0 0 0 active ", "r2", "rr"),
    ])
    def test_wrong_keyword_names_its_line(self, tmp_path, record, keyword, junk):
        p = self.saved_dense_head_report(tmp_path)
        lines = p.read_text().splitlines()
        at = next(n for n, ln in enumerate(lines) if ln.startswith(record))
        lines[at] = " ".join(junk if t == keyword else t for t in lines[at].split())
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(interpret.ReportFormatError,
                           match=rf"report\.txt:{at + 1}: .*expected '{keyword}', "
                                 rf"got '{junk}'"):
            interpret.load_report(p)

    def test_shape_costs_only_the_file(self, tmp_path):
        # a shape calling for far more records than the file holds fails at a
        # line without sizing anything by the shape
        m = init_model(spec_from_shape([2, 1], dr_layers=1, seed=0))
        m.input_norm = np.array([[0.0, 1.0], [0.0, 1.0]])

        class Plain:
            X = np.random.default_rng(2).uniform(0, 1, (10, 2))
            y = None
            splits = None

        p = tmp_path / "report.txt"
        interpret.save_report(interpret.report(m, Plain()), p)
        p.write_text(p.read_text().replace("shape 2 1\n", "shape 2 1000 1000 1\n"))
        tracemalloc.start()
        try:
            with pytest.raises(interpret.ReportFormatError, match=r"report\.txt:\d+: "):
                interpret.load_report(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

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

    def test_coeffs_csv_sized_by_fitted_degrees(self, tmp_path):
        # a loaded report's max_degree is a bound, not a width: the table
        # pads only up to the largest degree actually fitted
        m = init_model(spec_from_shape([2, 1], dr_layers=1, seed=0))
        m.input_norm = np.array([[0.0, 1.0], [0.0, 1.0]])
        rep = interpret.report(m, plain_dataset(2))
        p = tmp_path / "report.txt"
        interpret.save_report(rep, p)
        text = p.read_text()
        settings = f"settings grid {rep.grid_size} max_degree {rep.max_degree} "
        assert settings in text
        p.write_text(text.replace(settings, "settings grid 2000001 max_degree 2000000 "))
        loaded = interpret.load_report(p)
        out = tmp_path / "coeffs.csv"
        tracemalloc.start()
        try:
            interpret.save_coeffs_csv(loaded, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        header = out.read_text().splitlines()[0].split(",")
        width = max(e.fit.degree for e in rep.edges) + 1
        assert header[6:] == [f"c{d}" for d in range(width)]

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

    def test_report_rejects_non_finite_angles(self):
        m = theta_zero_model([2, 2, 1], dr_layers=2)
        for bad in (np.nan, np.inf, -np.inf):
            m.thetas[1][0, 1, 0, 1] = bad
            with pytest.raises(ValueError, match="layer 1: all angles must be finite"):
                interpret.report(m, plain_dataset(2))

    def test_surrogate_rejects_non_finite_features(self):
        m = theta_zero_model([2, 1])
        rep = interpret.report(m, plain_dataset(2))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="features must be finite"):
                interpret.surrogate_forward(rep, [[bad, 2.0]])
            with pytest.raises(ValueError, match="features must be finite"):
                network_forward([[bad, 2.0]], m)

    def test_surrogate_clamps_overshoot_silently(self):
        # fitted polynomials may overshoot +-fan_in; the surrogate runs them
        # through the same clamped map as the network, without a warning
        def fit(*coefficients):
            return interpret.PolyFit(np.array(coefficients), len(coefficients) - 1, 1.0)

        edges = [interpret.EdgeReport((0, 0, 0), True, fit(3.0)),
                 interpret.EdgeReport((0, 0, 1), True, fit(0.0, -2.5)),
                 interpret.EdgeReport((1, 0, 0), True, fit(0.0, 1.0)),
                 interpret.EdgeReport((1, 1, 0), True, fit(0.0, 1.0))]
        rep = interpret.InterpretReport(
            shape=(1, 2, 1), input_norm=np.array([[0.0, 1.0]]), edges=edges,
            divisors=[[1.0, 1.0], [2.0]], bias_flag=0, dense=None,
            surrogate_rmse=0.0, model_rmse=None)
        x = np.linspace(-0.5, 1.5, 41)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = interpret.surrogate_forward(rep, x[:, None])
        # layer 1 reads t = 2h/pi - 1 = v clamped to +-1 back from each unit
        t = 2.0 * np.clip(x, 0.0, 1.0) - 1.0
        npt.assert_allclose(out, 1.0 + np.clip(-2.5 * t, -1.0, 1.0), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("index", range(3))
    def test_report_matches_circuit_readout(self, index):
        # the per-edge circuit samples are the reference the series must match
        m = readout_models()[index]
        ds = plain_dataset(m.spec.input_dim)
        rep = interpret.report(m, ds)
        xs = np.linspace(0.0, np.pi, interpret.DEFAULT_GRID_SIZE)
        edges = []
        for e in rep.edges:
            assert e.active == bool(m.edge_active[e.edge_id[0]][e.edge_id[1:]])
            if not e.active:
                edges.append(e)
                continue
            ref = interpret.fit_poly(xs, circuit_samples(m, e.edge_id, xs))
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
        monkeypatch.setattr(dr, "_forward", no_circuit)
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
        monkeypatch.setattr(interpret, "_fit_polys", no_fit)
        with pytest.raises(ValueError, match="grid 5 and max_degree 6"):
            interpret.report(m, plain_dataset(m.spec.input_dim), grid_size=5,
                             max_degree=6)

    def test_report_solves_once_per_degree(self, monkeypatch):
        m = init_model(spec_from_shape([6, 8, 4, 1], dr_layers=5, seed=2))
        m.input_norm = np.stack([np.zeros(6), np.ones(6)], axis=1)
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda *a, **kw: calls.append(1) or solve(*a, **kw))
        rep = interpret.report(m, plain_dataset(6))
        assert sum(e.active for e in rep.edges) == 84
        assert 1 <= len(calls) <= interpret.DEFAULT_MAX_DEGREE + 1

    def test_report_grid_size_below_two_rejected(self):
        m = readout_models()[2]
        with pytest.raises(ValueError, match="grid_size"):
            interpret.report(m, plain_dataset(m.spec.input_dim), grid_size=1)


@st.composite
def _pruned_models(draw):
    widths = ([draw(st.integers(1, 8)) for _ in range(draw(st.integers(1, 3)))]
              + [1])
    n = draw(st.integers(1, 2))
    spec = spec_from_shape(widths, dr_layers=draw(st.integers(1, 2)),
                           dense_head=draw(st.booleans()),
                           seed=draw(st.integers(0, 2**16)),
                           qubits_per_edge=n, entangle=n > 1 and draw(st.booleans()))
    m = init_model(spec)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    keep = draw(st.sampled_from([1.0, 0.7, 0.3]))
    m.edge_active = [rng.uniform(size=a.shape) < keep for a in m.edge_active]
    m.dense_w, m.dense_b = rng.normal(size=2)
    m.input_norm = np.stack([np.zeros(spec.input_dim), np.ones(spec.input_dim)],
                            axis=1)
    return m


@settings(derandomize=True, max_examples=25, deadline=None)
@given(m=_pruned_models())
def test_batched_fits_match_per_edge_fits(m):
    # report() fits every live edge in one batch; each must be the fit
    # fit_poly gives its samples alone, up to the rounding of BLAS products
    # over many columns instead of one
    seen = []
    fit_polys = interpret._fit_polys

    def spy(xs, ys, *args):
        seen.append((xs, ys))
        return fit_polys(xs, ys, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interpret, "_fit_polys", spy)
        rep = interpret.report(m, plain_dataset(m.spec.input_dim))
    (xs, ys), = seen
    live = [e for e in rep.edges if e.active]
    assert len(live) == len(ys) == sum(int(a.sum()) for a in m.edge_active)
    for e, row in zip(live, ys):
        # each row holds its own edge's samples
        npt.assert_allclose(row, circuit_samples(m, e.edge_id, xs), rtol=0, atol=1e-12)
        ref = interpret.fit_poly(xs, row)
        assert e.fit.degree == ref.degree
        assert e.fit.coefficients.shape == (ref.degree + 1,)
        npt.assert_allclose(e.fit.r_squared, ref.r_squared, rtol=0, atol=1e-15)
        npt.assert_allclose(e.fit.coefficients, ref.coefficients, rtol=0, atol=1e-12)


def per_edge_surrogate(rep, X):
    """The polynomial surrogate one edge at a time, one polyval per live
    edge, summed over the inputs in order: the reference for the per-layer
    evaluation."""
    h = apply_input_norm(rep.input_norm, X)
    fits = {e.edge_id: e.fit for e in rep.edges if e.active}
    for k, div in enumerate(rep.divisors):
        t = 2.0 * h / np.pi - 1.0
        v = np.zeros((len(X), len(div)))
        for u in range(len(div)):
            for i in range(h.shape[1]):
                if (k, i, u) in fits:
                    v[:, u] += fits[(k, i, u)](t[:, i])
        if k < len(rep.divisors) - 1:
            h = rescale(v, np.asarray(div), b=rep.bias_flag)
    return v[:, 0] if rep.dense is None else rep.dense[0] * v[:, 0] + rep.dense[1]


@st.composite
def _pruned_reports(draw):
    shape = ([draw(st.integers(1, 6)) for _ in range(draw(st.integers(1, 3)))]
             + [1])
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    keep = draw(st.sampled_from([1.0, 0.7, 0.3]))
    edges, divisors = [], []
    for k in range(len(shape) - 1):
        active = rng.uniform(size=(shape[k], shape[k + 1])) < keep
        divisors.append(np.maximum(active.sum(axis=0), 1.0).tolist())
        for (i, u), live in np.ndenumerate(active):
            degree = int(rng.integers(0, 7))
            # coefficients large enough that sums overshoot the clamp
            fit = interpret.PolyFit(rng.normal(scale=0.7, size=degree + 1), degree,
                                    1.0) if live else None
            edges.append(interpret.EdgeReport((k, i, u), bool(live), fit))
    lo = rng.normal(size=shape[0])
    return interpret.InterpretReport(
        shape=tuple(shape), input_norm=np.stack([lo, lo + rng.uniform(0.5, 2.0, shape[0])],
                                                axis=1),
        edges=edges, divisors=divisors, bias_flag=draw(st.integers(0, 1)),
        dense=tuple(rng.normal(size=2)) if draw(st.booleans()) else None,
        surrogate_rmse=0.0, model_rmse=None), rng


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=_pruned_reports())
def test_surrogate_matches_per_edge_polyval_bitwise(case):
    # mixed degrees, pruned edges, dense heads and both bias flags; inputs
    # reach outside the normaliser's window
    rep, rng = case
    X = rng.uniform(-3.0, 3.0, (50, rep.shape[0]))
    assert (interpret.surrogate_forward(rep, X).tobytes()
            == per_edge_surrogate(rep, X).tobytes())
