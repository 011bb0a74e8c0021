import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quirk import network
from quirk.data import Dataset
from quirk.interpret import DEFAULT_GRID_SIZE
from quirk.train import edge_scores
from quirk.dr import DEFAULT_TEMPLATE, SU2_TEMPLATE, GateTemplate, _forward, _grad, _series
from quirk.network import (LayerSpec, ModelFormatError,
                           ModelVersionError, NetworkSpec, fit_input_norm,
                           apply_input_norm, init_model, load_model,
                           network_backward, network_forward, param_count,
                           rescale, save_model, spec_from_shape)

from mutations import escapes, insertions
from oracles import central_diff, naive_dr_forward, shift_rule_dx


def small_model(shape=(2, 2, 1), dr_layers=2, seed=0, dense=False, **kw):
    spec = spec_from_shape(list(shape), dr_layers=dr_layers, dense_head=dense,
                           seed=seed, **kw)
    m = init_model(spec)
    m.input_norm = np.stack([np.zeros(spec.input_dim),
                             np.ones(spec.input_dim)], axis=1)
    return m


class TestSpecs:
    def test_shape_chain_enforced(self):
        bad = (LayerSpec(fan_in=2, units=3, dr_layers=1),
               LayerSpec(fan_in=2, units=1, dr_layers=1))  # 3 != 2
        with pytest.raises(ValueError, match="fan_in"):
            NetworkSpec(input_dim=2, layers=bad)

    def test_final_layer_single_unit(self):
        with pytest.raises(ValueError, match="final"):
            spec_from_shape([2, 2], dr_layers=1)

    def test_bias_flag_binary(self):
        with pytest.raises(ValueError, match="bias_flag"):
            spec_from_shape([2, 1], dr_layers=1, bias_flag=2)

    def test_dr_layers_per_layer(self):
        spec = spec_from_shape([3, 2, 1], dr_layers=[2, 4])
        assert [l.dr_layers for l in spec.layers] == [2, 4]
        with pytest.raises(ValueError, match="dr_layers"):
            spec_from_shape([3, 2, 1], dr_layers=[2, 4, 1])


class TestParamCount:
    def test_published_configuration(self):
        # [2,2,1] with 3 re-uploading layers on every edge: 6 edges x 3 x 2
        m = small_model((2, 2, 1), dr_layers=3)
        assert param_count(m) == 36

    def test_dense_head_adds_exactly_two(self):
        plain = small_model((2, 1), dr_layers=4)
        dense = small_model((2, 1), dr_layers=4, dense=True)
        assert param_count(dense) - param_count(plain) == 2

    def test_pruned_edges_not_counted(self):
        m = small_model((2, 2, 1), dr_layers=3)
        m.edge_active[0][0, 1] = False
        assert param_count(m) == 36 - 6  # one edge of 3 layers x 2 params

    def test_multiqubit_edges_scale(self):
        m = small_model((2, 1), dr_layers=2, qubits_per_edge=2, entangle=True)
        assert param_count(m) == 2 * 2 * 2 * 2  # edges x L x P x qubits


class TestInitModel:
    def test_seeded_and_deterministic(self):
        a = init_model(spec_from_shape([2, 2, 1], dr_layers=2, seed=7))
        b = init_model(spec_from_shape([2, 2, 1], dr_layers=2, seed=7))
        for ta, tb in zip(a.thetas, b.thetas):
            npt.assert_array_equal(ta, tb)

    def test_different_seeds_differ(self):
        a = init_model(spec_from_shape([2, 1], dr_layers=2, seed=0))
        b = init_model(spec_from_shape([2, 1], dr_layers=2, seed=1))
        assert not np.array_equal(a.thetas[0], b.thetas[0])

    def test_angles_within_pi(self):
        m = init_model(spec_from_shape([3, 3, 1], dr_layers=4, seed=3))
        for th in m.thetas:
            assert np.all(np.abs(th) <= np.pi)

    def test_all_edges_start_active(self):
        m = init_model(spec_from_shape([3, 2, 1], dr_layers=1, seed=0))
        assert all(a.all() for a in m.edge_active)

    def test_norm_starts_unfitted(self):
        m = init_model(spec_from_shape([2, 1], dr_layers=1))
        assert m.input_norm is None


class TestInputNorm:
    def test_fit_maps_train_extremes_to_domain(self):
        X = np.array([[0.0, -3.0], [10.0, 5.0], [4.0, 1.0]])
        norm = fit_input_norm(X)
        mapped = apply_input_norm(norm, X)
        npt.assert_allclose(mapped.min(axis=0), 0.0, atol=1e-15)
        npt.assert_allclose(mapped.max(axis=0), np.pi, atol=1e-14)

    def test_inference_clamps_outside_range(self):
        norm = fit_input_norm(np.array([[0.0], [1.0]]))
        out = apply_input_norm(norm, np.array([[-5.0], [9.0]]))
        npt.assert_array_equal(out[:, 0], [0.0, np.pi])

    def test_degenerate_feature_widened(self):
        X = np.array([[2.0, 1.0], [2.0, 3.0]])
        norm = fit_input_norm(X)
        assert norm[0, 1] > norm[0, 0]  # constant column still has min < max
        out = apply_input_norm(norm, X)
        assert np.all(np.isfinite(out))

    def test_clamp_equals_clip_bitwise(self):
        rng = np.random.default_rng(0)
        norm = np.array([[0.0, 1.0], [-2.0, 5.0]])
        X = rng.uniform(-3.0, 6.0, (4000, 2))
        X[:3] = [[-0.0, -2.0], [0.0, 5.0], [1e300, -1e300]]
        want = np.clip((X - norm[:, 0]) / (norm[:, 1] - norm[:, 0]) * np.pi, 0.0, np.pi)
        assert apply_input_norm(norm, X).tobytes() == want.tobytes()


class TestRescale:
    def test_endpoints(self):
        npt.assert_allclose(rescale(np.array([2.0]), 2.0), np.pi)
        npt.assert_allclose(rescale(np.array([-2.0]), 2.0), 0.0)
        npt.assert_allclose(rescale(np.array([0.0]), 2.0), np.pi / 2)

    def test_bias_variant_centers_zero(self):
        npt.assert_allclose(rescale(np.array([0.0]), 3.0, b=1), 0.0)

    def test_per_unit_divisors(self):
        v = np.array([[1.0, 1.0]])
        out = rescale(v, np.array([1.0, 2.0]))
        npt.assert_allclose(out[0, 0], np.pi)
        npt.assert_allclose(out[0, 1], 0.75 * np.pi)

    def test_out_of_range_clamped_without_warning(self):
        # v is clamped to +-|I| and the result to [0, pi], silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = rescale(np.array([5.0, -5.0]), 2.0)
            biased = rescale(np.array([5.0, -5.0]), 2.0, b=1)
        npt.assert_array_equal(out, [np.pi, 0.0])
        npt.assert_array_equal(biased, [np.pi / 2, 0.0])

    def test_fan_in_validated(self):
        with pytest.raises(ValueError, match="fan_in"):
            rescale(np.array([0.0]), 0.5)

    @pytest.mark.parametrize("b", [0, 1])
    @pytest.mark.parametrize("per_unit", [False, True])
    def test_one_clamp_equals_two_clips_bitwise(self, b, per_unit):
        # the map's image clamped once has the bits of v clamped to +-|I|
        # and then the image clipped to [0, pi]
        rng = np.random.default_rng(b + 2 * per_unit)
        cap = rng.integers(1, 9, size=5).astype(float) if per_unit else 3.0
        v = rng.uniform(-12.0, 12.0, (4000, 5)) * rng.choice([1e-3, 1.0], (4000, 5))
        for r, edge in enumerate([cap, -np.asarray(cap), 0.0, -0.0, 1e300, -1e300]):
            v[r] = edge
        clipped = np.clip(v, -np.asarray(cap), cap)
        want = np.clip(((clipped / cap) + (1 - b)) / 2.0 * np.pi, 0.0, np.pi)
        assert rescale(v, cap, b=b).tobytes() == want.tobytes()


class TestForward:
    def test_hand_traced_two_layer(self):
        # theta = 0 everywhere, inputs at the norm minimum:
        # x_norm = 0 -> each edge cos(0) = 1 -> layer-0 unit sum = 2
        # rescale: ((2/2) + 1)/2 * pi = pi -> final edge cos(pi) = -1
        m = small_model((2, 1, 1), dr_layers=1)
        for th in m.thetas:
            th[...] = 0.0
        assert network_forward(np.array([0.0, 0.0]), m) == pytest.approx(-1.0,
                                                                         abs=1e-15)

    def test_scalar_vs_batch(self):
        self.check_scalar_vs_batch(qubits=1, entangle=False)

    def test_scalar_vs_batch_multiqubit(self):
        self.check_scalar_vs_batch(qubits=2, entangle=True)

    def check_scalar_vs_batch(self, qubits, entangle):
        m = small_model((2, 2, 1), dr_layers=2, seed=4, qubits_per_edge=qubits,
                        entangle=entangle)
        X = np.random.default_rng(0).uniform(0, 1, (7, 2))
        batch = network_forward(X, m)
        singles = [network_forward(X[i], m) for i in range(7)]
        npt.assert_allclose(batch, singles, atol=0)
        assert isinstance(singles[0], float)

    def test_single_edge_layer_single_row_equals_batch_bitwise(self):
        m = init_model(spec_from_shape([2, 1, 1], dr_layers=3, seed=0))
        X = np.random.default_rng(0).uniform(0, 1, (1000, 2))
        m.input_norm = fit_input_norm(X)
        singles = np.array([network_forward(x, m) for x in X])
        assert singles.tobytes() == network_forward(X, m).tobytes()

    def test_output_bounded_without_dense(self):
        m = small_model((3, 2, 1), dr_layers=2, seed=9)
        X = np.random.default_rng(1).uniform(0, 1, (200, 3))
        out = network_forward(X, m)
        assert np.all(np.abs(out) <= 2.0 + 1e-12)  # final fan_in = 2

    def test_dense_head_affine(self):
        m = small_model((2, 1), dr_layers=1, dense=True)
        m.dense_w, m.dense_b = 3.0, -1.0
        base = small_model((2, 1), dr_layers=1)
        for src, dst in zip(m.thetas, base.thetas):
            dst[...] = src
        X = np.random.default_rng(2).uniform(0, 1, (5, 2))
        npt.assert_allclose(network_forward(X, m),
                            3.0 * network_forward(X, base) - 1.0, atol=1e-15)

    def test_unfitted_norm_rejected(self):
        m = init_model(spec_from_shape([2, 1], dr_layers=1))
        with pytest.raises(RuntimeError, match="norm"):
            network_forward(np.array([0.1, 0.2]), m)

    def test_feature_count_checked(self):
        m = small_model((2, 1), dr_layers=1)
        with pytest.raises(ValueError, match="feature"):
            network_forward(np.zeros((4, 3)), m)

    def test_non_finite_features_rejected(self):
        m = small_model((2, 1), dr_layers=1)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                network_forward(np.array([bad, 0.5]), m)
        with pytest.raises(ValueError, match="finite"):
            network_backward(np.array([[0.1, 0.2], [np.nan, 0.5]]), np.zeros(2), m)

    def test_layer_forward_rejects_non_finite_inputs(self):
        m = small_model((2, 2, 1), dr_layers=1)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="features must be finite"):
                network.layer_forward(np.array([bad, 0.5]), m.thetas[0])
            with pytest.raises(ValueError, match="features must be finite"):
                network.layer_forward(np.array([[0.1, 0.2], [0.5, bad]]), m.thetas[0],
                                      m.edge_active[0])

    def test_layer_forward_rejects_non_finite_angles(self):
        m = small_model((2, 1), dr_layers=2)
        for bad in (np.nan, np.inf, -np.inf):
            thetas = m.thetas[0].copy()
            thetas[1, 0, 0, 1] = bad
            with pytest.raises(ValueError, match="layer 0: all angles must be finite"):
                network.layer_forward(np.array([0.3, 0.4]), thetas)

    def test_network_forward_rejects_non_finite_angles(self):
        # angles written after construction fail at the compile, not as NaN
        m = small_model((2, 2, 1), dr_layers=2)
        X = np.array([[0.1, 0.2], [0.7, 0.4]])
        good, angle = network_forward(X, m), m.thetas[1][0, 1, 0, 1]
        for bad in (np.nan, np.inf, -np.inf):
            m.thetas[1][0, 1, 0, 1] = bad
            with pytest.raises(ValueError, match="layer 1: all angles must be finite"):
                network_forward(X, m)
        m.thetas[1][0, 1, 0, 1] = angle  # a failed compile leaves no memo entry
        npt.assert_array_equal(network_forward(X, m), good)

    def test_pruned_edge_excluded_and_divisor_updates(self):
        m = small_model((2, 1, 1), dr_layers=1, seed=5)
        X = np.random.default_rng(3).uniform(0, 1, (9, 2))
        m.edge_active[0][1, 0] = False
        # equivalent model: only edge (0,0,0) feeds the unit, divisor 1
        out = network_forward(X, m)
        solo = small_model((1, 1, 1), dr_layers=1)
        solo.thetas[0][...] = m.thetas[0][:, :1, :, :]
        solo.thetas[1][...] = m.thetas[1]
        solo.input_norm = m.input_norm[:1]
        npt.assert_allclose(out, network_forward(X[:, :1], solo), atol=1e-15)


class TestBackward:
    @pytest.mark.parametrize("dense,qubits,entangle", [
        pytest.param(False, 1, False, id="False"),
        pytest.param(True, 1, False, id="True"),
        pytest.param(False, 2, True, id="False-2q-ring"),
        pytest.param(True, 2, True, id="True-2q-ring"),
    ])
    def test_gradients_match_finite_differences(self, dense, qubits, entangle):
        m = small_model((2, 2, 1), dr_layers=2, seed=11, dense=dense,
                        qubits_per_edge=qubits, entangle=entangle)
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, (13, 2))
        y = rng.normal(size=13)
        loss, yhat, grads = network_backward(X, y, m)
        npt.assert_allclose(loss, 0.5 * np.mean((yhat - y) ** 2), rtol=1e-14)

        def loss_at(theta_flat):
            trial = m.copy()
            offset = 0
            for k, th in enumerate(trial.thetas):
                n = th.size
                trial.thetas[k] = theta_flat[offset:offset + n].reshape(th.shape)
                offset += n
            out = network_forward(X, trial)
            return 0.5 * np.mean((out - y) ** 2)

        flat = np.concatenate([th.ravel() for th in m.thetas])
        flat_grad = np.concatenate([g.ravel() for g in grads.thetas])
        for idx in range(0, flat.size, 3):  # subsample for speed
            def coord(v, idx=idx):
                pert = flat.copy()
                pert[idx] = v
                return loss_at(pert)
            fd = central_diff(coord, flat[idx], h=1e-6)
            npt.assert_allclose(flat_grad[idx], fd, rtol=2e-5, atol=1e-9)
        if dense:
            def loss_w(w):
                trial = m.copy()
                trial.dense_w = w
                return 0.5 * np.mean((network_forward(X, trial) - y) ** 2)
            fd_w = central_diff(loss_w, m.dense_w, h=1e-6)
            npt.assert_allclose(grads.dense_w, fd_w, rtol=1e-6)

    def test_clipped_rescale_blocks_gradient(self):
        # with bias_flag=1 the rescale lands in [-pi/2, pi/2] and negative
        # activations are clipped to 0; parameters upstream of a clipped
        # unit must get zero gradient through it (the clip is flat there)
        m = small_model((1, 1, 1), dr_layers=1, seed=3, bias_flag=1)
        rng = np.random.default_rng(9)
        X = rng.uniform(0, 1, (9, 1))
        y = rng.normal(size=9)
        loss, _, grads = network_backward(X, y, m)

        def loss_at(v, idx):
            trial = m.copy()
            flat = trial.thetas[0].ravel().copy()
            flat[idx] = v
            trial.thetas[0] = flat.reshape(trial.thetas[0].shape)
            return 0.5 * np.mean((network_forward(X, trial) - y) ** 2)

        flat = m.thetas[0].ravel()
        for idx in range(flat.size):
            fd = central_diff(lambda v, i=idx: loss_at(v, i), flat[idx], h=1e-6)
            npt.assert_allclose(grads.thetas[0].ravel()[idx], fd,
                                rtol=2e-5, atol=1e-9)

    def test_empty_batch_rejected(self):
        m = small_model((2, 2, 1), dr_layers=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="at least one row"):
                network_backward(np.zeros((0, 2)), np.zeros(0), m)

    def test_non_finite_angles_rejected(self):
        m = small_model((2, 2, 1), dr_layers=2, dense=True)
        X = np.array([[0.1, 0.2], [0.7, 0.4]])
        for bad in (np.nan, np.inf, -np.inf):
            m.thetas[1][1, 0, 0, 0] = bad
            with pytest.raises(ValueError, match="layer 1: all angles must be finite"):
                network_backward(X, np.zeros(2), m)

    def test_pruned_gradients_zero(self):
        m = small_model((2, 2, 1), dr_layers=2, seed=6)
        m.edge_active[0][0, 1] = False
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, (8, 2))
        _, _, grads = network_backward(X, rng.normal(size=8), m)
        npt.assert_array_equal(grads.thetas[0][:, 0, 1, :], 0.0)
        assert np.any(grads.thetas[0][:, 1, 1, :] != 0.0)


class TestSerialization:
    def roundtrip(self, m, tmp_path):
        # save -> load -> save must give the same bytes
        p, again = tmp_path / "model.txt", tmp_path / "again.txt"
        save_model(m, p)
        m2 = load_model(p)
        save_model(m2, again)
        assert again.read_bytes() == p.read_bytes()
        return m2

    def test_bitwise_thetas_and_norm(self, tmp_path):
        m = small_model((2, 2, 1), dr_layers=3, seed=13, dense=True)
        m.dense_w, m.dense_b = 0.1 + 0.2, -1e-17  # awkward floats on purpose
        m2 = self.roundtrip(m, tmp_path)
        for a, b in zip(m.thetas, m2.thetas):
            npt.assert_array_equal(a, b)
        npt.assert_array_equal(m.input_norm, m2.input_norm)
        assert (m2.dense_w, m2.dense_b) == (m.dense_w, m.dense_b)

    def test_forward_identical_after_roundtrip(self, tmp_path):
        m = small_model((3, 2, 1), dr_layers=2, seed=17)
        m.edge_active[0][2, 0] = False
        m2 = self.roundtrip(m, tmp_path)
        X = np.random.default_rng(6).uniform(0, 1, (20, 3))
        npt.assert_array_equal(network_forward(X, m), network_forward(X, m2))

    def test_unfitted_norm_round_trips(self, tmp_path):
        m = init_model(spec_from_shape([2, 1], dr_layers=1, seed=0))
        m2 = self.roundtrip(m, tmp_path)
        assert m2.input_norm is None

    def test_su2_template_round_trips(self, tmp_path):
        m = small_model((2, 1), dr_layers=2, template=SU2_TEMPLATE)
        m2 = self.roundtrip(m, tmp_path)
        assert m2.spec.template == SU2_TEMPLATE

    def test_every_record_alternative_round_trips(self, tmp_path):
        # unfitted norm, a pruned edge, a dense head, the SU2 template and a
        # 2-qubit entangled layer in one file
        m = init_model(spec_from_shape([3, 2, 1], dr_layers=[2, 1], dense_head=True,
                                       qubits_per_edge=2, entangle=True, seed=4,
                                       template=SU2_TEMPLATE))
        m.edge_active[0][1, 0] = False
        m.dense_w, m.dense_b = 0.1 + 0.2, -1e-17
        m2 = self.roundtrip(m, tmp_path)
        assert m2.input_norm is None and m2.spec == m.spec
        for a, b in zip(m.thetas + m.edge_active, m2.thetas + m2.edge_active):
            npt.assert_array_equal(a, b)

    def test_version_error_names_supported(self, tmp_path):
        p = tmp_path / "m.txt"
        save_model(small_model((2, 1), dr_layers=1), p)
        text = p.read_text().replace("quirk-model v1", "quirk-model v7", 1)
        p.write_text(text)
        with pytest.raises(ModelVersionError, match="v1"):
            load_model(p)

    def test_corrupt_line_reported_with_number(self, tmp_path):
        p = tmp_path / "m.txt"
        save_model(small_model((2, 1), dr_layers=1), p)
        lines = p.read_text().splitlines()
        edge_no = next(i for i, ln in enumerate(lines) if ln.startswith("edge"))
        lines[edge_no] = lines[edge_no].rsplit(" ", 1)[0] + " not-a-float"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match=str(edge_no + 1)):
            load_model(p)

    @pytest.mark.parametrize("record,field", [("edge", -1), ("dense", 1), ("dense", 2),
                                              ("norm", 2)])
    def test_non_finite_value_in_file_rejected(self, tmp_path, record, field):
        p = tmp_path / "m.txt"
        save_model(small_model((2, 1), dr_layers=1, dense=True), p)
        lines = p.read_text().splitlines()
        at = next(i for i, ln in enumerate(lines) if ln.split()[0] == record)
        toks = lines[at].split()
        for bad in ("nan", "inf", "-inf"):
            toks[field] = bad
            lines[at] = " ".join(toks)
            p.write_text("\n".join(lines) + "\n")
            with pytest.raises(ModelFormatError, match=rf"line {at + 1}: .*finite"):
                load_model(p)

    def test_negative_seed_fails_at_layers_record(self, tmp_path):
        # the spec's own rule, as for any architecture the spec rejects
        p = tmp_path / "m.txt"
        save_model(small_model((2, 1), dr_layers=1), p)
        lines = p.read_text().splitlines()
        lines = [("seed -1" if ln.split()[0] == "seed" else ln) for ln in lines]
        p.write_text("\n".join(lines) + "\n")
        at = next(i for i, ln in enumerate(lines) if ln.split()[0] == "layers")
        with pytest.raises(ModelFormatError,
                           match=rf"^line {at + 1}: .*seed must be an integer >= 0, got -1"):
            load_model(p)

    @pytest.mark.parametrize("record", ["edge", "dense", "norm", "quirk-model",
                                        "template", "layers", "layer", "end"])
    def test_duplicate_or_trailing_record_names_its_line(self, tmp_path, record):
        # a second copy of any record, or anything after 'end', is an error
        # at the second line, never a silent last-value-wins
        p = tmp_path / "m.txt"
        save_model(small_model((2, 2, 1), dr_layers=1, dense=True), p)
        lines = p.read_text().splitlines()
        at = next(i for i, ln in enumerate(lines) if ln.split()[0] == record)
        lines.insert(at + 1, lines[at])
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match=rf"^line {at + 2}: "):
            load_model(p)

    def test_record_after_end_rejected(self, tmp_path):
        p = tmp_path / "m.txt"
        save_model(small_model((2, 1), dr_layers=1), p)
        n = len(p.read_text().splitlines())
        p.write_text(p.read_text() + "\n# trailing comment\nseed 7\n")
        with pytest.raises(ModelFormatError, match=rf"^line {n + 3}: record after 'end'"):
            load_model(p)

    def test_blank_lines_and_comments_skipped(self, tmp_path):
        m = small_model((2, 1), dr_layers=1)
        p = tmp_path / "m.txt"
        save_model(m, p)
        lines = p.read_text().splitlines()
        p.write_text("# a model\n\n" + "\n\n".join(lines) + "\n")
        npt.assert_array_equal(load_model(p).thetas[0], m.thetas[0])

    def test_missing_end_sentinel(self, tmp_path):
        p = tmp_path / "m.txt"
        save_model(small_model((2, 1), dr_layers=1), p)
        p.write_text("\n".join(p.read_text().splitlines()[:-1]) + "\n")
        with pytest.raises(ModelFormatError, match="end"):
            load_model(p)

    def test_mutated_file_loads_or_raises_format_error(self, tmp_path):
        p = tmp_path / "m.txt"
        m = small_model((2, 2, 1), dr_layers=3, dense=True)
        m.edge_active[0][1, 0] = False
        save_model(m, p)
        assert escapes(p, load_model, ModelFormatError, prefix=r"line \d+: ") == []

    def test_inserted_token_never_loads(self, tmp_path):
        p = tmp_path / "m.txt"
        m = small_model((2, 2, 1), dr_layers=3, dense=True)
        m.edge_active[0][1, 0] = False
        save_model(m, p)
        assert escapes(p, load_model, ModelFormatError, prefix=r"line \d+: ",
                       cases=insertions, must_fail=True) == []

    @pytest.mark.parametrize("old,new,line", [
        ("layers 1", "layers 200000", r"\d+"),
        ("layer 0 fan_in 2 units 1 dr_layers 1 ",
         "layer 0 fan_in 2 units 1 dr_layers 1000000000000 ", "8"),
    ])
    def test_header_number_costs_only_the_file(self, tmp_path, old, new, line):
        # a header number calling for more than the file holds fails at a
        # line without sizing anything by that number
        p = tmp_path / "m.txt"
        save_model(small_model((2, 1), dr_layers=1), p)
        text = p.read_text()
        assert len(text.splitlines()) == 14 and old in text
        p.write_text(text.replace(old, new))
        tracemalloc.start()
        try:
            with pytest.raises(ModelFormatError, match=rf"^line {line}: "):
                load_model(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("old,new,match", [
        ("input_dim 2", "input_dim 3", "fan_in=2 does not match previous width 3"),
        ("norm 1 ", None, "min .* must be below max"),
        ("layer 1 fan_in 2 units 1", "layer 1 fan_in 2 units 2", "exactly one unit"),
        ("bias_flag 0", "bias_flag 2", "bias_flag must be 0 or 1"),
        ("layer 0 fan_in 2 units 2 dr_layers 1 qubits_per_edge 1",
         "layer 0 fan_in 2 units 2 dr_layers 1 qubits_per_edge 0", "qubits_per_edge must be"),
    ])
    def test_value_a_constructor_rejects_names_its_line(self, tmp_path, old, new, match):
        p = tmp_path / "m.txt"
        save_model(small_model((2, 2, 1), dr_layers=1, dense=True), p)
        lines = p.read_text().splitlines()
        at = next(n for n, ln in enumerate(lines) if ln.startswith(old))
        if new is None:  # swap the norm row's min and max
            name, i, lo, hi = lines[at].split()
            lines[at] = f"{name} {i} {hi} {lo}"
        else:
            lines[at] = new + lines[at][len(old):]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match=rf"^line \d+: .*{match}"):
            load_model(p)

    @pytest.mark.parametrize("record,at,flag", [
        ("dense_head ", 1, "7"),
        ("layer 0 ", 11, "2"),
        ("edge 0 1 0 ", 4, "9"),
        ("edge 0 0 1 ", 4, "-0"),
    ])
    def test_flag_field_takes_only_0_or_1(self, tmp_path, record, at, flag):
        p = tmp_path / "m.txt"
        save_model(small_model((2, 2, 1), dr_layers=1, dense=True, qubits_per_edge=2,
                               entangle=True), p)
        lines = p.read_text().splitlines()
        no = next(n for n, ln in enumerate(lines) if ln.startswith(record))
        toks = lines[no].split()
        assert toks[at] in ("0", "1")
        toks[at] = flag
        lines[no] = " ".join(toks)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError,
                           match=rf"^line {no + 1}: .*expected a flag 0 or 1, got '{flag}'"):
            load_model(p)

    def test_hex_overflow_names_its_line(self, tmp_path):
        p = tmp_path / "m.txt"
        save_model(small_model((2, 1), dr_layers=1, dense=True), p)
        lines = p.read_text().splitlines()
        lines[-2] = "dense 0x1p99999 0x0p+0"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match=rf"^line {len(lines) - 1}: .*too large"):
            load_model(p)


# --- network-level property test --------------------------------------------

_NET_TEMPLATES = {"default": DEFAULT_TEMPLATE, "su2": SU2_TEMPLATE,
                  "ry-only": GateTemplate((("ry", "input"),))}


def _oracle_network(model, x_raw):
    """One row through the network, every edge simulated gate by gate."""
    spec = model.spec
    h = apply_input_norm(model.input_norm, np.asarray(x_raw, dtype=np.float64))
    for k, layer in enumerate(spec.layers):
        active = model.edge_active[k]
        v = np.zeros(layer.units)
        for i in range(layer.fan_in):
            for u in range(layer.units):
                if active[i, u]:
                    v[u] += naive_dr_forward(
                        h[i], model.thetas[k][:, i, u], template=list(spec.template.gates),
                        num_qubits=layer.qubits_per_edge, entangle=layer.entangle)
        if k < len(spec.layers) - 1:
            div = np.maximum(active.sum(axis=0), 1.0)
            h = np.clip(((v / div) + (1 - spec.bias_flag)) / 2.0 * np.pi, 0.0, np.pi)
    out = v[0]
    return model.dense_w * out + model.dense_b if spec.dense_head else out


@st.composite
def _networks(draw):
    widths = [draw(st.integers(1, 3)) for _ in range(draw(st.integers(1, 3)))] + [1]
    n = draw(st.integers(1, 3))
    spec = spec_from_shape(
        widths, dr_layers=[draw(st.integers(1, 2)) for _ in widths[1:]],
        dense_head=draw(st.booleans()), bias_flag=draw(st.integers(0, 1)),
        seed=draw(st.integers(0, 2**16)), qubits_per_edge=n,
        entangle=n > 1 and draw(st.booleans()),
        template=_NET_TEMPLATES[draw(st.sampled_from(sorted(_NET_TEMPLATES)))])
    m = init_model(spec)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    # masks may leave units with no live edge, and then their outputs dead
    m.edge_active = [rng.uniform(size=a.shape) < 0.75 for a in m.edge_active]
    m.dense_w, m.dense_b = rng.normal(size=2)
    m.input_norm = np.stack([np.zeros(spec.input_dim), np.ones(spec.input_dim)], axis=1)
    return m, rng


def _flat_edges(thetas):
    # a layer's (L, fan_in, units, ...) angles as dr._series takes them
    return thetas.reshape(thetas.shape[:1] + (thetas.shape[1] * thetas.shape[2],)
                          + thetas.shape[3:])


@settings(derandomize=True, max_examples=30, deadline=None)
@given(case=_networks())
def test_network_matches_oracles(case):
    m, rng = case
    X = rng.uniform(0, 1, (5, m.spec.input_dim))
    y = rng.normal(size=5)
    for k, layer in enumerate(m.spec.layers):
        # the compiled series against the statevector kernel at random x
        wiring = (layer.qubits_per_edge, layer.entangle, m.spec.template)
        th = m.thetas[k]
        flat = _flat_edges(th)
        K, c, J = _series(flat, *wiring)
        c = c.reshape(th.shape[1:3] + c.shape[1:])
        J = J.reshape(th.shape + J.shape[-1:])
        x = rng.uniform(0, np.pi, (7, 1, 1))
        kx = np.arange(1, K + 1) * x[..., None]
        basis = np.concatenate([np.ones_like(kx[..., :1]), np.cos(kx), np.sin(kx)], -1)
        dbasis = np.concatenate([np.zeros_like(kx[..., :1]),
                                 -np.arange(1, K + 1) * np.sin(kx),
                                 np.arange(1, K + 1) * np.cos(kx)], -1)
        f, dth = _grad(x[:, 0], flat, *wiring)
        npt.assert_array_equal(f, _forward(x[:, 0], flat, *wiring))
        f = f.reshape(x.shape[:1] + th.shape[1:3])
        dth = dth.reshape(th.shape[:1] + x.shape[:1] + th.shape[1:])
        npt.assert_allclose(np.einsum("biuk,iuk->biu", basis, c), f, rtol=0, atol=1e-12)
        # the series' derivative in x, which network_backward uses, against
        # the shift rule on every edge
        kw = {"template": list(m.spec.template.gates),
              "num_qubits": layer.qubits_per_edge, "entangle": layer.entangle}
        dx = [[[shift_rule_dx(xb, th[:, i, u], **kw) for u in range(layer.units)]
               for i in range(layer.fan_in)] for xb in x.ravel()]
        npt.assert_allclose(np.einsum("biuk,iuk->biu", dbasis, c), dx, rtol=0, atol=1e-12)
        npt.assert_allclose(np.einsum("biuk,liu...k->lbiu...", basis, J), dth,
                            rtol=0, atol=1e-12)
    _check_network_oracles(m, X, y, rng)


def _check_network_oracles(m, X, y, rng):
    """Outputs against the gate-by-gate oracle, gradients against central
    differences of the loss (a few angles per layer, and the head)."""
    out = network_forward(X, m)
    npt.assert_allclose(out, [_oracle_network(m, x) for x in X], rtol=0, atol=1e-12)

    loss, yhat, grads = network_backward(X, y, m)
    npt.assert_array_equal(yhat, out)

    def loss_at(trial):
        return 0.5 * np.mean((network_forward(X, trial) - y) ** 2)

    for k, th in enumerate(m.thetas):
        for idx in rng.choice(th.size, size=min(th.size, 3), replace=False):
            def coord(v, k=k, idx=idx):
                trial = m.copy()
                trial.thetas[k].reshape(-1)[idx] = v
                return loss_at(trial)
            fd = central_diff(coord, th.reshape(-1)[idx], h=1e-6)
            npt.assert_allclose(grads.thetas[k].reshape(-1)[idx], fd, rtol=1e-5, atol=1e-9)
    if m.spec.dense_head:
        for name in ("dense_w", "dense_b"):
            def head(v, name=name):
                trial = m.copy()
                setattr(trial, name, v)
                return loss_at(trial)
            fd = central_diff(head, getattr(m, name), h=1e-6)
            npt.assert_allclose(getattr(grads, name), fd, rtol=1e-5, atol=1e-9)


def _whole_layer_forward(m, X):
    """The network evaluated over whole layers, as before live blocks: each
    block's c put back in its layer's layout, dead edges zero, and every
    unit rescaled by its own divisor."""
    h = apply_input_norm(m.input_norm, X)
    series = network._compiled(m.spec.layers, m.spec.template, m.thetas,
                               m.edge_active)
    for k, (layer, blk) in enumerate(zip(m.spec.layers, series)):
        c = np.zeros((layer.fan_in, layer.units, 2 * blk.K + 1))
        c[blk.at] = blk.c
        v = network._layer_eval(h, blk.K, c, want_grads=False)[0]
        if k < len(series) - 1:
            h = rescale(v, np.maximum(m.edge_active[k].sum(axis=0), 1.0),
                        b=m.spec.bias_flag)
    return m.dense_w * v[:, 0] + m.dense_b if m.spec.dense_head else v[:, 0]


def _whole_layer_backward(m, X, y):
    """Angle gradients over whole layers, as before live blocks: every
    layer's per-edge products span all its inputs and units, and each input
    adds every unit in order."""
    h = apply_input_norm(m.input_norm, X)
    series = network._compiled(m.spec.layers, m.spec.template, m.thetas,
                               m.edge_active)
    caches = []
    for k, (layer, blk) in enumerate(zip(m.spec.layers, series)):
        c = np.zeros((layer.fan_in, layer.units, 2 * blk.K + 1))
        c[blk.at] = blk.c
        J = np.zeros(m.thetas[k].shape + (2 * blk.K + 1,))
        J[(slice(None),) + blk.at] = blk.J
        v, _, basis = network._layer_eval(h, blk.K, c, want_grads=True)
        slope = None
        if k < len(series) - 1:
            div = np.maximum(m.edge_active[k].sum(axis=0), 1.0)
            h = rescale(v, div, b=m.spec.bias_flag)
            slope = np.where((h > 0.0) & (h < np.pi), np.pi / (2.0 * div), 0.0)
        caches.append((c, J, basis, slope))
    w = m.dense_w if m.spec.dense_head else 1.0
    cot = (((w * v[:, 0] + m.dense_b if m.spec.dense_head else v[:, 0]) - y)
           / len(y) * w)[None]
    grads = [None] * len(series)
    for k in range(len(series) - 1, -1, -1):
        c, J, basis, _ = caches[k]
        G = np.matmul(basis[:, None], cot[:, :, None])
        grads[k] = np.matmul(J, G[:, :, None] if J.ndim == 6 else G)[..., 0]
        if k > 0:
            K = series[k].K
            j = np.arange(1.0, K + 1)
            dc = np.concatenate([np.zeros(c.shape[:2] + (1,)),
                                 j * c[:, :, K + 1:], -j * c[:, :, 1:K + 1]], axis=2)
            df = np.matmul(dc[:, :, None], basis[:, None])[:, :, 0]
            dh = np.zeros((df.shape[0], len(y)))
            for u in range(df.shape[1]):
                dh += df[:, u] * cot[u]
            cot = dh * caches[k - 1][3].T
    return grads


def _chain_spans(active):
    """Each layer's block inputs and units by the chain rule: a layer's
    units are those its own live edges or the next layer's touch (the last
    layer's one unit, the output, always), and a layer's inputs are the
    previous layer's units (layer 0's: the inputs with a live edge)."""
    spans = []
    ins = np.flatnonzero(active[0].any(axis=1))
    for k, a in enumerate(active):
        used = (np.ones(a.shape[1], dtype=bool) if k == len(active) - 1
                else a.any(axis=0) | active[k + 1].any(axis=1))
        spans.append((ins, np.flatnonzero(used)))
        ins = spans[-1][1]
    return spans


def _check_live_blocks(m, rng, rows=6):
    X = rng.uniform(0, 1, (rows, m.spec.input_dim))
    y = rng.normal(size=rows)
    out = network_forward(X, m)
    assert out.tobytes() == _whole_layer_forward(m, X).tobytes()
    assert np.array([network_forward(x, m) for x in X]).tobytes() == out.tobytes()
    # a batch of one row takes other BLAS kernels
    for batch in [slice(None)] + [slice(i, i + 1) for i in range(min(rows, 8))]:
        _, _, grads = network_backward(X[batch], y[batch], m)
        for g, whole in zip(grads.thetas, _whole_layer_backward(m, X[batch], y[batch])):
            npt.assert_array_equal(g, whole)  # to the last bit
    for g, active in zip(grads.thetas, m.edge_active):
        assert not g[:, ~active].any()
    for s, active in zip(edge_scores(m, X), m.edge_active):
        npt.assert_array_equal(np.isnan(s), ~active)

    # a block spanning the whole layer is indexed with plain slices
    series = network._compiled(m.spec.layers, m.spec.template, m.thetas,
                               m.edge_active)
    for (ins, outs), active, blk in zip(_chain_spans(m.edge_active), m.edge_active,
                                        series):
        whole = (ins.size, outs.size) == active.shape
        assert whole == all(isinstance(a, slice) for a in blk.at)
    _check_network_oracles(m, X[:6], y[:6], rng)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(case=_networks())
def test_live_blocks_match_whole_layers(case):
    # masks are random, not cascaded: units may be dead and still read
    _check_live_blocks(*case)


@pytest.mark.parametrize("shape,dead,rows", [
    ((2, 3, 2, 1), {1: np.s_[:, :]}, 6),     # an all-dead hidden layer
    ((2, 2, 1), {1: np.s_[:, :]}, 6),        # an all-dead last layer
    ((3, 2, 1), {0: np.s_[:, 1]}, 6),        # a dead unit feeding a live edge
    ((3, 3, 2, 1), {0: np.s_[1:, 0], 1: np.s_[:, 1]}, 6),
    # wide layers and many rows take the BLAS kernels whose rounding
    # depends on operand layout and width
    ((6, 8, 4, 1), {0: np.s_[:, 5], 1: np.s_[:, 3]}, 300),
    # a hidden block narrowed to one unit of several, where products shaped
    # by the block's width (gemv against gemm, an einsum's inner loop)
    # would round otherwise than over the whole layer
    ((6, 8, 4, 1), {1: np.s_[:, 1:]}, 1),
    ((6, 8, 4, 1), {1: np.s_[:, 1:]}, 300),
    # an idle unit: live inputs, read by none, so a zero row of the next block
    ((3, 2, 1), {1: np.s_[1, :]}, 6),
])
def test_live_blocks_on_dead_units(shape, dead, rows):
    m = small_model(shape, dr_layers=2, seed=7, dense=True, bias_flag=1)
    for k, where in dead.items():
        m.edge_active[k][where] = False
    _check_live_blocks(m, np.random.default_rng(3), rows)


@st.composite
def _wide_networks(draw):
    # wider layers and bigger batches than _networks, to reach the BLAS
    # kernels whose choice depends on a product's shape
    widths = [draw(st.integers(1, 8)) for _ in range(draw(st.integers(1, 2)))] + [1]
    n = draw(st.integers(1, 2))
    spec = spec_from_shape(
        widths, dr_layers=draw(st.integers(1, 2)), dense_head=draw(st.booleans()),
        bias_flag=draw(st.integers(0, 1)), seed=draw(st.integers(0, 2**16)),
        qubits_per_edge=n, entangle=n > 1 and draw(st.booleans()))
    m = init_model(spec)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    live = draw(st.sampled_from([0.25, 0.5, 0.75, 1.0]))
    m.edge_active = [rng.uniform(size=a.shape) < live for a in m.edge_active]
    m.input_norm = np.stack([np.zeros(spec.input_dim), np.ones(spec.input_dim)], axis=1)
    return m, rng, draw(st.sampled_from([1, 2, 3, 7, 64, 300]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=_wide_networks())
def test_block_gradients_match_whole_layers_at_any_width(case):
    m, rng, rows = case
    X = rng.uniform(0, 1, (rows, m.spec.input_dim))
    y = rng.normal(size=rows)
    _, _, grads = network_backward(X, y, m)
    for g, whole in zip(grads.thetas, _whole_layer_backward(m, X, y)):
        npt.assert_array_equal(g, whole)  # to the last bit


@settings(derandomize=True, max_examples=20, deadline=None)
@given(case=_networks())
def test_compiled_series_cache_is_safe(case):
    m, rng = case
    X = rng.uniform(0, 1, (5, m.spec.input_dim))
    network_forward(X, m)  # compiles every layer

    def fresh_output():
        network._compile.cache_clear()
        return network_forward(X, m.copy()).tobytes()

    k = int(rng.integers(len(m.thetas)))
    m.thetas[k] += 0.25  # in place, as Adam updates
    assert network_forward(X, m).tobytes() == fresh_output()
    # in place, as prune() cascades into edge_active[k + 1]
    m.edge_active[k][tuple(rng.integers(m.edge_active[k].shape))] ^= True
    assert network_forward(X, m).tobytes() == fresh_output()
    for blk in network._compiled(m.spec.layers, m.spec.template, m.thetas,
                                 m.edge_active):
        for a in (blk.c, blk.J, blk.div):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0


@st.composite
def _merged_networks(draw):
    # layers of equal wiring merge into one compile; "ry-only" has P = 0
    m, rng = draw(_networks())
    if draw(st.booleans()):
        spec = m.spec
        layers = tuple(dataclasses.replace(layer, dr_layers=spec.layers[0].dr_layers)
                       for layer in spec.layers)
        m2 = init_model(dataclasses.replace(spec, layers=layers))
        m2.edge_active, m2.input_norm = m.edge_active, m.input_norm
        m = m2
    return m, rng


@settings(derandomize=True, max_examples=40, deadline=None)
@given(case=_merged_networks())
def test_merged_compile_equals_lone_compile(case):
    # each layer's block of the network's one compile is bit-equal to
    # compiling that layer alone, and spans exactly its chained inputs and units
    m, _ = case
    series = network._compiled(m.spec.layers, m.spec.template, m.thetas,
                               m.edge_active)
    for layer, thetas, active, blk, (ins, outs) in zip(
            m.spec.layers, m.thetas, m.edge_active, series,
            _chain_spans(m.edge_active)):
        K1, c1, J1 = _series(_flat_edges(thetas), layer.qubits_per_edge,
                             layer.entangle, m.spec.template)
        c1 = c1.reshape(active.shape + c1.shape[1:])
        J1 = J1.reshape(thetas.shape + J1.shape[-1:])
        npt.assert_array_equal(np.arange(layer.fan_in)[blk.ins], ins)
        npt.assert_array_equal(np.arange(layer.units)[blk.outs], outs)
        assert blk.K == K1
        assert blk.c.shape == (ins.size, outs.size, c1.shape[-1])
        assert blk.J.shape == J1[:, ins][:, :, outs].shape
        c = np.zeros_like(c1)
        c[blk.at] = blk.c
        J = np.zeros_like(J1)
        J[(slice(None),) + blk.at] = blk.J
        assert c[active].tobytes() == c1[active].tobytes()
        assert J[:, active].tobytes() == J1[:, active].tobytes()
        assert not c[~active].any() and not J[:, ~active].any()


def _count_series(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return _series(*args, **kwargs)

    network._compile.cache_clear()
    monkeypatch.setattr(network, "_series", counted)
    return calls


@pytest.mark.parametrize("shape,dr_layers,qubits,compiles", [
    ((2, 2, 1), 3, 1, 1),        # both layers share their wiring
    ((4, 2, 1), (2, 1), 2, 2),   # different depths compile apart
])
def test_one_compile_per_wiring_per_step(monkeypatch, shape, dr_layers, qubits,
                                         compiles):
    m = small_model(shape, dr_layers=dr_layers, qubits_per_edge=qubits,
                    entangle=qubits > 1)
    m.edge_active[0][0, 0] = False
    X = np.random.default_rng(0).uniform(0, 1, (7, shape[0]))
    calls = _count_series(monkeypatch)
    network_backward(X, np.zeros(7), m)
    network_forward(X, m)
    network_forward(X[0], m)
    assert len(calls) == compiles


def test_cold_train_compiles_once_per_step(monkeypatch):
    # each step's backward pass misses the memo and compiles both layers in
    # one call; its validation forward hits
    from quirk.train import TrainConfig, train
    rng = np.random.default_rng(11)
    X = rng.uniform(0, 1, (60, 1))
    ds = Dataset(X, np.sin(X[:, 0]), columns=("x", "y")).split(seed=11)
    calls = _count_series(monkeypatch)
    _, hist = train(ds, spec_from_shape([1, 2, 1], dr_layers=2, seed=0),
                    TrainConfig(max_steps=12, seed=0, early_stop_patience=12))
    info = network._compile.cache_info()
    assert len(hist.steps) == len(calls) == info.misses == info.hits == 12


# --- fixed row tiles --------------------------------------------------------

_TILE_BATCHES = (1, 63, 64, 65, 129, 2100)


def _narrowed_model(qubits, seed, one_unit=False):
    # wide enough for the BLAS kernels whose choice depends on a product's
    # shape; masks narrow blocks and may leave units dead
    m = small_model((6, 8, 4, 1), dr_layers=2 if qubits == 1 else 1, seed=seed,
                    dense=True, qubits_per_edge=qubits, entangle=qubits > 1)
    rng = np.random.default_rng(seed)
    m.edge_active = [rng.uniform(size=a.shape) < 0.6 for a in m.edge_active]
    if one_unit:  # the middle block keeps one unit of four, whose product
        # a per-input matmul would hand to gemv instead of gemm
        m.edge_active[1][:, 1:] = False
        m.edge_active[1][0, 0] = True
        m.edge_active[2][1:, :] = False
    m.edge_active[-1][0, 0] = True
    return m, rng


@pytest.mark.parametrize("qubits,seed,one_unit", [
    (1, 0, False), (1, 1, True), (2, 2, False), (2, 3, True)])
def test_rows_are_bit_equal_at_every_tile_offset(qubits, seed, one_unit):
    m, rng = _narrowed_model(qubits, seed, one_unit)
    X = rng.uniform(0, 1, (max(_TILE_BATCHES), 6))
    y = rng.normal(size=len(X))
    full = network_forward(X, m)
    assert full.tobytes() == _whole_layer_forward(m, X).tobytes()
    # one row sits at offset 0 of its own tile ...
    for r in range(network._TILE):
        j = r + network._TILE * (r % 32)
        assert network_forward(X[j], m) == full[j]
    # ... and a window starting at s puts row j at offset (j - s) % 64
    for s in range(network._TILE):
        assert network_forward(X[s:s + 65], m).tobytes() == full[s:s + 65].tobytes()
    for B in _TILE_BATCHES:
        assert network_forward(X[:B], m).tobytes() == full[:B].tobytes()
        _, _, grads = network_backward(X[:B], y[:B], m)
        for g, whole in zip(grads.thetas, _whole_layer_backward(m, X[:B], y[:B])):
            npt.assert_array_equal(g, whole)  # to the last bit


# --- the Fourier basis ------------------------------------------------------


@pytest.mark.parametrize("K", [3, 12])  # 12: 2-qubit edges with L = 6
def test_basis_matches_cos_and_sin(K):
    rng = np.random.default_rng(K)
    x = np.concatenate([[0.0, np.pi, np.pi / 2, 1e-300, np.nextafter(np.pi, 0.0)],
                        rng.uniform(0.0, np.pi, 10**4)])
    basis = network._layer_eval(x[:, None], K, np.zeros((1, 1, 2 * K + 1)), True)[2][0]
    assert basis.shape == (2 * K + 1, len(x)) and np.all(basis[0] == 1.0)
    for k in range(1, K + 1):
        npt.assert_allclose(basis[k], np.cos(k * x), rtol=0, atol=1e-15 * k)
        npt.assert_allclose(basis[K + k], np.sin(k * x), rtol=0, atol=1e-15 * k)


def test_basis_row_alone_equals_its_batch_row_bitwise():
    K, rng = 6, np.random.default_rng(7)
    c = np.zeros((2, 1, 2 * K + 1))
    h = rng.uniform(0.0, np.pi, (5000, 2))
    batch = network._layer_eval(h, K, c, True)[2]
    for r in range(network._TILE):  # row j sits at offset r of its tile
        j = r + network._TILE * (5 * r % (5000 // network._TILE))
        alone = network._layer_eval(h[j:j + 1], K, c, True)[2]
        assert alone.tobytes() == batch[:, :, j:j + 1].tobytes()


def test_edge_scores_read_real_rows_only():
    m, rng = _narrowed_model(1, 4)
    X = rng.uniform(0, 1, (100, 6))  # not a multiple of the tile
    singles = [network._forward_pass(m, x[None], want_grads=False)[1] for x in X]
    for k, s in enumerate(edge_scores(m, X)):
        blk = singles[0][k]["blk"]
        f = np.concatenate([caches[k]["f"] for caches in singles])
        npt.assert_allclose(s[blk.at][blk.live], f.std(axis=0)[blk.live],
                            rtol=1e-12, atol=0)


def test_edge_samples_return_the_grid_rows_only():
    m, _ = _narrowed_model(1, 5)
    xs = np.linspace(0.0, np.pi, DEFAULT_GRID_SIZE)
    samples = network.edge_samples(m, xs)
    assert samples.shape == (sum(int(a.sum()) for a in m.edge_active), len(xs))
    for j in (0, 63, 64, 256):
        assert samples[:, j].tobytes() == network.edge_samples(m, xs[j:j + 1])[:, 0].tobytes()


# --- prepared rows ----------------------------------------------------------


@pytest.mark.parametrize("change,block", [
    ("prune", "inputs [0, 2] at degree 2"),  # input 1 loses its edges
    ("depth", "inputs [0, 1, 2] at degree 3"),
])
def test_rows_prepared_for_another_block_rejected(change, block):
    m = small_model((3, 2, 1), dr_layers=2)
    X = np.random.default_rng(0).uniform(0, 1, (10, 3))
    rows = network.prepare_rows(m, X)
    if change == "prune":
        other = m.copy()
        other.edge_active[0][1] = False
    else:
        other = small_model((3, 2, 1), dr_layers=3)
    msg = re.escape(f"layer 0's inputs [0, 1, 2] at degree 2, but the model's "
                    f"layer 0 reads {block}")
    with pytest.raises(ValueError, match=msg):
        network_forward(rows, other)
    with pytest.raises(ValueError, match=msg):
        network_backward(rows, np.zeros(10), other)
    assert network_forward(rows, m).tobytes() == network_forward(X, m).tobytes()


def test_rows_prepared_with_another_normalizer_rejected():
    m = small_model((2, 2, 1), dr_layers=2)
    X = np.random.default_rng(1).uniform(0, 1, (10, 2))
    rows = network.prepare_rows(m, X)
    other, unfitted = m.copy(), m.copy()
    other.input_norm = other.input_norm * 0.5 - 1.0
    unfitted.input_norm = None
    for run in (lambda mm: network_forward(rows, mm),
                lambda mm: network_backward(rows, np.zeros(10), mm),
                lambda mm: edge_scores(mm, rows)):
        with pytest.raises(ValueError, match="another input normalizer"):
            run(other)
        with pytest.raises(RuntimeError, match="unfitted"):
            run(unfitted)
    # an equal normalizer in another array serves
    assert network_forward(rows, m.copy()).tobytes() == network_forward(X, m).tobytes()
