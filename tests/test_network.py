import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quirk.dr import DEFAULT_TEMPLATE, SU2_TEMPLATE, GateTemplate, _forward, _grad, _series
from quirk.network import (LayerSpec, Model, ModelFormatError,
                           ModelVersionError, NetworkSpec, fit_input_norm,
                           apply_input_norm, init_model, load_model,
                           network_backward, network_forward, param_count,
                           rescale, save_model, spec_from_shape)

from mutations import escapes
from oracles import central_diff, naive_dr_forward


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

    def test_out_of_range_clamped_with_warning(self):
        with pytest.warns(RuntimeWarning, match="clamped"):
            out = rescale(np.array([5.0]), 2.0)
        npt.assert_allclose(out, np.pi)

    def test_fan_in_validated(self):
        with pytest.raises(ValueError, match="fan_in"):
            rescale(np.array([0.0]), 0.5)


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
        p = tmp_path / "model.txt"
        save_model(m, p)
        return load_model(p)

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


@settings(derandomize=True, max_examples=30, deadline=None)
@given(case=_networks())
def test_network_matches_oracles(case):
    m, rng = case
    X = rng.uniform(0, 1, (5, m.spec.input_dim))
    y = rng.normal(size=5)
    for k, layer in enumerate(m.spec.layers):
        # the compiled series against the statevector kernel at random x
        wiring = (layer.qubits_per_edge, layer.entangle, m.spec.template)
        K, c, J = _series(m.thetas[k], *wiring)
        x = rng.uniform(0, np.pi, (7, 1, 1))
        kx = np.arange(1, K + 1) * x[..., None]
        basis = np.concatenate([np.ones_like(kx[..., :1]), np.cos(kx), np.sin(kx)], -1)
        dbasis = np.concatenate([np.zeros_like(kx[..., :1]),
                                 -np.arange(1, K + 1) * np.sin(kx),
                                 np.arange(1, K + 1) * np.cos(kx)], -1)
        f, dx, dth = _grad(x, m.thetas[k], *wiring)
        npt.assert_array_equal(f, _forward(x, m.thetas[k], *wiring))
        npt.assert_allclose(np.einsum("biuk,iuk->biu", basis, c), f, rtol=0, atol=1e-12)
        npt.assert_allclose(np.einsum("biuk,iuk->biu", dbasis, c), dx, rtol=0, atol=1e-12)
        npt.assert_allclose(np.einsum("biuk,liu...k->lbiu...", basis, J), dth,
                            rtol=0, atol=1e-12)
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


@settings(derandomize=True, max_examples=20, deadline=None)
@given(case=_networks())
def test_compiled_series_cache_is_safe(case):
    m, rng = case
    X = rng.uniform(0, 1, (5, m.spec.input_dim))
    network_forward(X, m)  # compiles every layer

    def fresh_output():
        _series.cache_clear()
        return network_forward(X, m.copy()).tobytes()

    k = int(rng.integers(len(m.thetas)))
    m.thetas[k] += 0.25  # in place, as Adam updates
    assert network_forward(X, m).tobytes() == fresh_output()
    m.edge_active[k][tuple(rng.integers(m.edge_active[k].shape))] ^= True
    assert network_forward(X, m).tobytes() == fresh_output()
    layer = m.spec.layers[k]
    _, c, J = _series(m.thetas[k], layer.qubits_per_edge, layer.entangle,
                      m.spec.template)
    with pytest.raises(ValueError, match="read-only"):
        c[...] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        J[...] = 0.0
