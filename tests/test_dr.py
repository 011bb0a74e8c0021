import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quirk.dr as drmod
from quirk.dr import (
    DEFAULT_TEMPLATE,
    MAX_QUBITS,
    SU2_TEMPLATE,
    CapacityError,
    DRParams,
    GateTemplate,
    dr_forward_batch,
)
from quirk.network import (LayerSpec, ModelFormatError, init_model, load_model,
                           network_backward, save_model, spec_from_shape)

import oracles
from circuits import init_dr_params, kernel_dtheta, series_dx


def random_params(seed, L=3, num_qubits=1, entangle=False, template=DEFAULT_TEMPLATE):
    return init_dr_params(L, np.random.default_rng(seed), num_qubits=num_qubits,
                          entangle=entangle, template=template)


class TestForward:
    def test_identity_trainables_give_cos(self):
        # RZ(0) and RX(0) drop out, leaving <Z| RY(x) |0> = cos(x)
        p = DRParams(np.zeros((1, 2)))
        for x in np.linspace(0, np.pi, 21):
            assert dr_forward_batch(x, p) == pytest.approx(np.cos(x), abs=1e-14)

    def test_x_zero_rz_only_layer(self):
        # at x = 0 the encode is identity; RZ(a) on |0> is a pure phase
        for a in (-2.0, 0.3, 1.7):
            p = DRParams(np.array([[a, 0.0]]))
            assert dr_forward_batch(0.0, p) == pytest.approx(1.0, abs=1e-14)

    def test_matches_naive_oracle_seed42(self):
        p = random_params(42, L=3)
        got = dr_forward_batch(1.0, p)
        want = oracles.naive_dr_forward(1.0, p.thetas)
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("L", [1, 2, 4, 6])
    def test_matches_naive_oracle_many(self, L):
        rng = np.random.default_rng(100 + L)
        for _ in range(10):
            p = init_dr_params(L, rng)
            x = rng.uniform(0, np.pi)
            assert dr_forward_batch(x, p) == pytest.approx(
                oracles.naive_dr_forward(x, p.thetas), abs=1e-12)

    def test_su2_template_against_oracle(self):
        tpl = [("ry", "input"), ("rz", 0), ("ry", 1), ("rz", 2)]
        rng = np.random.default_rng(9)
        p = init_dr_params(2, rng, template=SU2_TEMPLATE)
        x = 0.8
        assert dr_forward_batch(x, p) == pytest.approx(
            oracles.naive_dr_forward(x, p.thetas, template=tpl), abs=1e-12)

    def test_range_invariant(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            p = init_dr_params(int(rng.integers(1, 7)), rng)
            v = dr_forward_batch(rng.uniform(0, np.pi), p)
            assert -1.0 <= v <= 1.0

    def test_periodicity_4pi(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            p = init_dr_params(int(rng.integers(1, 5)), rng)
            x = rng.uniform(0, np.pi)
            a = dr_forward_batch(x, p, clamp=False)
            b = dr_forward_batch(x + 4 * np.pi, p, clamp=False)
            assert a == pytest.approx(b, abs=1e-12)
            # integer frequencies up to K: the period is already 2 pi
            c = dr_forward_batch(x + 2 * np.pi, p, clamp=False)
            assert a == pytest.approx(c, abs=1e-12)

    def test_determinism(self):
        a = random_params(7, L=4)
        b = random_params(7, L=4)
        assert np.array_equal(a.thetas, b.thetas)
        assert dr_forward_batch(0.5, a) == dr_forward_batch(0.5, b)


class TestForwardBatch:
    def test_empty(self):
        p = random_params(1)
        out = dr_forward_batch(np.array([]), p)
        assert out.shape == (0,)

    def test_trivial_pair(self):
        p = DRParams(np.zeros((1, 2)))
        np.testing.assert_allclose(dr_forward_batch([0.0, np.pi], p), [1.0, -1.0], atol=1e-14)

    def test_matches_scalar_loop(self):
        p = random_params(33, L=5)
        xs = np.random.default_rng(2).uniform(0, np.pi, 1000)
        batch = dr_forward_batch(xs, p)
        scalar = np.array([dr_forward_batch(float(x), p) for x in xs])
        np.testing.assert_allclose(batch, scalar, atol=1e-12)

    def test_preserves_shape(self):
        p = random_params(4)
        xs = np.random.default_rng(0).uniform(0, np.pi, (3, 5))
        assert dr_forward_batch(xs, p).shape == (3, 5)


class TestGradient:
    def test_identity_layer_dx_is_minus_sin(self):
        p = DRParams(np.zeros((1, 2)))
        for x in np.linspace(0.1, 3.0, 15):
            dx = series_dx(x, p)
            assert dx == pytest.approx(-np.sin(x), abs=1e-12)

    def test_rz_angle_has_zero_gradient_at_theta_zero(self):
        p = DRParams(np.zeros((1, 2)))
        dth = kernel_dtheta(np.pi / 2, p)
        assert dth[0, 0] == pytest.approx(0.0, abs=1e-12)
        # confirmed independently by the shift rule
        shift = oracles.shift_rule_dtheta(np.pi / 2, p.thetas)
        assert shift[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_shift_rule_and_fd_seed7(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            L = int(rng.integers(1, 7))
            p = init_dr_params(L, rng)
            x = rng.uniform(0, np.pi)
            dth, dx = kernel_dtheta(x, p), series_dx(x, p)
            np.testing.assert_allclose(dth, oracles.shift_rule_dtheta(x, p.thetas), atol=1e-10)
            assert dx == pytest.approx(oracles.shift_rule_dx(x, p.thetas), abs=1e-10)
            np.testing.assert_allclose(dth, oracles.fd_dtheta(x, p.thetas), atol=1e-6)
            fd_dx = oracles.central_diff(lambda t: dr_forward_batch(t, p, clamp=False), x)
            assert dx == pytest.approx(fd_dx, abs=1e-6)

    def test_su2_template_gradients(self):
        tpl = [("ry", "input"), ("rz", 0), ("ry", 1), ("rz", 2)]
        p = random_params(11, L=3, template=SU2_TEMPLATE)
        dth, dx = kernel_dtheta(0.6, p), series_dx(0.6, p)
        np.testing.assert_allclose(
            dth, oracles.shift_rule_dtheta(0.6, p.thetas, template=tpl), atol=1e-10)
        assert dx == pytest.approx(
            oracles.shift_rule_dx(0.6, p.thetas, template=tpl), abs=1e-10)

    def test_nan_input_rejected(self):
        # the input derivative is taken inside network_backward, which checks its rows
        m = init_model(spec_from_shape([2, 1], dr_layers=1))
        m.input_norm = np.array([[0.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            network_backward([[float("nan"), 0.5]], [0.0], m)

    @pytest.mark.parametrize("n,entangle", [(1, False), (2, True)])
    def test_array_input_matches_scalar_calls(self, n, entangle):
        p = random_params(12, L=2, num_qubits=n, entangle=entangle)
        xs = np.linspace(0.1, 3.0, 6).reshape(2, 3)
        dth, dx = kernel_dtheta(xs, p), series_dx(xs, p)
        assert dx.shape == xs.shape
        assert dth.shape == p.thetas.shape[:1] + xs.shape + p.thetas.shape[1:]
        for idx in np.ndindex(xs.shape):
            one_dth, one_dx = kernel_dtheta(xs[idx], p), series_dx(xs[idx], p)
            assert one_dth.shape == p.thetas.shape
            np.testing.assert_allclose(dth[(slice(None),) + idx], one_dth,
                                       rtol=0, atol=1e-14)
            assert one_dx == pytest.approx(dx[idx], abs=1e-14)

    def test_memory_does_not_grow_with_stored_states(self):
        # no state is kept per gate, and each layer's tangents are kept for
        # one block of about _BLOCK samples only, so they grow with L times
        # _BLOCK, not with the batch: deeper circuits add mostly dtheta rows
        xs = np.linspace(0.0, np.pi, 20000)
        peak = {}
        for L in (2, 12):
            p = random_params(0, L=L)
            tracemalloc.start()
            try:
                kernel_dtheta(xs, p)
                peak[L] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        dtheta_growth = 10 * xs.size * p.thetas.shape[-1] * 8
        assert peak[12] - peak[2] < 2 * dtheta_growth

    @pytest.mark.parametrize("n,x_shape,mid", [(1, (40,), ()), (2, (9, 1), (7,)),
                                              (1, (1, 5), (6, 5)), (3, (), (4, 3))])
    def test_blocks_change_no_sample(self, n, x_shape, mid, monkeypatch):
        # the batch runs in blocks of rows (to bound the tangents kept per
        # layer); any block size gives every sample the same bits
        rng = np.random.default_rng(n)
        xs = rng.uniform(0, np.pi, x_shape)
        P = DEFAULT_TEMPLATE.params_per_layer
        thetas = rng.uniform(-np.pi, np.pi, (3,) + mid + ((P,) if n == 1 else (n, P)))
        f, dth = drmod._grad(xs, thetas, n, True, DEFAULT_TEMPLATE)
        monkeypatch.setattr(drmod, "_BLOCK", 4)
        f4, dth4 = drmod._grad(xs, thetas, n, True, DEFAULT_TEMPLATE)
        assert f4.tobytes() == f.tobytes() and dth4.tobytes() == dth.tobytes()


class TestMultiQubit:
    def test_unentangled_equals_single_qubit(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            L = int(rng.integers(1, 4))
            p = init_dr_params(L, rng, num_qubits=2, entangle=False)
            single = DRParams(p.thetas[:, 0, :])
            x = rng.uniform(0, np.pi)
            assert dr_forward_batch(x, p) == pytest.approx(
                dr_forward_batch(x, single), abs=1e-12)

    def test_entangled_all_zero_thetas_vs_oracle(self):
        p = DRParams(np.zeros((1, 2, 2)), num_qubits=2, entangle=True)
        for x in np.linspace(0, np.pi, 9):
            want = oracles.naive_dr_forward(x, p.thetas, num_qubits=2, entangle=True)
            assert dr_forward_batch(x, p) == pytest.approx(want, abs=1e-12)

    def test_entangled_random_vs_oracle(self):
        rng = np.random.default_rng(77)
        for n in (2, 3, 4):
            p = init_dr_params(2, rng, num_qubits=n, entangle=True)
            x = rng.uniform(0, np.pi)
            want = oracles.naive_dr_forward(x, p.thetas, num_qubits=n, entangle=True)
            assert dr_forward_batch(x, p) == pytest.approx(want, abs=1e-12)

    def test_entangled_gradients_vs_shift_rule(self):
        rng = np.random.default_rng(88)
        p = init_dr_params(2, rng, num_qubits=3, entangle=True)
        x = 0.9
        dth, dx = kernel_dtheta(x, p), series_dx(x, p)
        np.testing.assert_allclose(
            dth, oracles.shift_rule_dtheta(x, p.thetas, num_qubits=3, entangle=True),
            atol=1e-10)
        assert dx == pytest.approx(
            oracles.shift_rule_dx(x, p.thetas, num_qubits=3, entangle=True), abs=1e-10)

    def test_capacity_error(self):
        assert MAX_QUBITS == 5
        with pytest.raises(CapacityError):
            init_dr_params(1, np.random.default_rng(0), num_qubits=6)
        with pytest.raises(CapacityError):
            LayerSpec(fan_in=1, units=1, dr_layers=1, qubits_per_edge=6)
        p = init_dr_params(1, np.random.default_rng(0), num_qubits=5)
        assert -1.0 <= dr_forward_batch(0.5, p) <= 1.0

    def test_capacity_error_in_model_file(self, tmp_path):
        path = tmp_path / "m.txt"
        save_model(init_model(spec_from_shape([1, 1], dr_layers=1, qubits_per_edge=5)), path)
        text = path.read_text().replace("qubits_per_edge 5", "qubits_per_edge 6")
        path.write_text(text)
        with pytest.raises(ModelFormatError, match="6 qubits"):
            load_model(path)

    def test_batch_dispatches_multiqubit(self):
        p = random_params(5, L=2, num_qubits=2, entangle=True)
        xs = np.linspace(0, np.pi, 5)
        batch = dr_forward_batch(xs, p)
        scalar = [dr_forward_batch(float(x), p) for x in xs]
        np.testing.assert_allclose(batch, scalar, atol=1e-12)


_TEMPLATES = {"default": DEFAULT_TEMPLATE, "su2": SU2_TEMPLATE}


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(1, MAX_QUBITS), entangle=st.booleans(),
       template=st.sampled_from(sorted(_TEMPLATES)), L=st.integers(1, 3),
       x=st.floats(0.0, np.pi), seed=st.integers(0, 2**32 - 1))
def test_kernel_matches_oracles(n, entangle, template, L, x, seed):
    tpl = _TEMPLATES[template]
    p = init_dr_params(L, np.random.default_rng(seed), num_qubits=n,
                       entangle=entangle, template=tpl)
    kw = {"template": list(tpl.gates), "num_qubits": n, "entangle": entangle}
    assert dr_forward_batch(x, p) == pytest.approx(
        oracles.naive_dr_forward(x, p.thetas, **kw), abs=1e-12)
    dth, dx = kernel_dtheta(x, p), series_dx(x, p)
    np.testing.assert_allclose(
        dth, oracles.shift_rule_dtheta(x, p.thetas, **kw), rtol=0, atol=1e-10)
    assert dx == pytest.approx(oracles.shift_rule_dx(x, p.thetas, **kw), abs=1e-10)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(1, 3), entangle=st.booleans(),
       template=st.sampled_from(sorted(_TEMPLATES)), L=st.integers(1, 3),
       E=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
def test_series_rows_do_not_depend_on_their_company(n, entangle, template, L, E, seed):
    # any subset of a stack's edges, a lone edge included, compiles to rows
    # bit-equal to those of the whole stack
    tpl = _TEMPLATES[template]
    rng = np.random.default_rng(seed)
    P = tpl.params_per_layer
    thetas = rng.uniform(-np.pi, np.pi, (L, E) + ((P,) if n == 1 else (n, P)))
    K, c, J = drmod._series(thetas, n, entangle, tpl)
    assert K == L * n  # both templates encode once per layer
    assert c.shape == (E, 2 * K + 1) and J.shape == thetas.shape + (2 * K + 1,)
    subsets = [rng.uniform(size=E) < rng.uniform()]
    if E:
        subsets.append(np.arange(E) == rng.integers(E))
    for keep in subsets:
        K1, c1, J1 = drmod._series(thetas[:, keep], n, entangle, tpl)
        assert K1 == K
        assert c1.tobytes() == c[keep].tobytes()
        assert J1.tobytes() == J[:, keep].tobytes()


@pytest.mark.parametrize("template", ["default", "su2"])
@pytest.mark.parametrize("n,entangle", [(1, False), (1, True), (2, False), (2, True),
                                        (3, False), (3, True)])
def test_series_coefficients_are_the_dft_of_the_forward_values(n, entangle, template):
    # c carries the plain forward sweep's bits at the 2K+1 nodes, through
    # the DFT product _series makes per edge: the gradient sweeps and their
    # tangents may round J differently, never c
    tpl = _TEMPLATES[template]
    P = tpl.params_per_layer
    thetas = np.random.default_rng(10 * n + entangle).uniform(
        -np.pi, np.pi, (2, 5) + ((P,) if n == 1 else (n, P)))
    K, c, _ = drmod._series(thetas, n, entangle, tpl)
    nodes = (2.0 * np.pi / (2 * K + 1)) * np.arange(2 * K + 1)
    f = drmod._forward(nodes[:, None], thetas, n, entangle, tpl)
    want = np.matmul(np.ascontiguousarray(f.T)[:, None, :], drmod._dft(K).T)[:, 0]
    assert c.tobytes() == want.tobytes()


class TestClamping:
    def test_out_of_domain_warns_and_clamps(self):
        p = random_params(3)
        with pytest.warns(RuntimeWarning) as record:
            v = dr_forward_batch(4.0, p)
        assert [w.category for w in record] == [RuntimeWarning]
        assert v == pytest.approx(dr_forward_batch(np.pi, p), abs=1e-15)

    def test_negative_input_clamps_to_zero(self):
        p = random_params(3)
        with pytest.warns(RuntimeWarning):
            v = dr_forward_batch(-1.0, p)
        assert v == pytest.approx(dr_forward_batch(0.0, p), abs=1e-15)

    def test_clamp_off_uses_raw_circuit(self):
        p = random_params(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            raw = dr_forward_batch(4.0, p, clamp=False)
        assert raw != pytest.approx(dr_forward_batch(np.pi, p), abs=1e-9)

    def test_in_domain_never_warns(self):
        p = random_params(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dr_forward_batch(np.linspace(0, np.pi, 50), p)


class TestValidation:
    def test_nan_theta_rejected(self):
        with pytest.raises(ValueError):
            DRParams(np.array([[np.nan, 0.0]]))

    def test_infinite_x_rejected(self):
        with pytest.raises(ValueError):
            dr_forward_batch(np.inf, random_params(1))

    def test_wrong_theta_rank(self):
        with pytest.raises(ValueError):
            DRParams(np.zeros((2, 2)), num_qubits=2)

    def test_wrong_param_count_for_template(self):
        with pytest.raises(ValueError):
            DRParams(np.zeros((1, 3)))  # default template has P = 2

    def test_template_must_start_with_encoding(self):
        with pytest.raises(ValueError):
            GateTemplate((("rz", 0), ("ry", "input")))

    def test_template_param_indices_contiguous(self):
        with pytest.raises(ValueError):
            GateTemplate((("ry", "input"), ("rz", 0), ("rx", 2)))

    def test_zero_layers_rejected(self):
        with pytest.raises(ValueError):
            DRParams(np.zeros((0, 2)))

