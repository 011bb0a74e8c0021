import numpy as np
import numpy.testing as npt
import pytest

from quirk.data import (CSVFormatError, DEMO_EQUATIONS, EQUATIONS,
                        FEYNMAN_EQUATIONS, generate,
                        generate_univariate, load_csv, read_csv_rows,
                        resolve_univariate, save_csv, target_scale,
                        train_val_test_split, write_csv_rows)


class TestRegistry:
    def test_counts(self):
        assert len(FEYNMAN_EQUATIONS) == 27
        assert "x2-y2" in DEMO_EQUATIONS
        assert len(EQUATIONS) == len(FEYNMAN_EQUATIONS) + len(DEMO_EQUATIONS)

    @pytest.mark.parametrize("eq_id,args,expected", [
        # hand-evaluated closed forms; args in declared variable order
        ("I.6.2", (1.0, 1.0), np.exp(-0.5) / np.sqrt(2 * np.pi)),
        ("I.12.11", (2.0, 1.0, 3.0, 0.5, np.pi / 2), 2.0 * (1.0 + 3.0 * 0.5)),
        ("I.15.3x", (5.0, 1.0, 10.0, 2.0), 3.0 / np.sqrt(1 - 0.01)),
        ("I.26.2", (0.5, np.pi / 6), np.arcsin(0.25)),
        ("II.2.42", (2.0, 1.0, 5.0, 4.0, 3.0), 2.0 * (5.0 - 1.0) * 4.0 / 3.0),
        ("x2-y2", (3.0, 2.0), 5.0),
    ])
    def test_formula_spot_checks(self, eq_id, args, expected):
        got = EQUATIONS[eq_id].evaluate(np.array([args]))
        npt.assert_allclose(got, expected, rtol=1e-12)

    def test_resonance_singularity_is_removable(self):
        # the driven-oscillator response stays finite and continuous at
        # om == om_0 (sinc(0) == 1)
        eq = EQUATIONS["III.9.52"]
        names = [v[0] for v in eq.variables]
        row = {n: 1.0 for n in names}
        row.update(t=2.0, om=3.0, om_0=3.0)
        X = np.array([[row[n] for n in names]])
        at_res = eq.evaluate(X)
        assert np.isfinite(at_res)
        row["om"] = 3.0 + 1e-9
        X2 = np.array([[row[n] for n in names]])
        npt.assert_allclose(eq.evaluate(X2), at_res, rtol=1e-6)

    def test_arity_enforced(self):
        with pytest.raises(ValueError, match="variables"):
            EQUATIONS["I.6.2"].evaluate(np.ones((3, 5)))


class TestGenerate:
    def test_shape_and_columns(self):
        ds = generate("I.15.3x", 100, seed=0)
        assert ds.X.shape == (100, 4)
        assert ds.y.shape == (100,)
        assert ds.columns[-1] == "y"
        assert len(ds.columns) == 5

    def test_ranges_respected(self):
        ds = generate("I.15.3x", 2000, seed=1)
        eq = EQUATIONS["I.15.3x"]
        for j, (_, lo, hi) in enumerate(eq.variables):
            assert ds.X[:, j].min() >= lo
            assert ds.X[:, j].max() <= hi

    def test_column_order_draws(self):
        # documented RNG contract: PCG64, one uniform column per variable,
        # drawn in declaration order
        ds = generate("x2-y2", 50, seed=7)
        rng = np.random.default_rng(7)
        eq = EQUATIONS["x2-y2"]
        for j, (_, lo, hi) in enumerate(eq.variables):
            npt.assert_array_equal(ds.X[:, j], rng.uniform(lo, hi, 50))

    def test_targets_match_formula(self):
        ds = generate("I.6.2", 64, seed=3)
        sigma, theta = ds.X[:, 0], ds.X[:, 1]
        want = np.exp(-(theta / sigma) ** 2 / 2) / (np.sqrt(2 * np.pi) * sigma)
        npt.assert_allclose(ds.y, want, rtol=1e-14)

    def test_deterministic(self):
        a = generate("I.16.6", 30, seed=9)
        b = generate("I.16.6", 30, seed=9)
        npt.assert_array_equal(a.X, b.X)
        npt.assert_array_equal(a.y, b.y)

    def test_unknown_id_lists_known(self):
        with pytest.raises(LookupError, match="I.6.2"):
            generate("no-such-equation", 10)

    def test_n_samples_validated(self):
        with pytest.raises(ValueError, match="n_samples"):
            generate("I.6.2", 0)


class TestSplits:
    def test_fraction_sizes(self):
        s = train_val_test_split(1000, seed=0)
        assert len(s["train"]) == 700
        assert len(s["val"]) == 150
        assert len(s["test"]) == 150

    def test_remainder_goes_to_test(self):
        s = train_val_test_split(101, seed=0)
        assert (len(s["train"]), len(s["val"]), len(s["test"])) == (70, 15, 16)

    def test_disjoint_cover(self):
        s = train_val_test_split(333, seed=4)
        merged = np.concatenate([s["train"], s["val"], s["test"]])
        assert sorted(merged.tolist()) == list(range(333))

    def test_seeded(self):
        a = train_val_test_split(100, seed=1)
        b = train_val_test_split(100, seed=1)
        c = train_val_test_split(100, seed=2)
        npt.assert_array_equal(a["train"], b["train"])
        assert not np.array_equal(a["train"], c["train"])

    def test_dataset_split_and_part(self):
        ds = generate("x2-y2", 40, seed=0)
        with pytest.raises(RuntimeError, match="split"):
            ds.part("train")
        split = ds.split(seed=5)
        Xtr, ytr = split.part("train")
        assert Xtr.shape == (28, 2)
        npt.assert_allclose(ytr, Xtr[:, 0] ** 2 - Xtr[:, 1] ** 2, rtol=1e-14)


class TestUnivariate:
    def test_exp_sin_poly_formula(self):
        ds = generate_univariate("exp_sin_poly", 50, seed=2)
        x = ds.X[:, 0]
        npt.assert_allclose(ds.y, (np.exp(np.sin(x)) * x**3 + x**2) / 15000.0,
                            rtol=1e-14)

    def test_alias_resolves(self):
        name, fn = resolve_univariate("fig4_fn")
        assert name == "exp_sin_poly"
        ds_alias = generate_univariate("fig4_fn", 20, seed=0)
        ds_canon = generate_univariate("exp_sin_poly", 20, seed=0)
        npt.assert_array_equal(ds_alias.y, ds_canon.y)

    def test_default_range(self):
        ds = generate_univariate("sin", 500, seed=1)
        assert ds.X.min() >= 0.0 and ds.X.max() <= 20.0

    def test_callable_target(self):
        ds = generate_univariate(np.square, 10, x_range=(0, 2), seed=0)
        npt.assert_allclose(ds.y, ds.X[:, 0] ** 2)

    def test_unknown_target(self):
        with pytest.raises(LookupError, match="exp_sin_poly"):
            generate_univariate("nope", 10)

    def test_target_scale_unitizes(self):
        y = np.array([0.5, -3.0, 2.0])
        assert target_scale(y) == 3.0
        npt.assert_allclose(np.abs(y / target_scale(y)).max(), 1.0)
        assert target_scale(np.zeros(5)) == 1.0  # degenerate guard


class TestCsv:
    def test_rows_round_trip_exact(self, tmp_path):
        p = tmp_path / "t.csv"
        rows = [[1, 0.1 + 0.2, -1e-17], [2, np.pi, 3.5]]
        write_csv_rows(p, ["a", "b", "c"], rows)
        header, got = read_csv_rows(p)
        assert header == ["a", "b", "c"]
        for want, have in zip(rows, got):
            assert [float(x) for x in have] == [float(x) for x in want]

    def test_reject_cells_needing_quotes(self, tmp_path):
        with pytest.raises(ValueError, match="quot"):
            write_csv_rows(tmp_path / "t.csv", ["a"], [["x,y"]])

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(CSVFormatError, match="3"):
            read_csv_rows(p)

    def test_dataset_round_trip_bitwise(self, tmp_path):
        ds = generate("I.6.2", 25, seed=13)
        p = tmp_path / "ds.csv"
        save_csv(ds, p)
        back = load_csv(p)
        npt.assert_array_equal(ds.X, back.X)
        npt.assert_array_equal(ds.y, back.y)
        header = p.read_text().splitlines()[0]
        assert header == "x1,x2,y"

    def test_load_requires_dataset_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("u,v\n1,2\n")
        with pytest.raises(CSVFormatError, match="header"):
            load_csv(p)
