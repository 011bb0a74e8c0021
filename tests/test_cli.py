import argparse
import dataclasses
import inspect
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from quirk.cli import (SCHEMA, ConfigError, _build_spec, _interpret_settings,
                       _load_dataset, _train_config, default_config,
                       load_cli_config, main, parse_config)
from quirk import dr
from quirk.data import read_csv_rows
from quirk.network import init_model, save_model, spec_from_shape
from quirk.train import TrainConfig

from mutations import escapes


def cfg_file(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# small enough to train in a second, big enough that pruning/interpret work
TINY = """
[dataset]
equation = x2-y2
n_samples = 300
seed = 0

[model]
hidden = 1
dr_layers = 2

[train]
learning_rate = 0.05
max_steps = 60
early_stop_patience = 60

[output]
dir = {out}
"""


def tiny(tmp_path, out="run1", **extra):
    text = TINY.format(out=tmp_path / out)
    for section, lines in extra.items():
        text += f"\n[{section}]\n" + "\n".join(lines) + "\n"
    return cfg_file(tmp_path, text, name=f"{out}.cfg")


class TestConfigParsing:
    def test_unknown_key_names_it(self, tmp_path):
        p = cfg_file(tmp_path, "[train]\nlerning_rate = 0.1\n")
        with pytest.raises(ConfigError, match="lerning_rate"):
            parse_config(p)

    def test_unknown_section_names_it(self, tmp_path):
        p = cfg_file(tmp_path, "[trian]\n")
        with pytest.raises(ConfigError, match=r"trian"):
            parse_config(p)

    def test_bad_value_reports_line(self, tmp_path):
        p = cfg_file(tmp_path, "[train]\nmax_steps = soon\n")
        with pytest.raises(ConfigError, match=r":2:"):
            parse_config(p)

    def test_key_outside_section(self, tmp_path):
        p = cfg_file(tmp_path, "max_steps = 5\n")
        with pytest.raises(ConfigError, match="section"):
            parse_config(p)

    def test_comments_and_types(self, tmp_path):
        p = cfg_file(tmp_path, """
# full-line comment
[model]
hidden = 2, 1   # trailing comment
dense_head = yes
[train]
batch_size = full
""")
        cfg = parse_config(p)
        assert cfg["model"]["hidden"] == [2, 1]
        assert cfg["model"]["dense_head"] is True
        assert cfg["train"]["batch_size"] is None

    def test_defaults_without_config(self, tmp_path):
        # every section has a complete default; only the equation is required
        assert main(["train", "--out", str(tmp_path / "o")]) == 2

    def test_sections_are_their_consumers_arguments(self):
        # [train] is TrainConfig field for field, and [model] less shape and
        # hidden is spec_from_shape's keywords, defaults included
        cfg = default_config()
        assert cfg["train"] == dataclasses.asdict(TrainConfig())
        params = list(inspect.signature(spec_from_shape).parameters.values())[1:]
        model = {k: v for k, v in cfg["model"].items() if k not in ("shape", "hidden")}
        assert sorted(model) == sorted(p.name for p in params)
        assert all(model[p.name] == p.default for p in params
                   if p.default is not p.empty)


# every section and key of the schema, with small values
FULL = """
[dataset]
equation = sin
n_samples = 40
seed = 1
split_seed = 2
range_lo = 0
range_hi = 3

[model]
shape = 1, 2, 1
hidden = 2, 1
dr_layers = 2, 1
dense_head = true
bias_flag = 1
qubits_per_edge = 2
entangle = true
template = su2
seed = 3

[train]
learning_rate = 0.05
beta1 = 0.9
beta2 = 0.999
epsilon = 1e-8
batch_size = 16
max_steps = 10
seed = 4
early_stop_patience = 10

[prune]
threshold = 0.05
fine_tune_steps = 5

[interpret]
grid_size = 65
max_degree = 6
r2_target = 0.99
svg = false

[benchmark]
include_published = false

[output]
dir = out
"""


class TestConfigBoundary:
    @pytest.mark.parametrize("section,line,key", [
        ("train", "max_steps = 0", "max_steps"),
        ("train", "learning_rate = -1", "learning_rate"),
        ("train", "batch_size = 0", "batch_size"),
        ("dataset", "n_samples = 0", "n_samples"),
        ("dataset", "n_samples = 2", "n_samples"),
        ("model", "shape =", "shape"),
    ])
    def test_train_names_bad_key(self, tmp_path, capsys, section, line, key):
        cfg = tiny(tmp_path, **{section: [line]})
        assert main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert "list index" not in err

    @pytest.mark.parametrize("command,section,line,key", [
        ("prune", "prune", "threshold = -1", "threshold"),
        ("interpret", "interpret", "grid_size = 1", "grid_size"),
        ("interpret", "interpret", "max_degree = 300", "max_degree"),
        ("interpret", "interpret", "max_degree = -1", "max_degree"),
    ])
    def test_model_command_names_bad_key(self, trained, tmp_path, capsys,
                                         command, section, line, key):
        _, model = trained
        cfg = tiny(tmp_path, out="bad", **{section: [line]})
        capsys.readouterr()
        assert main([command, model, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err

    @pytest.mark.parametrize("command", [["train"], ["compare-activations", "sin"]])
    def test_empty_univariate_range(self, tmp_path, capsys, command):
        cfg = cfg_file(tmp_path, "[dataset]\nequation = sin\nn_samples = 50\n"
                                 "range_lo = 5\nrange_hi = 1\n")
        assert main(command + ["--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "range_lo" in err

    @pytest.mark.parametrize("how", ["config", "flag"])
    def test_empty_output_dir(self, tmp_path, capsys, how):
        if how == "config":
            cfg, flag = cfg_file(tmp_path, TINY.format(out="")), []
        else:
            cfg, flag = tiny(tmp_path), ["--out", ""]
        assert main(["train", "--config", cfg] + flag) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "[output] dir" in err

    def test_negative_seed_flag(self, tmp_path, capsys):
        assert main(["train", "--config", tiny(tmp_path), "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_mutated_config_loads_or_raises_config_error(self, tmp_path):
        keys, section = set(), None
        for line in FULL.splitlines():
            if line.startswith("["):
                section = line[1:-1]
            elif "=" in line:
                keys.add((section, line.split("=")[0].strip()))
        assert keys == {(s, k) for s, known in SCHEMA.items() for k in known}
        p = tmp_path / "full.cfg"
        p.write_text(FULL)

        def build(path):
            # everything a run derives from its config, short of training
            cfg = load_cli_config(argparse.Namespace(config=str(path),
                                                     seed=None, out=None))
            ds = _load_dataset(cfg)
            _build_spec(cfg, ds.input_dim)
            _train_config(cfg)
            _interpret_settings(cfg)

        build(p)
        assert escapes(p, build, ConfigError) == []


class TestTrain:
    def test_writes_artifacts(self, tmp_path, capsys):
        rc = main(["train", "--config", tiny(tmp_path)])
        assert rc == 0
        out = tmp_path / "run1"
        for f in ("model.txt", "history.csv", "summary.txt"):
            assert (out / f).exists(), f
        line = (out / "summary.txt").read_text().strip()
        assert line.startswith("x2-y2 params=8 test_rmse=")
        assert line == capsys.readouterr().out.strip()

    def test_deterministic_rerun(self, tmp_path):
        main(["train", "--config", tiny(tmp_path)])
        first = (tmp_path / "run1" / "summary.txt").read_text()
        main(["train", "--config", tiny(tmp_path), "--out",
              str(tmp_path / "run2")])
        assert (tmp_path / "run2" / "summary.txt").read_text() == first

    def test_seed_flag_overrides_all(self, tmp_path):
        main(["train", "--config", tiny(tmp_path)])
        main(["train", "--config", tiny(tmp_path), "--seed", "5", "--out",
              str(tmp_path / "seeded")])
        assert ((tmp_path / "seeded" / "summary.txt").read_text()
                != (tmp_path / "run1" / "summary.txt").read_text())

    def test_missing_equation_key(self, tmp_path, capsys):
        p = cfg_file(tmp_path, "[train]\nmax_steps = 5\n")
        assert main(["train", "--config", p]) == 2
        assert "equation" in capsys.readouterr().err

    def test_unknown_equation(self, tmp_path, capsys):
        p = cfg_file(tmp_path, "[dataset]\nequation = nope\nn_samples = 50\n")
        assert main(["train", "--config", p]) == 2
        assert "nope" in capsys.readouterr().err

    def test_qubit_cap_is_config_error(self, tmp_path, capsys):
        p = cfg_file(tmp_path, "[dataset]\nequation = x2-y2\nn_samples = 50\n"
                               "[model]\nqubits_per_edge = 6\n")
        assert main(["train", "--config", p]) == 2
        assert "6 qubits" in capsys.readouterr().err

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "absent.cfg")]) == 1

    def test_divergence_exits_3(self, tmp_path, capsys):
        cfg = cfg_file(tmp_path, TINY.format(out=tmp_path / "div") + """
[model]
dense_head = true
[train]
learning_rate = 1e160
""", name="div.cfg")
        with np.errstate(all="ignore"):
            import warnings
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                rc = main(["train", "--config", cfg])
        assert rc == 3
        assert "step" in capsys.readouterr().err


@pytest.fixture()
def trained(tmp_path):
    cfg = tiny(tmp_path)
    assert main(["train", "--config", cfg]) == 0
    return cfg, str(tmp_path / "run1" / "model.txt")


class TestEvalPruneInterpret:
    def test_eval_matches_training_summary(self, trained, tmp_path, capsys):
        cfg, model = trained
        capsys.readouterr()
        assert main(["eval", model, "--config", cfg]) == 0
        assert (capsys.readouterr().out.strip()
                == (tmp_path / "run1" / "summary.txt").read_text().strip())

    def test_eval_dimension_mismatch(self, trained, tmp_path, capsys):
        _, model = trained
        other = cfg_file(tmp_path, "[dataset]\nequation = I.15.3x\n"
                         "n_samples = 50\n", name="other.cfg")
        assert main(["eval", model, "--config", other]) == 2
        assert "feature" in capsys.readouterr().err

    def test_missing_model_file(self, trained, tmp_path):
        cfg, _ = trained
        assert main(["eval", str(tmp_path / "ghost.txt"), "--config", cfg]) == 1

    def test_corrupt_model_file(self, trained, tmp_path):
        cfg, _ = trained
        bad = tmp_path / "bad.txt"
        bad.write_text("not a model\n")
        assert main(["eval", str(bad), "--config", cfg]) == 1

    @pytest.mark.parametrize("line", ["template", "template ry:input,rz:abc,rx:1"])
    def test_bad_template_line_is_file_error(self, trained, tmp_path, capsys,
                                             line):
        cfg, model = trained
        lines = open(model).read().splitlines()
        assert lines[1].startswith("template ")
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join([lines[0], line] + lines[2:]) + "\n")
        assert main(["eval", str(bad), "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("file error: line 2: ")

    def test_oversized_header_number_is_file_error(self, trained, tmp_path, capsys):
        # a layer calling for 10^12 angles per edge fails at its line, not
        # with an allocation error
        cfg, model = trained
        lines = open(model).read().splitlines()
        assert lines[7].startswith("layer 0 ") and " dr_layers 2 " in lines[7]
        lines[7] = lines[7].replace(" dr_layers 2 ", " dr_layers 1000000000000 ")
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["eval", str(bad), "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("file error: line 8: ")

    def test_prune_never_grows(self, trained, tmp_path, capsys):
        cfg, model = trained
        capsys.readouterr()
        assert main(["prune", model, "--config", cfg]) == 0
        outl = capsys.readouterr().out.strip().splitlines()[0]
        assert (tmp_path / "run1" / "model_pruned.txt").exists()
        before, after = outl.split("params=")[1].split()[0].split("->")
        assert int(after) <= int(before)

    def test_interpret_outputs(self, trained, tmp_path, capsys):
        cfg, model = trained
        assert main(["interpret", model, "--config", cfg]) == 0
        out = tmp_path / "run1"
        assert (out / "report.txt").exists()
        header, rows = read_csv_rows(out / "coefficients.csv")
        assert header[:4] == ["layer", "input", "unit", "active"]
        assert len(rows) == 2  # one per edge of the [2,1] model
        svgs = sorted(out.glob("edge_*.svg"))
        assert len(svgs) == 2
        for svg in svgs:
            root = ET.parse(svg).getroot()  # valid XML
            assert root.tag.endswith("svg")
        text = capsys.readouterr().out
        assert "surrogate_rmse=" in text and "model_rmse=" in text

    def test_interpret_plots_live_edges_from_the_series(self, tmp_path, monkeypatch):
        # the plots read the compiled series, so no circuit is simulated, and
        # a pruned edge gets no plot
        model = init_model(spec_from_shape([2, 3, 1], dr_layers=2, seed=3))
        model.edge_active[0][[0, 1], [1, 2]] = False
        model.edge_active[1][2, 0] = False
        model.input_norm = np.array([[-1.0, 1.0], [-1.0, 1.0]])
        path = tmp_path / "pruned.txt"
        save_model(model, path)

        def no_circuit(*args, **kwargs):
            raise AssertionError("a circuit was simulated")

        monkeypatch.setattr(dr, "_forward", no_circuit)
        assert main(["interpret", str(path), "--config", tiny(tmp_path, out="plots")]) == 0
        live = {f"edge_{k}_{i}_{u}.svg" for k, active in enumerate(model.edge_active)
                for (i, u), on in np.ndenumerate(active) if on}
        assert len(live) == 6
        assert {p.name for p in (tmp_path / "plots").glob("edge_*.svg")} == live

    def test_interpret_svg_off(self, trained, tmp_path):
        cfg, model = trained
        off = tiny(tmp_path, out="nosvg", interpret=["svg = false"])
        assert main(["interpret", model, "--config", off]) == 0
        assert not list((tmp_path / "nosvg").glob("*.svg"))


class TestBenchmark:
    def test_unknown_ids_skipped_nonzero(self, tmp_path, capsys):
        cfg = tiny(tmp_path, out="bench")
        rc = main(["benchmark", "x2-y2", "bogus1", "bogus2", "--config", cfg])
        captured = capsys.readouterr()
        assert rc == 2
        assert "bogus1" in captured.err and "bogus2" in captured.err
        out = tmp_path / "bench"
        assert (out / "bench_x2-y2.csv").exists()
        header, rows = read_csv_rows(out / "benchmark.csv")
        assert header[:5] == ["equation", "rmse", "params", "pruned_rmse",
                              "pruned_params"]
        # published reference columns are merged; the demo id has no row there
        assert "published_quirk_loss" in header
        assert len(rows) == 1 and rows[0][0] == "x2-y2"

    def test_published_columns_filled_for_table_ids(self, tmp_path):
        cfg = tiny(tmp_path, out="bench2")
        cfg_text = open(cfg).read().replace("equation = x2-y2",
                                            "equation = I.6.2")
        cfg2 = cfg_file(tmp_path, cfg_text, name="b2.cfg")
        assert main(["benchmark", "I.6.2", "--config", cfg2]) == 0
        header, rows = read_csv_rows(tmp_path / "bench2" / "benchmark.csv")
        pub = dict(zip(header, rows[0]))
        assert float(pub["published_quirk_loss"]) == 1.40e-3
        assert int(pub["published_quirk_params"]) == 36
        assert float(pub["published_kan_loss"]) == 3.90e-1

    def test_empty_list_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["benchmark"])
        assert exc.value.code == 2

    def test_threads_option_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["benchmark", "I.6.2", "--threads", "2", "--out", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("extra,rc,msg", [
        (["shape = 3,1"], 2, "config error"),
        (["dense_head = true", "[train]", "learning_rate = 1e160"], 3,
         "numeric failure")])
    def test_worker_error_keeps_exit_code(self, tmp_path, capsys, extra, rc, msg):
        cfg = tiny(tmp_path, out="werr", model=extra)
        assert main(["benchmark", "I.6.2", "--config", cfg]) == rc
        assert capsys.readouterr().err.startswith(msg)

    def test_two_equations_match_single_runs(self, tmp_path):
        both = tiny(tmp_path, out="both")
        assert main(["benchmark", "x2-y2", "I.6.2", "--config", both]) == 0
        singles = []
        for eq, out in (("x2-y2", "one"), ("I.6.2", "two")):
            assert main(["benchmark", eq, "--config", tiny(tmp_path, out=out)]) == 0
            singles.append((tmp_path / out / "benchmark.csv").read_text()
                           .splitlines())
            assert ((tmp_path / out / f"bench_{eq}.csv").read_bytes()
                    == (tmp_path / "both" / f"bench_{eq}.csv").read_bytes())
        rows = (tmp_path / "both" / "benchmark.csv").read_text().splitlines()
        assert rows == singles[0] + singles[1][1:]


class TestCompareActivations:
    def test_sin_budget_16_reaches_1e2(self, tmp_path, capsys):
        # over [0, pi] the encode is the identity map, so sin(x) is one
        # rotation away and a 16-parameter circuit must nail it
        cfg = cfg_file(tmp_path, f"""
[dataset]
n_samples = 1000
seed = 11
split_seed = 11
range_lo = 0
range_hi = {np.pi!r}

[train]
learning_rate = 0.05
max_steps = 600
early_stop_patience = 600

[output]
dir = {tmp_path / "cmp"}
""")
        assert main(["compare-activations", "sin", "--budgets", "16",
                     "--config", cfg]) == 0
        header, rows = read_csv_rows(tmp_path / "cmp" / "compare_activations.csv")
        assert header == ["budget", "dr_rmse", "spline_s1_rmse",
                          "spline_s0.05_rmse"]
        assert len(rows) == 1
        assert float(rows[0][1]) < 1e-2
        svg = tmp_path / "cmp" / "compare_sin_16.svg"
        assert ET.parse(svg).getroot().tag.endswith("svg")

    def test_odd_budget_warns_and_rounds_down(self, tmp_path):
        cfg = cfg_file(tmp_path, f"""
[dataset]
n_samples = 200
[train]
max_steps = 20
early_stop_patience = 20
[output]
dir = {tmp_path / "odd"}
""")
        with pytest.warns(RuntimeWarning, match="odd DR budget 5"):
            assert main(["compare-activations", "fig4_fn", "--budgets", "5",
                         "--config", cfg]) == 0
        _, rows = read_csv_rows(tmp_path / "odd" / "compare_activations.csv")
        assert rows[0][0] == "5"

    def test_unknown_target(self, tmp_path, capsys):
        assert main(["compare-activations", "mystery",
                     "--out", str(tmp_path / "x")]) == 2
        assert "mystery" in capsys.readouterr().err


def test_list_equations(capsys):
    assert main(["list-equations"]) == 0
    text = capsys.readouterr().out
    for token in ("I.6.2", "I.15.3x", "x2-y2", "exp_sin_poly", "fig4_fn"):
        assert token in text
