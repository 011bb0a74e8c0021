"""Command-line front end.

Commands: train, eval, prune, interpret, benchmark, compare-activations,
list-equations.  Settings come from a sectioned key=value config file
(--config); unknown sections or keys are hard errors because silent typos in
hyperparameters are the dominant way reproductions go wrong.

Exit codes: 0 success, 1 IO problem, 2 config problem, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import multiprocessing
import os
import sys
import warnings

import numpy as np

from . import bspline, interpret, svgplot
from .data import (CSVFormatError, EQUATIONS, UNIVARIATE_ALIASES,
                   UNIVARIATE_TARGETS, DEFAULT_UNIVARIATE_RANGE, Dataset, finite,
                   generate, generate_univariate, read_csv_rows,
                   resolve_univariate, write_csv_rows)
from .dr import DEFAULT_TEMPLATE, SU2_TEMPLATE
from .network import (ModelFormatError, ModelVersionError, edge_samples,
                      load_model, network_forward, param_count, save_model,
                      spec_from_shape)
from .train import (DEFAULT_PRUNE_TAU, TrainConfig, TrainingDivergedError,
                    prune, rmse, train)

PUBLISHED_RESULTS = os.path.join(os.path.dirname(__file__),
                                 "published_results.csv")


class ConfigError(Exception):
    """Bad config file or bad config-level command input -> exit 2."""


# --- config parsing ---------------------------------------------------------


def _p_min(lo, kind=int):
    """Parser of ``kind`` that rejects values below ``lo``."""
    def parse(v):
        x = kind(v)
        if x < lo:
            raise ValueError(f"must be >= {lo}, got {x}")
        return x
    return parse


def _p_bool(v):
    low = v.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {v!r}")


def _p_int_list(v):
    items = [int(t) for t in v.replace(",", " ").split()]
    if not items:
        raise ValueError("needs at least one integer")
    return items


def _p_layers(v):
    """dr_layers: one int for every layer, or a comma list per layer."""
    items = _p_int_list(v)
    return items[0] if len(items) == 1 else items


def _p_batch(v):
    return None if v.strip().lower() == "full" else int(v)


def _p_template(v):
    name = v.strip().lower()
    if name == "default":
        return DEFAULT_TEMPLATE
    if name == "su2":
        return SU2_TEMPLATE
    raise ValueError(f"unknown template {v!r} (default | su2)")


# {section: {key: (parser, default)}}
SCHEMA = {
    "dataset": {
        "equation": (str.strip, None),
        "n_samples": (_p_min(1), 3000),
        "seed": (_p_min(0), 0),
        "split_seed": (_p_min(0), None),  # defaults to dataset seed
        "range_lo": (finite, DEFAULT_UNIVARIATE_RANGE[0]),
        "range_hi": (finite, DEFAULT_UNIVARIATE_RANGE[1]),
    },
    "model": {
        "shape": (_p_int_list, None),
        "hidden": (_p_int_list, [2, 1]),  # benchmark: shape = [arity] + hidden
        "dr_layers": (_p_layers, 3),
        "dense_head": (_p_bool, False),
        "bias_flag": (int, 0),
        "qubits_per_edge": (int, 1),
        "entangle": (_p_bool, False),
        "template": (_p_template, DEFAULT_TEMPLATE),
        "seed": (_p_min(0), 0),
    },
    "train": {
        "learning_rate": (finite, 0.01),
        "beta1": (finite, 0.9),
        "beta2": (finite, 0.999),
        "epsilon": (finite, 1e-8),
        "batch_size": (_p_batch, None),
        "max_steps": (int, 2000),
        "seed": (_p_min(0), 0),
        "early_stop_patience": (int, 500),
    },
    "prune": {
        "threshold": (_p_min(0.0, finite), DEFAULT_PRUNE_TAU),
        "fine_tune_steps": (_p_min(0), 500),
    },
    "interpret": {
        "grid_size": (_p_min(2), interpret.DEFAULT_GRID_SIZE),
        "max_degree": (_p_min(0), interpret.DEFAULT_MAX_DEGREE),
        "r2_target": (finite, interpret.DEFAULT_R2_TARGET),
        "svg": (_p_bool, True),
    },
    "benchmark": {
        "include_published": (_p_bool, True),
    },
    "output": {
        "dir": (str.strip, "quirk-out"),
    },
}


def default_config() -> dict:
    return {sec: {k: d for k, (_, d) in keys.items()}
            for sec, keys in SCHEMA.items()}


def parse_config(path) -> dict:
    """Sectioned key=value text; '#' starts a comment; unknown keys fail."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    cfg = default_config()
    section = None
    for no, line in enumerate(raw.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SCHEMA:
                raise ConfigError(
                    f"{path}:{no}: unknown section [{section}]; known: "
                    + ", ".join(sorted(SCHEMA)))
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{no}: expected 'key = value', got {line!r}")
        if section is None:
            raise ConfigError(f"{path}:{no}: key outside any [section]")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in SCHEMA[section]:
            raise ConfigError(
                f"{path}:{no}: unknown key {key!r} in [{section}]; known: "
                + ", ".join(sorted(SCHEMA[section])))
        parser, _ = SCHEMA[section][key]
        try:
            cfg[section][key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{no}: bad value for {key!r}: {exc}") from exc
    return cfg


def load_cli_config(args) -> dict:
    cfg = parse_config(args.config) if args.config else default_config()
    if getattr(args, "seed", None) is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        # one flag pins every seed for a fully reproducible run
        cfg["dataset"]["seed"] = args.seed
        cfg["dataset"]["split_seed"] = args.seed
        cfg["model"]["seed"] = args.seed
        cfg["train"]["seed"] = args.seed
    if cfg["dataset"]["split_seed"] is None:
        cfg["dataset"]["split_seed"] = cfg["dataset"]["seed"]
    if getattr(args, "out", None) is not None:
        cfg["output"]["dir"] = args.out
    return cfg


def _outdir(cfg) -> str:
    path = cfg["output"]["dir"]
    if not path:
        raise ConfigError("[output] dir must not be empty (set it in the "
                          "config or with --out)")
    os.makedirs(path, exist_ok=True)
    return path


# --- shared pieces ----------------------------------------------------------


def _load_dataset(cfg, eq=None) -> Dataset:
    """Split dataset of ``eq`` (default: the config's equation), a
    registered equation or a univariate target."""
    d = cfg["dataset"]
    eq = eq or d["equation"]
    if not eq:
        raise ConfigError("missing [dataset] key 'equation'")
    if eq in EQUATIONS:
        ds = generate(eq, d["n_samples"], seed=d["seed"])
    else:
        try:
            resolve_univariate(eq)
        except LookupError as exc:
            raise ConfigError(
                f"[dataset] equation {eq!r} is neither a registered equation "
                f"nor a univariate target: {exc}") from exc
        if not d["range_lo"] < d["range_hi"]:
            raise ConfigError(
                f"[dataset] range_lo = {d['range_lo']} must be below "
                f"range_hi = {d['range_hi']}")
        ds = generate_univariate(eq, d["n_samples"],
                                 x_range=(d["range_lo"], d["range_hi"]),
                                 seed=d["seed"])
    try:
        return ds.split(seed=d["split_seed"])
    except ValueError as exc:
        raise ConfigError(f"[dataset] n_samples = {d['n_samples']}: {exc}") from exc


def _load_with_model(args):
    """Config, saved model and dataset of a command that reads a model file."""
    cfg = load_cli_config(args)
    model = load_model(args.model)
    ds = _load_dataset(cfg)
    if ds.input_dim != model.spec.input_dim:
        raise ConfigError(
            f"model expects {model.spec.input_dim} feature(s) but dataset "
            f"{cfg['dataset']['equation']!r} has {ds.input_dim}")
    return cfg, model, ds


def _build_spec(cfg, input_dim: int):
    m = cfg["model"]
    shape = m["shape"]
    if shape is None:
        shape = [input_dim] + list(m["hidden"])
    if shape[0] != input_dim:
        raise ConfigError(
            f"[model] shape starts with {shape[0]} inputs but the dataset "
            f"has {input_dim} feature(s)")
    try:
        return spec_from_shape(shape, **{k: v for k, v in m.items()
                                         if k not in ("shape", "hidden")})
    except ValueError as exc:
        raise ConfigError(f"[model] {exc}")


def _train_config(cfg) -> TrainConfig:
    try:
        return TrainConfig(**cfg["train"])
    except ValueError as exc:
        raise ConfigError(f"[train] {exc}") from exc


def _interpret_settings(cfg) -> dict:
    """Keyword arguments of interpret.report from the [interpret] section."""
    i = cfg["interpret"]
    try:
        interpret.check_settings(i["grid_size"], i["max_degree"], i["r2_target"])
    except ValueError as exc:
        raise ConfigError(f"[interpret] {exc}") from exc
    return {k: i[k] for k in ("grid_size", "max_degree", "r2_target")}


def _test_rmse(model, ds) -> float:
    X, y = ds.part("test")
    return rmse(network_forward(X, model), y)


def _summary_line(eq: str, model, ds) -> str:
    return f"{eq} params={param_count(model)} test_rmse={_test_rmse(model, ds):.6e}"


# --- commands ---------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = load_cli_config(args)
    ds = _load_dataset(cfg)
    spec = _build_spec(cfg, ds.input_dim)
    out = _outdir(cfg)
    model, history = train(ds, spec, _train_config(cfg))
    save_model(model, os.path.join(out, "model.txt"))
    history.save_csv(os.path.join(out, "history.csv"))
    line = _summary_line(cfg["dataset"]["equation"], model, ds)
    with open(os.path.join(out, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


def cmd_eval(args) -> int:
    cfg, model, ds = _load_with_model(args)
    print(_summary_line(cfg["dataset"]["equation"], model, ds))
    return 0


def cmd_prune(args) -> int:
    cfg, model, ds = _load_with_model(args)
    out = _outdir(cfg)
    before = param_count(model)
    pruned = prune(model, ds, tau=cfg["prune"]["threshold"],
                   config=_train_config(cfg),
                   fine_tune_steps=cfg["prune"]["fine_tune_steps"])
    save_model(pruned, os.path.join(out, "model_pruned.txt"))
    line = (f"{cfg['dataset']['equation']} params={before}->"
            f"{param_count(pruned)} test_rmse={_test_rmse(pruned, ds):.6e}")
    print(line)
    return 0


def cmd_interpret(args) -> int:
    cfg, model, ds = _load_with_model(args)
    settings = _interpret_settings(cfg)
    out = _outdir(cfg)
    rep = interpret.report(model, ds, **settings)
    interpret.save_report(rep, os.path.join(out, "report.txt"))
    interpret.save_coeffs_csv(rep, os.path.join(out, "coefficients.csv"))
    if cfg["interpret"]["svg"]:
        # the rows of edge_samples follow the live edges of rep.edges
        xs = np.linspace(0.0, np.pi, settings["grid_size"])
        live = [e for e in rep.edges if e.active]
        for e, ys in zip(live, edge_samples(model, xs)):
            layer, i, u = e.edge_id
            svgplot.save(
                os.path.join(out, f"edge_{layer}_{i}_{u}.svg"),
                [svgplot.Series(xs, ys, "edge output", points=True),
                 svgplot.Series(xs, e.fit(interpret._to_t(xs)),
                                f"degree-{e.fit.degree} fit")],
                title=f"edge ({layer}, {i}, {u})", xlabel="x (encoded)",
                ylabel="f(x)")
    print(f"surrogate_rmse={rep.surrogate_rmse:.6e} "
          f"model_rmse={rep.model_rmse:.6e}")
    print(rep.summary())
    return 0


def _benchmark_one(eq: str, cfg, out: str):
    ds = _load_dataset(cfg, eq).unit_scaled()
    spec = _build_spec(cfg, ds.input_dim)
    model, _ = train(ds, spec, _train_config(cfg))
    pruned = prune(model, ds, tau=cfg["prune"]["threshold"],
                   config=_train_config(cfg),
                   fine_tune_steps=cfg["prune"]["fine_tune_steps"])
    row = [eq, _test_rmse(model, ds), param_count(model),
           _test_rmse(pruned, ds), param_count(pruned)]
    # atomic per-equation drop so a crash never leaves a half row; the pid
    # keeps workers given the same id twice off each other's temp file
    tmp = os.path.join(out, f".bench_{eq}.{os.getpid()}.tmp")
    write_csv_rows(tmp, ["equation", "rmse", "params", "pruned_rmse",
                         "pruned_params"], [row])
    os.replace(tmp, os.path.join(out, f"bench_{eq}.csv"))
    return row


def _published_columns():
    header, rows = read_csv_rows(PUBLISHED_RESULTS)
    table = {r[0]: r[1:] for r in rows}
    return header[1:], table


def cmd_benchmark(args) -> int:
    cfg = load_cli_config(args)
    known = [eq for eq in args.equations if eq in EQUATIONS]
    unknown = [eq for eq in args.equations if eq not in EQUATIONS]
    out = _outdir(cfg)
    rows = {}
    if known:
        # each equation is an independent numpy run that holds the GIL, so it
        # gets its own spawned process, at most one per CPU
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(len(known), os.cpu_count() or 1),
                mp_context=multiprocessing.get_context("spawn")) as pool:
            futs = [pool.submit(_benchmark_one, eq, cfg, out) for eq in known]
            for fut in concurrent.futures.as_completed(futs):
                row = fut.result()
                rows[row[0]] = row
                print(f"{row[0]} rmse={row[1]:.6e} params={row[2]} "
                      f"pruned_rmse={row[3]:.6e} pruned_params={row[4]}")
    header = ["equation", "rmse", "params", "pruned_rmse", "pruned_params"]
    merged = [list(rows[eq]) for eq in known]
    if cfg["benchmark"]["include_published"]:
        pub_header, pub = _published_columns()
        header += ["published_" + h for h in pub_header]
        for row in merged:
            row += pub.get(row[0], [""] * len(pub_header))
    write_csv_rows(os.path.join(out, "benchmark.csv"), header, merged)
    if unknown:
        print("unknown equation id(s), skipped: " + ", ".join(unknown),
              file=sys.stderr)
        return 2
    return 0


def cmd_compare_activations(args) -> int:
    cfg = load_cli_config(args)
    name, _ = resolve_univariate(args.target)  # LookupError -> exit 2 mapping
    ds = _load_dataset(cfg, args.target).unit_scaled()
    (Xtr, ytr), (Xte, yte) = ds.part("train"), ds.part("test")
    out = _outdir(cfg)
    smoothness = (1.0, 0.05)
    header = ["budget", "dr_rmse"] + [f"spline_s{s:g}_rmse" for s in smoothness]
    table = []
    for budget in args.budgets:
        L = budget // 2
        if budget % 2:
            warnings.warn(f"odd DR budget {budget} rounded down to {2 * L} "
                          f"parameters ({L} layers)", RuntimeWarning)
        if L < 1:
            raise ConfigError(f"budget {budget} leaves no DR layers")
        spec = spec_from_shape([1, 1], dr_layers=L, seed=cfg["model"]["seed"])
        model, _ = train(ds, spec, _train_config(cfg))
        dr_err = rmse(network_forward(Xte, model), yte)
        row = [budget, dr_err]
        fits = []
        for s in smoothness:
            m = bspline.fit((Xtr[:, 0], ytr), budget, s)
            fits.append(m)
            row.append(rmse(m.predict(Xte[:, 0]), yte))
        table.append(row)
        print(" ".join(f"{h}={v:.6e}" if isinstance(v, float) else f"{h}={v}"
                       for h, v in zip(header, row)))
        grid = np.linspace(ds.X[:, 0].min(), ds.X[:, 0].max(), 400)
        series = [
            svgplot.Series(Xte[:, 0], yte, "target (test)", points=True),
            svgplot.Series(grid, network_forward(grid[:, None], model),
                           f"DR, {2 * L} params"),
        ]
        for s, m in zip(smoothness, fits):
            series.append(svgplot.Series(grid, m.predict(grid),
                                         f"spline S={s:g}, {budget} coeffs"))
        svgplot.save(os.path.join(out, f"compare_{name}_{budget}.svg"), series,
                     title=f"{name}: budget {budget}", xlabel="x",
                     ylabel="y (unit scale)")
    write_csv_rows(os.path.join(out, "compare_activations.csv"), header, table)
    return 0


def cmd_list_equations(args) -> int:
    print(f"{'id':<10} {'vars':<5} group      variables")
    for eq_id in sorted(EQUATIONS):
        eq = EQUATIONS[eq_id]
        names = ", ".join(v[0] for v in eq.variables)
        print(f"{eq_id:<10} {eq.arity:<5} {eq.group:<10} {names}")
    print("\nunivariate targets: " + ", ".join(sorted(UNIVARIATE_TARGETS)))
    aliases = ", ".join(f"{a} -> {t}" for a, t in sorted(UNIVARIATE_ALIASES.items()))
    print("aliases: " + aliases)
    return 0


# --- entry point ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="quirk",
        description="quantum re-uploading KAN regression toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, model_arg=False):
        if model_arg:
            sp.add_argument("model", help="path to a saved model file")
        sp.add_argument("--config", help="sectioned key=value config file")
        sp.add_argument("--seed", type=int,
                        help="override every seed in the config")
        sp.add_argument("--out", help="output directory (overrides config)")

    sp = sub.add_parser("train", help="train a model on a registered dataset")
    common(sp)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval", help="test RMSE of a saved model")
    common(sp, model_arg=True)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("prune", help="prune a saved model and fine-tune")
    common(sp, model_arg=True)
    sp.set_defaults(func=cmd_prune)

    sp = sub.add_parser("interpret",
                        help="fit per-edge polynomials and report a surrogate")
    common(sp, model_arg=True)
    sp.set_defaults(func=cmd_interpret)

    sp = sub.add_parser("benchmark",
                        help="train + prune over a list of equations")
    sp.add_argument("equations", nargs="+", help="equation ids")
    common(sp)
    sp.set_defaults(func=cmd_benchmark)

    sp = sub.add_parser("compare-activations",
                        help="DR circuits vs B-splines at equal budgets")
    sp.add_argument("target", help="univariate target name or alias")
    sp.add_argument("--budgets", type=lambda v: [int(t) for t in v.split(",")],
                    default=[16, 22, 46],
                    help="comma-separated parameter budgets")
    common(sp)
    sp.set_defaults(func=cmd_compare_activations)

    sp = sub.add_parser("list-equations", help="show the dataset registry")
    sp.set_defaults(func=cmd_list_equations)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, LookupError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrainingDivergedError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ModelFormatError, ModelVersionError, CSVFormatError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
