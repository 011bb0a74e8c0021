"""End-to-end benchmark of quirk: train, prune, read out, save/load, score
and serve, driven through the package's public API.

    python3 benchmarks/run.py --workload recipe --seed 1 --seconds 36 --trace 0
    python3 benchmarks/run.py --smoke

One run executes one workload's pipeline in this process with one caller:

1. set-up: data generation, split, unit-scaled targets, spec,
   ``init_model``, normaliser fit;
2. ``train`` for a fixed step count (patience = steps);
3. ``prune`` with fine-tuning;
4. save and load of the pruned model;
5. ``interpret.report`` on the loaded model;
6. serving rounds until ``--seconds`` have passed since the run began
   (and at least 3000 requests): 40 set-ups, a short ``train``, one prune
   again, three ``network_forward`` calls on the large scoring batch, a
   few ``report`` calls, then a block of single-row requests in a closed
   loop.

Every timed call, each request included, is bracketed by probes of the
host's speed and reported at one reference speed (see hostspeed.py).  Each timing is the median over the rounds of the
round's own figure (its mean set-up, its short ``train``, its prune,
its mean ``report``, its mean scoring call, its median request), so it
spans the whole serving stretch.  ``time_to_target_s`` comes from the
one long ``train`` of step 2: the steps it took to reach the target,
divided by ``train_steps_per_s``.  The per-module ``serve.request_p99_ms``
is the median over stretches of 1000 requests of each stretch's p99.

Every output is checked (see checks.py); each check is one operation, as
is each pipeline call before the rounds, and a failed check is a failed
operation.  Every call in the rounds, each request included, has its own
check.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-module metrics with ``--trace 1``.
A readable table of both goes to standard error.

``--seed`` draws the served rows (scoring batch, requests, rows and angles
the checks use); they are generated once, outside the timed set-up.
Training data and initial angles are pinned per workload by
``--data-seed`` (default 11) and ``--init-seed`` (default 0), so that every
run of a workload trains the same model.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: the kernels are elementwise numpy with small
# solves, and a second thread only adds scheduling noise on a small box.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

try:
    import numpy as np
    import oracles
    from quirk.data import Dataset, generate, target_scale
    from quirk.interpret import report, surrogate_forward
    from quirk.network import (fit_input_norm, init_model, layer_forward,
                               load_model, network_backward, network_forward,
                               param_count, save_model, spec_from_shape)
    from quirk.train import TrainConfig, prune, train
except ImportError as exc:
    sys.exit(f"run.py: cannot import the program under test from {ROOT}: {exc}")

import checks  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SERVE_SEED_OFFSET = 1_000_000  # served rows never share a stream with training
SETUPS_PER_ROUND = 40          # a set-up takes about 2 ms
SCORES_PER_ROUND = 3           # a scoring call takes about 45 ms
MIN_REQUESTS = 3000            # at least three p99 segments
P99_SEGMENT = 1000             # requests per p99 segment: >= 10 beyond p99
ORACLE_ROWS = 4
FD_ROWS = 64
FD_PARAMS = 4
LAYER_REPEATS = 5
ROW_REPEATS = 200

# the host-speed probe each timed phase is scaled by (see hostspeed.py)
KIND = {"setup": "mixed", "train": "mixed", "prune": "mixed",
        "score": "mixed", "report": "mixed", "request": "request"}

END_TO_END_UNITS = {
    "setup_s": "s", "train_steps_per_s": "steps/s", "time_to_target_s": "s",
    "test_rmse": "unit-scale", "prune_s": "s", "pruned_test_rmse": "unit-scale",
    "interpret_ms": "ms", "surrogate_rmse": "unit-scale",
    "score_rows_per_s": "rows/s", "request_p50_ms": "ms", "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "data.generate_ms": "ms", "network.init_ms": "ms", "train.step_ms": "ms",
    "train.backward_ms": "ms", "train.train_forward_ms": "ms",
    "train.val_forward_ms": "ms", "train.adam_ms": "ms", "train.other_ms": "ms",
    "network.backward_peak_mb": "MB",
    "network.layer0.forward_ms": "ms", "network.layer1.forward_ms": "ms",
    "network.layer2.forward_ms": "ms",
    "network.layer0.row_us": "us", "network.layer1.row_us": "us",
    "network.layer2.row_us": "us",
    "train.edge_scores_ms": "ms", "train.finetune_step_ms": "ms",
    "train.edges_pruned": "count", "dr.forward_batch_ms": "ms",
    "interpret.fit_ms": "ms", "interpret.lstsq_solves": "count",
    "interpret.edges_fitted": "count", "interpret.surrogate_ms": "ms",
    "interpret.model_forward_ms": "ms", "serve.request_p99_ms": "ms",
}


class Ledger:
    """Operations attempted and failed; a failed check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def op(self, ok: bool = True, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def _unit_scaled(ds: Dataset) -> Dataset:
    _, y_train = ds.part("train")
    return Dataset(ds.X, ds.y / target_scale(y_train), ds.columns, ds.splits,
                   ds.seed)


def set_up(w, data_seed: int, init_seed: int):
    """Build data and the initial model; returns the pieces and the seconds
    spent in generate() and init_model()."""
    t0 = time.perf_counter()
    raw = generate(w.equation, w.n_samples, seed=data_seed)
    t_generate = time.perf_counter() - t0
    ds = _unit_scaled(raw.split(seed=data_seed))
    spec = spec_from_shape(list(w.shape), dr_layers=w.dr_layers, seed=init_seed,
                           qubits_per_edge=w.qubits_per_edge,
                           entangle=w.entangle)
    t0 = time.perf_counter()
    model = init_model(spec)
    t_init = time.perf_counter() - t0
    model.input_norm = fit_input_norm(ds.part("train")[0])
    return (ds, spec, model), t_generate, t_init


def _same(a, b, rel=1e-12) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _layer_inputs(model, X):
    """Each network layer's own normalised inputs for raw rows X."""
    spec = model.spec
    h = checks.normalise(model.input_norm, X)
    inputs = []
    for k, layer in enumerate(spec.layers):
        inputs.append(h)
        v = layer_forward(h, model.thetas[k], model.edge_active[k],
                          layer.entangle, spec.template)
        h = checks.rescale(v, checks.divisors(model.edge_active[k]),
                           spec.bias_flag)
    return inputs


def _time_layers(layer: dict, model, X, metric: str, scale: float,
                 repeats: int) -> None:
    """Median time of ``layer_forward`` on each layer's own inputs for raw
    rows X, stored as ``network.layer{k}.<metric>`` in the given unit."""
    spec = model.spec
    for k, h in enumerate(_layer_inputs(model, X)):
        args = (model.thetas[k], model.edge_active[k], spec.layers[k].entangle,
                spec.template)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            layer_forward(h, *args)
            times.append(time.perf_counter() - t0)
        layer[f"network.layer{k}.{metric}"] = statistics.median(times) * scale


def _install(tracer: Tracer, n_val: int) -> None:
    # quirk.train as a package attribute is the train() function, so the
    # module comes from importlib
    train_mod = importlib.import_module("quirk.train")
    interp_mod = importlib.import_module("quirk.interpret")
    tracer.wrap(train_mod, "network_backward", "backward")
    tracer.wrap(train_mod, "network_forward",
                lambda X, model: ("val_forward" if np.shape(X)[0] == n_val
                                  else "train_forward"))
    tracer.wrap(train_mod, "adam_step", "adam")
    tracer.wrap(train_mod, "edge_scores", "edge_scores")
    tracer.wrap(interp_mod, "dr_forward_batch", "dr_forward_batch")
    tracer.wrap(interp_mod, "fit_poly", "fit_poly")
    tracer.wrap(interp_mod, "surrogate_forward", "surrogate")
    tracer.wrap(interp_mod, "network_forward", "model_forward")
    # every linear solve made during report(), whichever function makes it
    tracer.wrap(np.linalg, "solve", "linear_solve")
    tracer.wrap(np.linalg, "lstsq", "linear_solve")


def _model_bytes(model) -> bytes:
    return b"".join(a.tobytes() for a in model.thetas + model.edge_active
                    + [model.input_norm])


def run_workload(w, seed: int, data_seed: int, init_seed: int,
                 seconds: float, traced: bool, min_requests: int = MIN_REQUESTS):
    """Run one workload's pipeline; returns (end_to_end, per_layer, ledger,
    info)."""
    start = time.perf_counter()
    deadline = start + seconds
    ledger = Ledger()
    rng = np.random.default_rng(seed)
    e2e = {}
    layer = {name: 0.0 for name in PER_LAYER_UNITS}
    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer()
    # per serving round: (measured, at reference speed) of each timed phase
    samples = {phase: [] for phase in KIND}
    gen_s, init_s, prune_spans, report_spans = [], [], [], []

    def measure(phase, fn, *args, per=1, **kwargs):
        out, measured, at_ref = hostspeed.timed(KIND[phase], fn, *args, **kwargs)
        samples[phase].append((measured / per, at_ref / per))
        return out

    def set_ups(n):
        built = []
        for _ in range(n):
            b, t_gen, t_init = set_up(w, data_seed, init_seed)
            gen_s.append(t_gen)
            init_s.append(t_init)
            built.append(b)
        return built

    def traced_prune(model):
        tracer.take()
        pruned = prune(model, ds, tau=w.tau, config=cfg,
                       fine_tune_steps=w.fine_tune_steps)
        prune_spans.append(tracer.take()[0])
        return pruned

    def traced_reports(model, n):
        reps = []
        for _ in range(n):
            tracer.take()
            reps.append(report(model, ds))
            report_spans.append(tracer.take())
        return reps

    # 1. set-up
    (ds, spec, initial), _, _ = set_up(w, data_seed, init_seed)
    ledger.op()
    X_tr, y_tr = ds.part("train")
    X_val, y_val = ds.part("val")
    X_te, y_te = ds.part("test")
    setup_ref = ds.X.tobytes() + ds.y.tobytes() + _model_bytes(initial)
    X_serve = generate(w.equation, w.score_rows, seed=SERVE_SEED_OFFSET + seed).X
    cfg = TrainConfig(learning_rate=w.learning_rate, max_steps=w.steps,
                      seed=init_seed, early_stop_patience=w.steps,
                      batch_size=w.batch_size)
    round_cfg = replace(cfg, max_steps=w.round_steps,
                        early_stop_patience=w.round_steps)
    try:
        if traced:
            _install(tracer, n_val=X_val.shape[0])
        # 2. train
        t0 = time.perf_counter()
        model, hist = train(ds, spec, cfg)
        train_s = time.perf_counter() - t0
        spent, _ = tracer.take()
        ledger.op(len(hist.steps) == w.steps,
                  f"train ran {len(hist.steps)} of {w.steps} steps")
        steps = len(hist.steps)
        val = np.asarray(hist.val_rmse)
        hit = np.nonzero(val <= w.val_target)[0]
        steps_to_target = hist.steps[hit[0]] if hit.size else steps
        ledger.op(hit.size > 0, f"validation RMSE never reached "
                  f"{w.val_target} (best {val.min():.4g})")
        if traced:
            step_ms = train_s * 1e3 / steps
            parts = {"backward": "train.backward_ms",
                     "train_forward": "train.train_forward_ms",
                     "val_forward": "train.val_forward_ms",
                     "adam": "train.adam_ms"}
            layer["train.step_ms"] = step_ms
            for span, name in parts.items():
                layer[name] = spent.get(span, 0.0) * 1e3 / steps
            layer["train.other_ms"] = step_ms - sum(layer[n] for n in parts.values())

        pred = network_forward(X_te, model)
        e2e["test_rmse"] = checks.rmse(pred, y_te)
        ledger.op(e2e["test_rmse"] < w.test_tol,
                  f"test RMSE {e2e['test_rmse']:.4g} >= {w.test_tol}")
        own_val = checks.rmse(network_forward(X_val, model), y_val)
        ledger.op(_same(own_val, hist.best_val_rmse),
                  f"best validation RMSE {hist.best_val_rmse!r} != {own_val!r}")

        if traced:
            b = w.batch_size or X_tr.shape[0]
            tracemalloc.start()
            network_backward(X_tr[:b], y_tr[:b], model)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            layer["network.backward_peak_mb"] = peak / 2**20
            _time_layers(layer, model, X_tr, "forward_ms", 1e3, LAYER_REPEATS)

        # 3. prune and fine-tune
        pruned = traced_prune(model)
        ledger.op()
        pruned_ref = _model_bytes(pruned)
        ledger.op(param_count(pruned) < param_count(model),
                  f"pruning kept all {param_count(model)} parameters")
        pruned_pred = network_forward(X_te, pruned)
        e2e["pruned_test_rmse"] = checks.rmse(pruned_pred, y_te)
        ledger.op(e2e["pruned_test_rmse"] < w.pruned_tol,
                  f"pruned test RMSE {e2e['pruned_test_rmse']:.4g} >= "
                  f"{w.pruned_tol}")

        # 4. save and load
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            path = Path(tmp) / "model.txt"
            save_model(pruned, path)
            served = load_model(path)
        ledger.op(network_forward(X_te, served).tobytes() == pruned_pred.tobytes(),
                  "loaded model's outputs differ from the saved model's")

        # 5. read-out, checked against an evaluation made here
        (rep,) = traced_reports(served, 1)
        ledger.op()
        own_surrogate = checks.surrogate_eval(rep, X_te)
        gap = float(np.max(np.abs(own_surrogate - surrogate_forward(rep, X_te))))
        ledger.op(gap <= checks.SURROGATE_TOL,
                  f"surrogate from coefficients differs by {gap:.3g}")
        e2e["surrogate_rmse"] = checks.rmse(own_surrogate, pruned_pred)
        ledger.op(_same(e2e["surrogate_rmse"], rep.surrogate_rmse, 1e-9),
                  f"report.surrogate_rmse {rep.surrogate_rmse!r} != "
                  f"{e2e['surrogate_rmse']!r}")
        ledger.op(_same(rep.model_rmse, e2e["pruned_test_rmse"], 1e-9),
                  f"report.model_rmse {rep.model_rmse!r} != "
                  f"{e2e['pruned_test_rmse']!r}")

        # gate-by-gate recomputation and finite differences
        for name, m in (("initial", initial), ("served", served)):
            for x in X_serve[:ORACLE_ROWS]:
                want = checks.oracle_forward(m, x, oracles)
                got = network_forward(x, m)
                ledger.op(abs(got - want) <= checks.ORACLE_TOL,
                          f"{name} model: output {got!r} vs matrix "
                          f"recomputation {want!r}")
        rows = rng.choice(X_tr.shape[0], size=min(FD_ROWS, X_tr.shape[0]),
                          replace=False)
        for where, analytic, numeric, ok in checks.fd_gradient_checks(
                served, X_tr[rows], y_tr[rows], network_forward,
                network_backward, rng, FD_PARAMS):
            ledger.op(ok, f"gradient at {where}: backward {analytic!r} vs "
                          f"finite difference {numeric!r}")

        if traced:
            # single rows through the served model, as the requests see it
            _time_layers(layer, served, X_serve[:1], "row_us", 1e6, ROW_REPEATS)

        # 6. serving rounds.  Set-up, a short train(), prune and report run
        # again in every round, so each timing is a median over the whole
        # serving stretch.  Each is timed between probes of the host's speed
        # (hostspeed.py); the requests of a round are interleaved with them.
        bound = checks.output_bound(served)
        n_rows = X_serve.shape[0]
        score_ref = round_ref = None
        latencies, block_p50, lat_at_ref, outputs = [], [], [], []
        rounds = 0
        while True:
            for b in measure("setup", set_ups, SETUPS_PER_ROUND,
                             per=SETUPS_PER_ROUND):
                ledger.op(b[0].X.tobytes() + b[0].y.tobytes()
                          + _model_bytes(b[2]) == setup_ref,
                          "set-up gave different data or model")

            short, short_hist = measure("train", train, ds, spec, round_cfg)
            ledger.op(len(short_hist.steps) == w.round_steps,
                      f"short train ran {len(short_hist.steps)} of "
                      f"{w.round_steps} steps")
            if round_ref is None:
                round_ref = _model_bytes(short)
            ledger.op(_model_bytes(short) == round_ref,
                      "training the same model twice gave different models")

            ledger.op(_model_bytes(measure("prune", traced_prune, model))
                      == pruned_ref,
                      "pruning the same model twice gave different models")

            for out in measure("score", lambda: [
                    network_forward(X_serve, served)
                    for _ in range(SCORES_PER_ROUND)], per=SCORES_PER_ROUND):
                if score_ref is None:
                    score_ref = out
                    worst = float(np.max(np.abs(out)))
                    ledger.op(worst <= bound, f"|output| {worst!r} exceeds "
                              f"the live fan-in {bound} of the last unit")
                else:
                    ledger.op(out.tobytes() == score_ref.tobytes(),
                              "scoring the same batch twice gave different "
                              "outputs")

            for r in measure("report", traced_reports, served,
                             w.reports_per_round, per=w.reports_per_round):
                ledger.op(r.surrogate_rmse == rep.surrogate_rmse,
                          "report() gave a different surrogate on the same model")

            # a probe before every request and after the last; each request
            # is scaled by the mean of the two probes around it.  The host
            # changes speed within a block, so one factor per block made
            # its slow part the tail.
            block, probes = [], hostspeed.probe(KIND["request"], 1)
            for _ in range(w.request_block):
                x = X_serve[len(outputs) % n_rows]
                t0 = time.perf_counter_ns()
                y = network_forward(x, served)
                block.append((time.perf_counter_ns() - t0) / 1e9)
                outputs.append(y)
                probes += hostspeed.probe(KIND["request"], 1)
            latencies += block
            scaled = [hostspeed.at_reference(KIND["request"], t, probes[i:i + 2])
                      for i, t in enumerate(block)]
            lat_at_ref += scaled
            block_p50.append(statistics.median(scaled))
            rounds += 1
            if len(outputs) >= min_requests and time.perf_counter() >= deadline:
                break
    finally:
        tracer.close()

    for j, y in enumerate(outputs):
        ledger.op(y == score_ref[j % n_rows],
                  f"request {j}: single-row output {y!r} != batch output "
                  f"{score_ref[j % n_rows]!r}")

    def median_at_ref(phase):
        return statistics.median(at_ref for _, at_ref in samples[phase])

    e2e["setup_s"] = median_at_ref("setup")
    e2e["train_steps_per_s"] = w.round_steps / median_at_ref("train")
    # the steps the long train() needed, at the short trains' step rate
    e2e["time_to_target_s"] = steps_to_target / e2e["train_steps_per_s"]
    e2e["prune_s"] = median_at_ref("prune")
    e2e["interpret_ms"] = median_at_ref("report") * 1e3
    e2e["score_rows_per_s"] = n_rows / median_at_ref("score")
    # median of each round's block of requests, median over the rounds
    e2e["request_p50_ms"] = statistics.median(block_p50) * 1e3
    # p99 of each stretch of at least P99_SEGMENT requests, median over the
    # stretches: a stretch in which the host took the CPU away for
    # milliseconds at a time reads several times higher.  Reported without
    # a bound: on multiqubit's 2.4-ms requests it follows how often the
    # host takes the CPU away, and spread 0.26-0.30 over ten runs.
    lat_ms = np.asarray(lat_at_ref) * 1e3
    segments = np.array_split(lat_ms, max(1, len(lat_ms) // P99_SEGMENT))
    layer["serve.request_p99_ms"] = float(np.median([np.percentile(s, 99)
                                                     for s in segments]))
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if traced:
        layer["data.generate_ms"] = statistics.median(gen_s) * 1e3
        layer["network.init_ms"] = statistics.median(init_s) * 1e3
        fell = sum(int(a.sum()) for a in model.edge_active) - sum(
            int(a.sum()) for a in served.edge_active)
        layer["train.edges_pruned"] = float(fell)
        # the prunes of the rounds, timed as measured
        prune_s = [measured for measured, _ in samples["prune"]]
        scoring = [s.get("edge_scores", 0.0) for s in prune_spans[1:]]
        layer["train.edge_scores_ms"] = statistics.fmean(scoring) * 1e3
        layer["train.finetune_step_ms"] = (
            (sum(prune_s) - sum(scoring)) * 1e3
            / (len(prune_s) * max(w.fine_tune_steps, 1)))

        def per_report(span):
            return statistics.fmean(s.get(span, 0.0) for s, _ in report_spans) * 1e3
        layer["dr.forward_batch_ms"] = per_report("dr_forward_batch")
        layer["interpret.fit_ms"] = per_report("fit_poly")
        layer["interpret.surrogate_ms"] = per_report("surrogate")
        layer["interpret.model_forward_ms"] = per_report("model_forward")
        layer["interpret.edges_fitted"] = float(report_spans[0][1].get("fit_poly", 0))
        layer["interpret.lstsq_solves"] = float(
            report_spans[0][1].get("linear_solve", 0))
    info = {"rounds": rounds, "requests": len(outputs),
            "train_s": train_s, "wall_s": time.perf_counter() - start,
            "measured": {phase: statistics.median(
                [m for m, _ in samples[phase]] if samples[phase] else latencies)
                for phase in KIND}}
    return e2e, layer, ledger, info


def _result(e2e, layer, ledger, traced: bool) -> dict:
    units = PER_LAYER_UNITS if traced else END_TO_END_UNITS
    values = layer if traced else e2e
    metrics = {}
    for name, unit in units.items():
        v = float(values[name])
        if not math.isfinite(v):
            raise ValueError(f"metric {name} is not finite: {v}")
        metrics[name] = {"value": v, "unit": unit}
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed, "metrics": metrics}


def _table(name, e2e, layer, ledger, info, traced) -> str:
    lines = [f"== {name}: {ledger.attempted} operations, {ledger.failed} failed; "
             f"{info['rounds']} serving rounds, {info['requests']} requests, "
             f"train {info['train_s']:.2f} s, wall {info['wall_s']:.2f} s"]
    for metric, unit in END_TO_END_UNITS.items():
        lines.append(f"  {metric:28s} {e2e[metric]:14.6g} {unit}")
    lines.append("  as measured, before scaling to the reference speed, median "
                 "over the rounds: " + ", ".join(
                     f"{phase} {s * 1e3:.4g} ms"
                     for phase, s in info["measured"].items()))
    if traced:
        for metric, unit in PER_LAYER_UNITS.items():
            lines.append(f"  {metric:28s} {layer[metric]:14.6g} {unit}")
    lines += [f"  FAILED: {what}" for what in ledger.failures]
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="seed of the served rows and of the checks' picks")
    ap.add_argument("--seconds", type=float, default=36.0,
                    help="serving rounds run until this long after the start")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: time module calls and print per-module metrics")
    ap.add_argument("--data-seed", type=int, default=11,
                    help="data and split seed of the training set")
    ap.add_argument("--init-seed", type=int, default=0,
                    help="initial-angle and optimizer seed")
    ap.add_argument("--smoke", action="store_true",
                    help="a few steps of every workload (or --workload); "
                         "exit 1 on any failed check")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")

    traced = bool(args.trace)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    failed = 0
    for name in names:
        w = workloads.get(name, smoke=args.smoke)
        e2e, layer, ledger, info = run_workload(
            w, args.seed, args.data_seed, args.init_seed,
            0.0 if args.smoke else args.seconds, traced,
            min_requests=w.request_block * 2 if args.smoke else MIN_REQUESTS)
        print(_table(name, e2e, layer, ledger, info, traced), file=sys.stderr)
        failed += ledger.failed
        print(json.dumps(_result(e2e, layer, ledger, traced)), flush=True)
    return 1 if args.smoke and failed else 0


if __name__ == "__main__":
    sys.exit(main())
