"""The benchmark harness reaches into the package by name; a renamed or
removed name must fail here, not only in a benchmark run.  The package's own
modules keep to network.py's public names and evaluate an edge only from its
compiled series.  No module, test or demo imports a name it does not use."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "benchmarks" / "run.py"


def _benchmark_names() -> set:
    """(module, name) of every quirk name benchmarks/run.py imports, and of
    every name its tracer wraps on a module it loads with importlib."""
    tree = ast.parse(RUN.read_text(encoding="utf-8"))
    names, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("quirk"):
            names |= {(node.module, alias.name) for alias in node.names}
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and ast.unparse(node.value.func) == "importlib.import_module"):
            modules[node.targets[0].id] = node.value.args[0].value
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wrap" and isinstance(node.args[0], ast.Name)
                and node.args[0].id in modules):
            names.add((modules[node.args[0].id], node.args[1].value))
    return names


def test_benchmark_names_resolve():
    names = _benchmark_names()
    # the parse must see both kinds of use, or it would check nothing
    assert {("quirk.network", "layer_forward"), ("quirk.train", "adam_step"),
            ("quirk.interpret", "dr_forward_batch")} <= names
    missing = sorted(f"{module}.{name}" for module, name in names
                     if not hasattr(importlib.import_module(module), name))
    assert not missing, f"benchmarks/run.py uses missing names: {missing}"


def test_only_network_reads_its_private_names():
    """The compiled block layout is network.py's own: the modules built on it
    import no private name from it."""
    src = Path(__file__).resolve().parents[1] / "src" / "quirk"
    private = []
    for module in ("train", "interpret", "cli"):
        tree = ast.parse((src / f"{module}.py").read_text(encoding="utf-8"))
        private += [f"{module}.py: {alias.name}" for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and node.module in ("network", "quirk.network")
                    for alias in node.names if alias.name.startswith("_")]
    assert not private, f"private names imported from quirk.network: {private}"


def test_one_edge_evaluator():
    """The modules built on the network evaluate an edge only from its
    compiled series: none calls the statevector kernel, and the compile
    reaches the kernel only through dr._series."""
    src = Path(__file__).resolve().parents[1] / "src" / "quirk"
    kernel = {"dr_forward_batch", "_forward", "_grad", "_build", "_sweeps"}
    calls, series = [], 0
    for module in ("cli", "interpret", "network", "train"):
        tree = ast.parse((src / f"{module}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name in kernel:
                    calls.append(f"{module}.py:{node.lineno}: {name}")
                series += name == "_series"
    # the parse must see the compile's own call, or it would check nothing
    assert series == 1
    assert not calls, f"calls into the statevector kernel: {calls}"


def _warn_calls(module: str) -> list:
    tree = ast.parse((ROOT / "src" / "quirk" / f"{module}.py").read_text(encoding="utf-8"))
    return [f"{module}.py:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("warnings.warn", "warn")]


def test_kernel_and_network_do_not_warn():
    """dr.py and network.py report through return values and errors, not
    ad-hoc warnings: a condition worth reporting there gets a counter."""
    # the parse must see train.py's warning, or it would check nothing
    assert _warn_calls("train")
    calls = _warn_calls("dr") + _warn_calls("network")
    assert not calls, f"warnings.warn called at {calls}"


def test_network_builds_no_scalar_trig():
    """network.py forms cos x and sin x from one np.tan (see _layer_eval):
    numpy's float64 cos and sin are scalar loops, many times slower per
    element, so neither may come back into the evaluation."""
    tree = ast.parse((ROOT / "src" / "quirk" / "network.py").read_text(encoding="utf-8"))
    calls = {node.func.attr: node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    # the parse must see the tangent, or it would check nothing
    assert "tan" in calls
    trig = {name: line for name, line in calls.items() if name in ("cos", "sin")}
    assert not trig, f"network.py calls np.cos / np.sin: {trig}"


def test_compile_takes_its_trig_once(monkeypatch):
    """dr._series takes one np.cos and one np.sin of all its angles and one
    np.exp of all its encoding phases, however many layers, qubits and
    edges it compiles: trig per gate, layer or qubit must not come back."""
    from quirk import dr
    calls = []

    class Counted:
        def __getattr__(self, name):
            real = getattr(np, name)
            if name not in ("cos", "sin", "exp"):
                return real
            return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

    for template in (dr.DEFAULT_TEMPLATE, dr.SU2_TEMPLATE):
        P = template.params_per_layer
        for n, L in ((1, 1), (1, 4), (3, 1), (3, 4)):
            thetas = np.random.default_rng(L).uniform(-3, 3, (L, 6) + ((P,) if n == 1 else (n, P)))
            dr._series(thetas, n, n > 1, template)  # fills the memoised plan and DFT
            monkeypatch.setattr(dr, "np", Counted())
            calls.clear()
            dr._series(thetas, n, n > 1, template)
            monkeypatch.undo()
            assert sorted(calls) == ["cos", "exp", "sin"], (template, n, L, calls)


@pytest.mark.parametrize("batch_size", [None, 16])
def test_a_fit_prepares_its_rows_once(monkeypatch, batch_size):
    """A full-batch fit normalizes its training and validation rows once
    each; a minibatch fit normalizes its validation rows once, then each
    step's own batch."""
    from quirk import network
    from quirk.data import Dataset
    from quirk.train import TrainConfig, train
    calls, real = [], network.apply_input_norm
    monkeypatch.setattr(network, "apply_input_norm",
                        lambda norm, X: calls.append(len(X)) or real(norm, X))
    X = np.random.default_rng(11).uniform(0, 1, (60, 1))
    ds = Dataset(X, np.sin(X[:, 0]), columns=("x", "y")).split(seed=11)
    _, hist = train(ds, network.spec_from_shape([1, 2, 1], dr_layers=2, seed=0),
                    TrainConfig(max_steps=12, seed=0, early_stop_patience=12,
                                batch_size=batch_size))
    assert len(hist.steps) == 12
    n_tr, n_val = len(ds.splits["train"]), len(ds.splits["val"])
    assert calls == ([n_tr, n_val] if batch_size is None else [n_val] + [16] * 12)


# in a fresh process: the third of three rounds of 48 MiB of big arrays,
# made and freed, must reuse the heap of the first rather than fault pages in
_HEAP_ROUNDS = """
import resource
import numpy as np
import quirk
def round_():
    arrays = [np.ones(3 << 17) for _ in range(16)]  # 16 blocks of 3 MiB
    del arrays
round_()
round_()
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
round_()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's mallopt")
def test_big_temporaries_reuse_the_heap():
    """Importing quirk pins glibc's mmap and trim thresholds, so a batch's
    big temporaries cost the same whatever the process ran before.  With
    glibc's moving thresholds the third round faults in all 12288 pages."""
    out = subprocess.run([sys.executable, "-c", _HEAP_ROUNDS], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert int(out.stdout) < 100, out.stdout


def test_no_unused_imports():
    """Every imported name is read in its file, except the names that
    benchmarks/run.py pins in the package (its tracer wraps them)."""
    pinned = _benchmark_names()
    files = [p for p in sorted((ROOT / "src" / "quirk").glob("*.py"))
             if p.name != "__init__.py"]
    files += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    unused = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = f"quirk.{path.stem}" if path.parent.name == "quirk" else None
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
                       for name in names
                       if name not in read and (module, name) not in pinned]
    # the scan must see the files, or it would check nothing
    assert len(files) > 20
    assert not unused, f"unused imports: {unused}"
