"""The benchmark harness reaches into the package by name; a renamed or
removed name must fail here, not only in a benchmark run.  The package's own
modules keep to network.py's public names and evaluate an edge only from its
compiled series."""

import ast
import importlib
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "benchmarks" / "run.py"


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
    kernel = {"dr_forward_batch", "_forward", "_grad", "_sweep"}
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
