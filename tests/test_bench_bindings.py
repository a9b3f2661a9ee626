"""Every name the benchmark harness binds still resolves in the package.

bench/tracing.py wraps the layers listed in its LAYERS table, and the
workloads call the package through `import planebranch as pb`.  Both are
read here as source, without importing or editing them, so that deleting a
public name cannot silently break the traced run or a workload.
"""

import ast
import functools
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import planebranch
from planebranch import catalog, cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _resolve(obj, dotted):
    return functools.reduce(getattr, dotted.split("."), obj)


def _layers():
    tree = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no LAYERS table")


def _pb_chains(path):
    """Dotted names reached through `pb.` in one bench module."""
    chains = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "pb":
            chains.add(".".join(reversed(parts)))
    return chains


def test_traced_layers_resolve():
    layers = _layers()
    assert layers
    for name, (module, attr) in layers.items():
        assert callable(_resolve(importlib.import_module(module), attr)), name


def _run_after_plain_import(code):
    # a fresh interpreter, so that submodules imported by other tests do
    # not hide a name that `import planebranch` alone no longer exposes
    src = str(Path(planebranch.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", "import planebranch\n" + code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr


def test_workload_bindings_resolve_after_plain_import():
    chains = set()
    for path in sorted(BENCH.glob("*.py")):
        chains |= _pb_chains(path)
    assert {"cli.main", "series.RAT_BACKEND"} <= chains
    _run_after_plain_import(
        "import functools\n"
        f"for dotted in {sorted(chains)!r}:\n"
        "    functools.reduce(getattr, dotted.split('.'), planebranch)\n"
    )


def test_traced_modules_loaded_by_plain_import():
    # the tracer looks each module up in sys.modules before any workload
    # has run, so a submodule loaded only on first use cannot be wrapped
    modules = sorted({module for module, _ in _layers().values()})
    _run_after_plain_import(
        "import sys\n"
        f"missing = [m for m in {modules!r} if m not in sys.modules]\n"
        "assert not missing, missing\n"
    )


def test_reproduce_passes_the_suite_id_first(monkeypatch, capsys):
    # bench/tracing.py keys catalog.suite_<id>_s on run_reproduction's args[0]
    assert list(inspect.signature(catalog.run_reproduction).parameters) == [
        "example_id", "samples"]
    seen = []

    def record(*args, **kwargs):
        seen.append(args)
        return {"ok": True}

    monkeypatch.setattr(cli, "run_reproduction", record)
    for example in planebranch.EXAMPLE_IDS:
        assert cli.main(["reproduce", example]) == 0
    capsys.readouterr()
    assert [args[0] for args in seen] == list(planebranch.EXAMPLE_IDS)
