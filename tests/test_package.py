from __future__ import annotations

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import fppslab

BENCH = Path(__file__).resolve().parent.parent / "fppbench"
SRC = BENCH.parent / "src"


def test_every_exported_name_resolves_once():
    assert len(set(fppslab.__all__)) == len(fppslab.__all__)
    missing = [name for name in fppslab.__all__ if not hasattr(fppslab, name)]
    assert not missing


def _resolves(module: str, name: str) -> bool:
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return True
    try:  # a submodule, as in ``from fppslab import cli``
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_benchmark_imports_from_the_package_resolve():
    # the benchmark's files may not change with the package, so a name the
    # package drops would otherwise surface only when the benchmark runs
    imports = [
        (path.name, node.module, alias.name)
        for path in sorted(BENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and node.module
        and node.module.split(".")[0] == "fppslab"
        for alias in node.names
    ]
    assert imports
    missing = [imp for imp in imports if not _resolves(imp[1], imp[2])]
    assert not missing


def test_benchmark_worker_finds_what_it_reads_beyond_its_imports():
    # fppbench/worker.py reruns two eden-highd replicates through
    # sample_slab_crossing(..., validate=True), and reads
    # sys.modules["scipy"].__version__ for its provenance after running
    # fppslab.cli, so every run fails if either goes. The benchmark's
    # files may not change with the package: roadmap items 5 (scipy out
    # of the library) and 6 (the reference race out of eden) need a
    # benchmark change first.
    from fppslab.eden import sample_slab_crossing

    assert "validate" in inspect.signature(sample_slab_crossing).parameters
    code = "import sys, fppslab.cli; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.stdout.strip() == "True"


def test_only_the_exact_kernel_imports_heapq():
    # slab._lazy_search is the one hand-written Dijkstra loop in the package;
    # it runs a block of searches in lockstep, one heap per search
    src = Path(fppslab.__file__).resolve().parent
    importers = {
        path.relative_to(src).as_posix()
        for path in src.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Import) and any(a.name == "heapq" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "heapq"
    }
    assert importers == {"slab.py"}
