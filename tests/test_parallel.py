"""The library's one parallel map, and the places that may decide parallelism."""

import ast
import threading
from pathlib import Path

import pytest

from heatlab import grid as g

SRC = Path(__file__).resolve().parent.parent / "src" / "heatlab"


def _sites(name: str) -> set:
    """(module, innermost enclosing function or None, node type) of every
    mention of `name` in src/heatlab: an attribute, a bare name or an
    imported name (aliased or not)."""
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        def visit(node, func):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = node.name
            if ((isinstance(node, ast.Attribute) and node.attr == name)
                    or (isinstance(node, ast.Name) and node.id == name)
                    or (isinstance(node, (ast.Import, ast.ImportFrom))
                        and any(a.name.split(".")[-1] == name for a in node.names))):
                sites.add((path.stem, func, type(node).__name__))
            for child in ast.iter_child_nodes(node):
                visit(child, func)

        visit(ast.parse(path.read_text()), None)
    return sites


def test_thread_pools_start_only_in_map_blocks():
    # grid imports the pool and constructs it in `_map_blocks`; no other
    # module names it
    assert _sites("ThreadPoolExecutor") == {("grid", None, "ImportFrom"),
                                            ("grid", "_map_blocks", "Name")}


def test_cpu_mask_is_read_only_by_the_worker_count_and_the_cli():
    assert _sites("sched_getaffinity") == {("grid", "_workers", "Attribute"),
                                           ("cli", "main", "Attribute")}


def test_map_blocks_keeps_order_and_raises_the_first_failure(monkeypatch):
    pools = []

    class Recording(g.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(g, "ThreadPoolExecutor", Recording)
    for cpus in (1, 2, 8):
        monkeypatch.setattr(g.os, "sched_getaffinity", lambda pid, c=cpus: set(range(c)))
        before = threading.active_count()
        pools.clear()
        assert g._map_blocks(lambda x: x * x, list(range(10))) == [x * x for x in range(10)]
        assert g._map_blocks(abs, []) == []
        assert g._map_blocks(abs, [-3]) == [3]
        # one worker per CPU, at most one per block; inline with one
        assert pools == ([] if cpus == 1 else [min(cpus, 10)])
        # block 3 fails only after block 6 has failed, yet its error is raised
        later = threading.Event()

        def fail(x):
            if x == 6:
                later.set()
                raise KeyError(x)
            if x == 3:
                later.wait(5.0 if cpus > 1 else 0.0)
                raise ValueError(x)
            return x

        with pytest.raises(ValueError, match="^3$"):
            g._map_blocks(fail, list(range(8)))
        assert later.is_set() == (cpus > 1)
        assert threading.active_count() == before
