"""The qtop modules import one another without a cycle, counting imports
made inside functions and methods as well as those at module level."""

import ast
from pathlib import Path

import qtop

PACKAGE = Path(qtop.__file__).parent


def import_graph(package: Path) -> dict[str, set[str]]:
    """Module name -> the package's modules it imports anywhere in its
    source.  `from . import x` and `from qtop import x` name the module x
    when there is one, and the package's __init__ otherwise."""
    modules = {path.stem for path in package.glob("*.py")}
    graph = {}
    for path in package.glob("*.py"):
        edges = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                dotted = [alias.name.split(".") for alias in node.names]
                edges.update(parts[1] for parts in dotted if parts[0] == "qtop" and len(parts) > 1)
            elif isinstance(node, ast.ImportFrom):
                parts = node.module.split(".") if node.module else []
                if node.level == 0:  # absolute: only qtop's own modules count
                    if parts[:1] != ["qtop"]:
                        continue
                    parts = parts[1:]
                if parts:
                    edges.add(parts[0])
                else:
                    edges.update(a.name if a.name in modules else "__init__" for a in node.names)
        graph[path.stem] = edges & modules
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of the graph as a closed path [a, b, ..., a], or None."""
    state: dict[str, str] = {}

    def visit(path):
        node = path[-1]
        state[node] = "open"
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                found = visit(path + [nxt])
                if found:
                    return found
        state[node] = "done"
        return None

    for node in sorted(graph):
        if node not in state:
            found = visit([node])
            if found:
                return found
    return None


def test_package_import_graph_has_no_cycle():
    graph = import_graph(PACKAGE)
    assert {"cyclotomic", "manifolds", "obstruct", "walks"} <= set(graph)
    assert find_cycle(graph) is None


def test_the_cycle_finder_reads_imports_inside_functions_and_methods(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import f\n")
    (tmp_path / "a.py").write_text("from . import b\n\ndef f():\n    return b\n")
    (tmp_path / "b.py").write_text("class B:\n    def g(self):\n        from .c import h\n")
    (tmp_path / "c.py").write_text("import qtop.d\n")
    (tmp_path / "d.py").write_text("")
    assert find_cycle(import_graph(tmp_path)) is None
    (tmp_path / "d.py").write_text("def k():\n    from qtop import a\n")
    assert find_cycle(import_graph(tmp_path)) == ["a", "b", "c", "d", "a"]
    (tmp_path / "d.py").write_text("from qtop import main\n")  # not a module: the package
    assert find_cycle(import_graph(tmp_path)) == ["__init__", "a", "b", "c", "d", "__init__"]
