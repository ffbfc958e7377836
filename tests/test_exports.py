"""The package exports only what its own code or the traced benchmark uses.

A public function or class that only the tests reach belongs in the tests,
as an oracle, not in ``sphlab``.
"""

import ast
import importlib.util
import pathlib

import sphlab

PACKAGE = pathlib.Path(sphlab.__file__).parent
SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


class _Loads(ast.NodeVisitor):
    """Names loaded anywhere except inside the definition that binds them."""

    def __init__(self) -> None:
        self.enclosing: list[str] = []
        self.loaded: set[str] = set()

    def _definition(self, node) -> None:
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_FunctionDef = visit_ClassDef = _definition

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and node.id not in self.enclosing:
            self.loaded.add(node.id)


def _loaded_by_package() -> set[str]:
    visitor = _Loads()
    for path in sorted(PACKAGE.glob("*.py")):
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
    return visitor.loaded


def _traced_by_benchmark() -> set[str]:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {func for _, func, _ in spans.TARGETS}


def test_every_public_function_is_used_by_the_package_or_traced():
    public = {name for name in sphlab.__all__ if callable(getattr(sphlab, name))}
    unused = public - _loaded_by_package() - _traced_by_benchmark()
    assert not unused, f"exported but reached only from the tests: {sorted(unused)}"
