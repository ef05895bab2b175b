"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
name and reads some of their arguments by position.  These tests read its
source with ast, importing nothing from perfbench, and check that every
name it hooks still exists and that the arguments it reads are still where
it reads them."""

import ast
import inspect
from pathlib import Path

import pytest

from ecsmooth import arith, census, cli, cmcount, curve, dickman, ecm, lfunc

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
TREE = ast.parse(TRACER.read_text())
MODULES = {m.__name__.rsplit(".", 1)[1]: m for m in (arith, census, cli, cmcount, curve, dickman, ecm, lfunc)}


def assigned(name: str):
    """The literal value of the tracer's module-level assignment to name."""
    for node in TREE.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER.name} assigns no {name}")


def post_hook_names() -> list[str]:
    """The keys of the dict that Tracer._post_hooks returns."""
    for node in ast.walk(TREE):
        if isinstance(node, ast.FunctionDef) and node.name == "_post_hooks":
            ret = [n for n in ast.walk(node) if isinstance(n, ast.Return) and isinstance(n.value, ast.Dict)]
            return [ast.literal_eval(k) for k in ret[-1].value.keys]
    raise AssertionError(f"{TRACER.name} defines no _post_hooks")


def resolve(name: str):
    """The object a dotted "layer.attr[.attr]" name refers to, or None."""
    layer, *parts = name.split(".")
    obj = MODULES.get(layer)
    for part in parts:
        obj = vars(obj).get(part) if obj is not None else None
    return obj


def hooked_names() -> list[str]:
    extra = [f"{layer}.{path}" for layer, path in assigned("EXTRA")]
    return extra + list(assigned("_FALLBACKS")) + post_hook_names()


def test_layers_are_the_package_modules():
    assert set(assigned("LAYERS")) == set(MODULES)


@pytest.mark.parametrize("name", hooked_names())
def test_hooked_function_exists(name):
    assert inspect.isfunction(resolve(name)), name


@pytest.mark.parametrize(
    "name, leading",
    [
        ("census._compute_segment", ["curve_name", "seg_lo", "seg_hi"]),  # args[1], args[2]
        ("census._load_segment", ["path"]),  # args[0]
        ("census.OrderCache._write", ["self", "path"]),  # args[1]
        ("census.OrderCache._compute", ["self", "curve_name", "todo"]),  # args[0], args[2]
    ],
)
def test_positional_arguments_read_by_hooks(name, leading):
    assert name in hooked_names()
    params = list(inspect.signature(resolve(name)).parameters)
    assert params[: len(leading)] == leading
