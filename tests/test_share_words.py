"""Shares are plain uint64 word arrays, and ``ndarray.data`` is a
memoryview: a ``.data`` left on a share word does not raise, it computes
garbage.  So ``sharing`` reads no ``.data`` attribute, and ``nn`` reads it
only in the functions that unwrap ``FixedTensor`` arguments at its API
edges.  Stdlib ``ast`` only, like the unused-import check."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mpcadapter"

# The nn functions that take FixedTensors and unwrap each one once.
NN_FIXED_TENSOR_EDGES = {"pipeline_forward_plain", "_setup"}


def data_reads(source: str) -> list:
    """(line, innermost enclosing function or None) of every ``.data``."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "data":
                found.append((child.lineno, func))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else func)

    visit(ast.parse(source), None)
    return sorted(found)


def test_scan_finds_planted_data_reads():
    src = ("w = t.data\n"
           "def edge(t):\n"
           "    return {k: v.data for k, v in t.items()}\n"
           "class Backend:\n"
           "    def mul(self, x, y):\n"
           "        return x.data * y\n")
    assert data_reads(src) == [(1, None), (3, "edge"), (6, "mul")]


def test_sharing_reads_no_data():
    assert data_reads((SRC / "sharing.py").read_text()) == []


def test_nn_reads_data_only_at_fixed_tensor_edges():
    funcs = {func for _, func in data_reads((SRC / "nn.py").read_text())}
    assert funcs == NN_FIXED_TENSOR_EDGES
