"""Correlated randomness is drawn in one place: each protocol in ``sharing``
draws the triples and input pairs its operands need from the party's dealer
view, so no other module calls a dealer draw method.  Stdlib ``ast`` only,
like the ``.data`` check."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mpcadapter"

DRAWS = {"arith_triple", "matmul_triple", "bin_triple",
         "arith_input_pair", "bin_input_pair"}


def draw_calls(source: str) -> list:
    """Line of every call of a dealer draw method, by attribute or by name."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", getattr(node.func, "id", None)) in DRAWS)


def test_scan_finds_planted_draws():
    src = ("t = dealer.arith_triple(x.shape, y.shape)\n"
           "def f(d):\n"
           "    return d.bin_input_pair((3,))[0]\n"
           "g = matmul_triple\n"
           "h = matmul_triple(a, b)\n"
           "arith_triple = 1\n")
    assert draw_calls(src) == [1, 3, 5]


def test_only_sharing_draws_from_the_dealer():
    found = {p.name: draw_calls(p.read_text()) for p in sorted(SRC.glob("*.py"))
             if p.name != "sharing.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert draw_calls((SRC / "sharing.py").read_text())
