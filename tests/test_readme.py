"""The README's solver snippets run and give the values their comments state."""

import ast
import math
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def tour_blocks() -> list[str]:
    """The python blocks of "Library quick tour", in order, taken by their fences."""
    text = README.read_text(encoding="utf-8")
    tour = text.split("\n## Library quick tour\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", tour, flags=re.S | re.M)


def run_shown(source: str) -> dict[str, list]:
    """Execute ``source`` and record the value of each expression statement, by its text.

    An expression in a loop body is recorded once per pass, in order.
    """
    tree = ast.parse(source)
    shown: dict[str, list] = {}

    class Show(ast.NodeTransformer):
        def visit_Expr(self, node):
            text = ast.Constant(ast.get_source_segment(source, node.value))
            call = ast.Call(ast.Name("_show", ast.Load()), [text, node.value], [])
            return ast.copy_location(ast.Expr(call), node)

    tree = ast.fix_missing_locations(Show().visit(tree))
    env = {"_show": lambda text, value: shown.setdefault(text, []).append(value)}
    exec(compile(tree, str(README), "exec"), env)
    return shown


def test_library_quick_tour_solver_blocks():
    solve_block, path_block = tour_blocks()[:2]
    shown = run_shown(solve_block + path_block)  # the path block reads A, b and FitProblem
    (support,) = shown["sgle.support"]
    assert support == (2, 0)
    (x,) = shown["sgle.x"]
    assert np.array_equal(x, [-3.0, -math.inf, 0.0])
    supports = shown["path.solve(FitProblem(p=1, theta=theta)).support"]
    assert supports == [(2,), (2, 0, 1), (2, 0)]
    assert shown["path.selected"] == [[2, 0, 1]]
    assert shown["path.errors"] == [[11.0, 2.0, 1.0, 0.0]]
    assert shown["GreedyPath(state, 2).solve(FitProblem(p=2, theta=1.0)).support"] == [(2, 0)]
