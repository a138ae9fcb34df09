"""No function of the package takes part in a call cycle, except those listed.

Terms, formulas and proofs nest far deeper than the interpreter lets a
function recurse, so walkers use explicit stacks or `lang.fold`.  The call
graph has an edge from f to g when f calls g by its plain name and g is a
function defined in the package; a call inside a nested function counts
for the function that encloses it too, and a call to a name bound as a
parameter (a callback) is not an edge.  The allowlist names each cycle,
as the set of functions on it, and why it stays bounded; a new one must be
added here with its reason, and one that is gone must leave.
"""

import ast
from pathlib import Path

import feaslab

ALLOWED = {
    frozenset({"_rat_construction"}): "one frame per node of a small matrix-entry term",
    frozenset({"make_tower", "nat_add", "nat_mul"}): "one level per power tower",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _params(fn) -> set:
    """Names bound as parameters in fn or in any function or lambda in it."""
    names = set()
    for sub in ast.walk(fn):
        if isinstance(sub, (*_FUNCTIONS, ast.Lambda)):
            a = sub.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
                if arg is not None:
                    names.add(arg.arg)
    return names


def package_trees() -> list:
    return [
        ast.parse(path.read_text(), str(path))
        for path in sorted(Path(feaslab.__file__).parent.glob("*.py"))
    ]


def call_graph(trees) -> dict:
    """Function name -> names of the functions defined in trees it calls."""
    functions = [n for tree in trees for n in ast.walk(tree) if isinstance(n, _FUNCTIONS)]
    defined = {fn.name for fn in functions}
    graph = {name: set() for name in defined}
    for fn in functions:
        params = _params(fn)
        for sub in ast.walk(fn):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
                name = sub.func.id
                if name in defined and name not in params:
                    graph[fn.name].add(name)
    return graph


def _reach(graph: dict, start: str) -> set:
    """Functions reachable from start by one call or more."""
    seen = set()
    stack = list(graph[start])
    while stack:
        name = stack.pop()
        if name not in seen:
            seen.add(name)
            stack.extend(graph[name])
    return seen


def cycles(graph: dict) -> set:
    """The strongly connected components of graph that hold a cycle."""
    reach = {name: _reach(graph, name) for name in graph}
    return {
        frozenset(m for m in reach[name] if name in reach[m])
        for name in graph
        if name in reach[name]
    }


def limit_raisers(tree, module: str) -> set:
    """(module, innermost enclosing function) of every mention of
    setrecursionlimit in tree, as an attribute, a name or an import."""
    found = set()
    stack = [(tree, "<module>")]
    while stack:
        node, owner = stack.pop()
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            name = None
        if name == "setrecursionlimit":
            found.add((module, owner))
        for child in ast.iter_child_nodes(node):
            stack.append((child, child.name if isinstance(child, _FUNCTIONS) else owner))
    return found


def test_recursion_limit_is_never_raised():
    # a raised limit lets a recursive walker grow the C stack past its size,
    # and changes the interpreter for the whole process
    found = set()
    for path in sorted(Path(feaslab.__file__).parent.glob("*.py")):
        found |= limit_raisers(ast.parse(path.read_text()), path.stem)
    assert found == set()
    sample = ast.parse(
        "import sys\n"
        "from sys import setrecursionlimit as raise_limit\n"
        "def f():\n"
        "    def g():\n"
        "        sys.setrecursionlimit(10)\n"
        "    return g\n"
    )
    assert limit_raisers(sample, "m") == {("m", "<module>"), ("m", "g")}


def test_no_new_recursion():
    assert cycles(call_graph(package_trees())) == set(ALLOWED)


def test_ratchet_sees_cycles_through_nested_functions_but_not_callbacks():
    tree = ast.parse(
        "def f(x):\n"
        "    def inner():\n"
        "        return g(x)\n"
        "    return inner()\n"
        "def g(x):\n"
        "    return f(x)\n"
        "def h(f, x):\n"
        "    return f(x)\n"
        "def k(x):\n"
        "    return h(k, x)\n"
    )
    graph = call_graph([tree])
    assert graph == {"f": {"g", "inner"}, "inner": {"g"}, "g": {"f"}, "h": set(), "k": {"h"}}
    assert cycles(graph) == {frozenset({"f", "g", "inner"})}
