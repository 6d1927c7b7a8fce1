"""The C-library math left in the package, function by function.

A value that comes from the host's libm may round differently on another
host (musl, macOS, another glibc), and so move an output byte.  The scan walks
the AST of every module of ``src/qkdopt`` and counts, per enclosing function,
each reference to a transcendental function of ``math`` or ``numpy`` and each
power whose exponent is not an integer.  The count must equal
:data:`ALLOWED`: a new call fails here, and so does a listed call that is
gone, so the list only shrinks.
"""

from __future__ import annotations

import ast
import math
from collections import Counter
from pathlib import Path

from qkdopt.budget import field_types
from qkdopt.cga import CgaConfig
from qkdopt.oracle import PROTOCOLS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qkdopt"

#: (module.function, call) -> how often that function makes the call.
ALLOWED = Counter({
    ("cga.softmax_probabilities", "math.exp"): 1,
    ("cv_rate.transmissivity", "**"): 1,
    ("cv_rate.mutual_information", "math.log2"): 1,
    ("cv_rate.cv_rate_chain", "math.log2"): 2,
    ("dv_rate.worst_case_qber", "math.log"): 1,
    ("oracle.GridSpec.axis", "np.logspace"): 1,
    ("oracle.GridSpec.axis", "math.log10"): 2,
})

#: Allowed anywhere: correctly rounded or exact by the IEEE standard.
EXACT = frozenset(
    {"math.sqrt", "math.floor", "math.isfinite", "math.isnan", "math.prod",
     "np.sqrt", "np.frexp", "np.ldexp"}
)

#: numpy's exponential, logarithmic, power, trigonometric and hyperbolic
#: functions, and the grids built from them.  Every ``math`` function but
#: those in :data:`EXACT` counts.
NUMPY_TRANSCENDENTAL = frozenset(
    "exp exp2 expm1 log log2 log10 log1p logaddexp logaddexp2 power float_power "
    "sin cos tan arcsin arccos arctan arctan2 hypot sinh cosh tanh arcsinh arccosh "
    "arctanh cbrt sinc i0 logspace geomspace".split()
)

#: Fields annotated ``int``: a power with one as its exponent, such as
#: ``2.0**params.discretization``, is a product of exact operations.
INT_FIELDS = frozenset(
    name
    for cls in (*(protocol.params for protocol in PROTOCOLS.values()), CgaConfig)
    for name, (kind, _) in field_types(cls).items()
    if kind is int
)

_PREFIX = {"math": "math", "numpy": "np"}


def _integer(node: ast.expr) -> bool:
    """Whether an exponent is an integer: a literal (or its negation) or an int field."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    if isinstance(node, ast.Constant):
        return type(node.value) is int
    return isinstance(node, ast.Attribute) and node.attr in INT_FIELDS


def _transcendental(name: str) -> bool:
    prefix, attr = name.split(".")
    if name in EXACT:
        return False
    if prefix == "math":
        return callable(getattr(math, attr, None))
    return attr in NUMPY_TRANSCENDENTAL


class _Scan(ast.NodeVisitor):
    """The counted calls of one module, keyed by their enclosing function."""

    def __init__(self, module: str):
        self.scope = [module]
        self.modules: dict[str, str] = {}  # local name -> "math" or "np"
        self.functions: dict[str, str] = {}  # local name -> "math.exp", ...
        self.found: Counter = Counter()

    def _count(self, call: str) -> None:
        self.found[".".join(self.scope), call] += 1

    def _scoped(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name in _PREFIX:
                self.modules[alias.asname or alias.name] = _PREFIX[alias.name]

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module in _PREFIX:
            for alias in node.names:
                self.functions[alias.asname or alias.name] = f"{_PREFIX[node.module]}.{alias.name}"

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and node.value.id in self.modules:
            if _transcendental(name := f"{self.modules[node.value.id]}.{node.attr}"):
                self._count(name)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id in self.functions and _transcendental(self.functions[node.id]):
            self._count(self.functions[node.id])

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, ast.Pow) and not _integer(node.right):
            self._count("**")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.op, ast.Pow) and not _integer(node.value):
            self._count("**")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "pow":
            if len(node.args) < 2 or not _integer(node.args[1]):
                self._count("**")
        self.generic_visit(node)


def scan(source: str, module: str) -> Counter:
    """The counted calls of ``source``, a module named ``module``."""
    visitor = _Scan(module)
    visitor.visit(ast.parse(source))
    return visitor.found


def test_the_package_makes_only_the_allowed_libm_calls():
    found = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        found += scan(path.read_text(encoding="utf-8"), path.stem)
    assert not (new := found - ALLOWED), f"C-library math not on the list: {dict(new)}"
    assert not (gone := ALLOWED - found), f"no longer made, take off the list: {dict(gone)}"


def test_the_scan_sees_every_form_of_a_call():
    source = """
import math
import numpy as numpy_alias
from math import log as ln

LEVEL = 10.0 ** -0.5 + 10.0 ** -3

def f(x, params):
    y = math.exp(x) + ln(x) + numpy_alias.power(x, 3) + x ** 0.5 + pow(x, 1.5)
    y **= x
    weights = map(math.log1p, [x])
    return y + math.sqrt(x) + numpy_alias.sqrt(x) + x ** 2 + x ** -1 + 2.0 ** params.discretization

class C:
    def g(self, x):
        return numpy_alias.logspace(0, x, 3) + math.floor(x) + numpy_alias.minimum(x, 1)
"""
    assert scan(source, "m") == Counter({
        ("m", "**"): 1,
        ("m.f", "math.exp"): 1,
        ("m.f", "math.log"): 1,
        ("m.f", "np.power"): 1,
        ("m.f", "**"): 3,
        ("m.f", "math.log1p"): 1,
        ("m.C.g", "np.logspace"): 1,
    })
