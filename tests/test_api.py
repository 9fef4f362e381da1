"""The public surface of ``bcpoly`` pinned name by name.

``golden/api.txt`` lists, one per line, every name the package exports and
every public method, classmethod, property and operator dunder of the
classes below, with its parameter names.  A change to the public API shows
as a change to that file; regenerate it with
``PYTHONPATH=src python tests/test_api.py`` and record the change.
"""

import inspect
from pathlib import Path
from types import ModuleType

import pytest

import bcpoly
from bcpoly.verify import run_suite

GOLDEN = Path(__file__).parent / "golden" / "api.txt"

CLASSES = (
    bcpoly.Bicomplex, bcpoly.BicomplexFunction, bcpoly.GaussianRational, bcpoly.Hyperbolic,
    bcpoly.Operator, bcpoly.Poly4, bcpoly.Sampler,
)

DUNDERS = (
    "__init__", "__eq__", "__hash__", "__bool__", "__len__", "__repr__",
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
)


def _params(fn) -> str:
    params = inspect.signature(fn).parameters.values()
    return "(" + ", ".join(str(p.replace(annotation=inspect.Parameter.empty)) for p in params) + ")"


def _describe(cls, name: str) -> str:
    raw = inspect.getattr_static(cls, name)
    label = f"{cls.__name__}.{name}"
    if isinstance(raw, (classmethod, staticmethod)):
        return f"{label} {type(raw).__name__}{_params(raw.__func__)}"
    if isinstance(raw, property):
        return f"{label} property"
    if inspect.isfunction(raw):
        return f"{label}{_params(raw)}"
    return f"{label} attribute"


def surface() -> list[str]:
    lines = [
        f"bcpoly.{name}"
        for name in sorted(dir(bcpoly))
        if not name.startswith("_") and not isinstance(getattr(bcpoly, name), ModuleType)
    ]
    for cls in CLASSES:
        for name in sorted(dir(cls)):
            if name.startswith("_"):
                # an operator dunder counts when the class, not object, supplies it
                if name not in DUNDERS or getattr(cls, name) is getattr(object, name, None):
                    continue
            lines.append(_describe(cls, name))
    return lines


def test_public_api_matches_golden():
    assert surface() == GOLDEN.read_text().splitlines()


_BAD_ARGUMENTS = {
    "main_decomposition bound 0": lambda: bcpoly.main_decomposition(bcpoly.BicomplexFunction.variable(), 0, 1),
    "almansi_complex pair": lambda: bcpoly.almansi_complex(bcpoly.Poly4.variable(0), "gamma"),
    "Sampler max_degree": lambda: bcpoly.Sampler(0, max_degree=-1),
    "run_suite name": lambda: run_suite("nosuch"),
    "run_suite trials": lambda: run_suite("mainthm-i", trials=-1),
    "Poly4.monomial key": lambda: bcpoly.Poly4.monomial((-1, 0, 0, 0)),
    "Poly4 bool exponent": lambda: bcpoly.Poly4({(True, 0, 0, 0): 1}),
    "Poly4.monomial bool exponent": lambda: bcpoly.Poly4.monomial((0, False, 2, 0)),
    "Poly4 power": lambda: bcpoly.Poly4.variable(0) ** -1,
    "Poly4.diff times": lambda: bcpoly.Poly4.variable(0).diff(0, -1),
    "constant_value": lambda: bcpoly.BicomplexFunction.variable().constant_value(),
    "conjugation kind": lambda: bcpoly.ONE.conjugate("star_op"),
    "operator conjugation kind": lambda: bcpoly.Operator.identity().conjugate("star"),
    "wirtinger kind": lambda: bcpoly.wirtinger("nosuch"),
    "laplacian index": lambda: bcpoly.laplacian(8),
}


@pytest.mark.parametrize("call", _BAD_ARGUMENTS.values(), ids=_BAD_ARGUMENTS.keys())
def test_bad_public_arguments_raise_argument_error(call):
    # a documented domain error that callers catching ValueError still catch
    with pytest.raises(bcpoly.ArgumentError) as info:
        call()
    assert isinstance(info.value, bcpoly.BicomplexError) and isinstance(info.value, ValueError)


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(surface()) + "\n")
