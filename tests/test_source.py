"""Rules that every module of the library keeps."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from pdml.constructions import build_pset_variety, encode_lrs
from pdml.exact import FpPoly, PrimeModulus, RatFunc, Record
from pdml.lrs import CharRoots, Lrs, RootPReport, RootPVerdict
from pdml.pexp import PexpInstance
from pdml.psets import ArithProg, PSet, ReturnSetDesc
from pdml.torus import (ObstructionVerdict, ReductionData, TorusPoint,
                        TorusSelfMap, Variety)

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "pdml"


def test_library_has_no_assert():
    """assert is stripped under python -O; an internal invariant raises a
    library error instead."""
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules under {SRC}"
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_library_has_no_global():
    """No module-level state is set at run time: every cap is a constant
    or derived from the input."""
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Global)]
    assert found == []


def test_every_import_is_read():
    """Each name a module of the library or the tests imports (import a.b
    binds a) is read somewhere in that module."""
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        found += [f"{path.parent.name}/{path.name}:{node.lineno} {name}"
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__"
                  for name in (alias.asname or alias.name.split(".")[0]
                               for alias in node.names)
                  if name not in read]
    assert len(paths) > 20
    assert found == []


def test_exponent_set_stays_an_independent_oracle():
    """exponent_set checks the structured membership tests of torus, so
    constructions names none of them."""
    tree = ast.parse((SRC / "constructions.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert names, "constructions.py names nothing"
    assert names.isdisjoint({"_structured_zero_test", "_try_structured",
                             "_equation_zero", "_expanded_zero"})


# Functions that no other code of the library names, by qualified name:
# each is an entry point of its own.
LIBRARY_ENTRY_POINTS = {
    "_Parser.error": "argparse calls it on a usage error",
    "encode_lrs": "the paper's encoding, built by benchmark set-up",
    "encoding_exponent": "the paper's encoding, read by the acceptance "
                         "oracle",
    "fibonacci": "an example sequence",
    "constant": "an example sequence",
    "lrs_zero_progression_certify": "wrapped by bench/tracing.py",
    "lrs_nondegenerate_split": "wrapped by bench/tracing.py",
    "desc_from_text": "wrapped by bench/tracing.py",
    "selfmap_iterate": "the dense orbit oracle",
    "variety_contains": "the dense membership oracle",
    "full_pipeline": "a benchmark entry point",
}


def test_no_test_only_library_code():
    """Every function and non-dunder method of the library is named
    somewhere in the library outside its own body, or is an entry point
    listed in LIBRARY_ENTRY_POINTS: code that only tests reach goes. A
    method counts as named only where an attribute reference names it, so
    a local or a function of the same name does not keep it."""
    defs = []
    # named[name]: the (module, line) pairs naming it; attributes[name]:
    # those naming it as an attribute
    named, attributes = {}, {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                name = getattr(child, "name", None)
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs.append((path.name, prefix + name, name,
                                 child.lineno, child.end_lineno,
                                 isinstance(node, ast.ClassDef)))
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    visit(child, f"{prefix}{name}.")
                else:
                    visit(child, prefix)

        visit(tree, "")
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name is not None:
                named.setdefault(name, []).append((path.name, node.lineno))
            if isinstance(node, ast.Attribute):
                attributes.setdefault(name, []).append(
                    (path.name, node.lineno))
    assert len(defs) > 100
    unnamed = {qual for module, qual, name, first, last, method in defs
               if not (name.startswith("__") and name.endswith("__"))
               and not any(m != module or not first <= line <= last
                           for m, line in (attributes if method else named)
                           .get(name, ()))}
    assert sorted(unnamed - LIBRARY_ENTRY_POINTS.keys()) == []
    # an entry that the library names again leaves the list
    assert sorted(LIBRARY_ENTRY_POINTS.keys() - unnamed) == []


def _loaded_after(module: str) -> list[str]:
    """The pdml modules that importing module loads, in a fresh process."""
    code = (f"import sys, {module}\n"
            "print(*sorted(m for m in sys.modules if m.startswith('pdml')))")
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)}, check=True)
    return result.stdout.split()


def test_import_loads_only_what_a_module_uses():
    """pdml/__init__ imports nothing, so the p-set layer comes without the
    torus, construction and pexp layers; the CLI and the text forms import
    a layer only in the command or parser that runs it."""
    assert _loaded_after("pdml.psets") == [
        "pdml", "pdml.errors", "pdml.exact", "pdml.psets"]
    assert _loaded_after("pdml.cli") == [
        "pdml", "pdml.cli", "pdml.errors", "pdml.exact", "pdml.psets",
        "pdml.serial"]


def test_import_budget():
    """No pdml module loads dataclasses, inspect or typing (nor ast and
    tokenize, which inspect imports): a CLI process compiles and runs only
    what it uses. -S keeps site's own imports out of the count."""
    names = sorted(f"pdml.{path.stem}" for path in SRC.glob("*.py")
                   if path.stem != "__init__")
    code = (f"import sys, {', '.join(names)}\n"
            "print(*sorted(m for m in ('dataclasses', 'inspect', 'typing', "
            "'ast', 'tokenize') if m in sys.modules))")
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)}, check=True)
    assert result.stdout.split() == []


class RootPReportTwin(Record):
    """RootPReport's fields in another class: instances of two classes
    with equal field values are still unequal."""

    __slots__ = ("verdicts", "unresolved_unknown")

    def __init__(self, verdicts, unresolved_unknown):
        self._init(verdicts, unresolved_unknown)


P5 = PrimeModulus(5)
X = RatFunc(FpPoly([1, 1], P5))
LRS = Lrs((1, -2), (0, 1))

# name: (factory building a fresh instance, a field, cache slot or None,
# the same instance with every keyword given, or None)
VALUE_CLASSES = {
    "PrimeModulus": (lambda: PrimeModulus(5), "p", None, None),
    "ArithProg": (lambda: ArithProg(2, 1), "a", None, None),
    "PSet": (lambda: PSet(((1, 1), (Fraction(1, 2), 0))), "terms",
             "_derived", None),
    "ReturnSetDesc": (
        lambda: ReturnSetDesc(P5, exceptional=(3, 1)), "verified_bound", None,
        lambda: ReturnSetDesc(p=P5, aps=(), psets=(), exceptional=(1, 3),
                              verified_bound=0, notes=())),
    "Lrs": (lambda: Lrs((1, -2), (0, 1)), "initial", None, None),
    "CharRoots": (lambda: CharRoots(((2, 1),), (1,)), "integer_roots", None,
                  None),
    "RootPVerdict": (
        lambda: RootPVerdict(3, False), "root", None,
        lambda: RootPVerdict(root=3, dependent=False, s=None, sign=None)),
    "RootPReport": (lambda: RootPReport((1, 2), False), "verdicts", None,
                    None),
    "RootPReportTwin": (lambda: RootPReportTwin((1, 2), False), "verdicts",
                        None, None),
    "PexpInstance": (lambda: PexpInstance(LRS, P5, ((1, 1),)), "terms",
                     "_derived", None),
    "TorusPoint": (lambda: TorusPoint((X, X)), "coords", "_derived", None),
    "TorusSelfMap": (lambda: TorusSelfMap(((1, 1), (0, 1)), TorusPoint((X, X))),
                     "matrix", "_derived", None),
    "Variety": (lambda: Variety(2, ((((1, 0), X), ((0, 1), X)),)),
                "equations", "_derived", None),
    "ReductionData": (lambda: ReductionData((1, -1), (LRS,), (LRS,), ()),
                      "minpoly", None, None),
    "ObstructionVerdict": (
        lambda: ObstructionVerdict(False, r_max=3, s_max=4), "r", None,
        lambda: ObstructionVerdict(obstructed=False, r=None, s=None, r_max=3,
                                   s_max=4)),
    "PsetVariety": (lambda: build_pset_variety(P5, [1, 1]), "X", None, None),
    "LrsEncoding": (lambda: encode_lrs(LRS, X, P5), "Q", None, None),
}


@pytest.mark.parametrize("name", VALUE_CLASSES)
def test_value_class_contract(name):
    """Fields are read-only (ReturnSetDesc, which carries a verification
    stamp, is mutable and unhashable); equality holds within one class
    only, hashing agrees with it, and caches stay out of both and of
    repr."""
    factory, field, cache, keywords = VALUE_CLASSES[name]
    a, b = factory(), factory()
    assert type(a).__name__ == name
    assert a == b and repr(a) == repr(b)
    assert repr(a).startswith(f"{name}(")
    others = [f() for n, (f, *_) in VALUE_CLASSES.items() if n != name]
    assert all(a != other for other in others)
    if keywords is not None:
        assert keywords() == a
    if name == "ReturnSetDesc":
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, field, 7)
        assert getattr(a, field) == 7 and a != b
        return
    assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    if cache is not None:
        held = getattr(a, cache)
        if isinstance(held, dict):
            held[0] = None
        else:
            held.append(None)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert cache not in repr(a)


def _library_records() -> list[type]:
    """Every Record subclass that a module of the library defines."""
    for path in sorted(SRC.glob("*.py")):
        importlib.import_module(
            "pdml" if path.stem == "__init__" else f"pdml.{path.stem}")
    found, todo = [], Record.__subclasses__()
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if cls.__module__.startswith("pdml."):
            found.append(cls)
    return found


def test_every_record_is_a_value_class():
    """Each Record of the library has a row in VALUE_CLASSES whose cache
    column names its underscore slot, so test_value_class_contract checks
    that every cache stays out of equality, hashing and repr."""
    records = _library_records()
    assert len(records) >= 16
    assert [cls.__name__ for cls in records
            if cls.__name__ not in VALUE_CLASSES] == []
    assert [f"{cls.__name__}.{slot}" for cls in records
            for slot in cls.__slots__
            if slot[0] == "_" and VALUE_CLASSES[cls.__name__][2] != slot] == []


def test_caches_are_written_only_through_derived():
    """Every underscore slot of a library Record is its cache _derived,
    and library code names it, as an attribute or as a string passed to a
    call such as setattr, only in exact.derived: every cache is written in
    that one place."""
    slots = {slot for cls in _library_records() for slot in cls.__slots__
             if slot[0] == "_"}
    assert slots == {"_derived"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        helper = set()
        if path.name == "exact.py":
            helper = {id(node) for top in tree.body
                      if isinstance(top, ast.FunctionDef)
                      and top.name == "derived" for node in ast.walk(top)}
            assert helper, "exact.derived is gone"
        for node in ast.walk(tree):
            if id(node) in helper:
                continue
            named = ([node.attr] if isinstance(node, ast.Attribute) else
                     [arg.value for arg in node.args
                      if isinstance(arg, ast.Constant)]
                     if isinstance(node, ast.Call) else [])
            if slots & set(named):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
