"""The oracles share no code with what they check.  definitions.py imports
from skewstone only value types, exceptions, constructors and the candidate
budget, and perfbench/oracles.py imports nothing from skewstone, the rule
its own docstring states.  Every other import is the standard library,
NumPy or, for definitions.py, the benchmark's oracles.  Both files are read
with ast, not imported."""

import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# what definitions.py may take from skewstone, by module: values and the
# exceptions they raise, the constructors of values, and the budget
ALLOWED = {
    "skewstone": {"CongruenceError", "HomFlags", "Homomorphism", "Ideal", "PrimeIdeal",
                  "SizeCapError", "SkewAlgebra", "SpaceMorphism", "SpaceMorphismFlags",
                  "StructuralError", "ValidationReport", "make_algebra", "make_space"},
    "skewstone.core_algebra": {"MAX_CANDIDATES", "partition_from_labels"},
    "skewstone.ideals_spectra": {"SpectrumPoint"},
    "skewstone.lattice_sections": {"GlobalSection", "LatticeSection"},
    "skewstone.spaces_sections": {"PartialMap", "partial_map"},
}


def imports(path):
    """(module, name) of every import in the file, at any depth; name is
    None for a plain import of the module."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from (("." * node.level + (node.module or ""), alias.name)
                        for alias in node.names)


@pytest.mark.parametrize("path, allowed, local", [
    ("tests/definitions.py", ALLOWED, {"numpy", "oracles"}),
    ("perfbench/oracles.py", {}, {"numpy"}),
], ids=["definitions", "perfbench_oracles"])
def test_the_oracles_import_nothing_they_check(path, allowed, local):
    found = list(imports(ROOT / path))
    assert found
    for module, name in found:
        top = module.split(".")[0]
        if top == "skewstone":
            assert name in allowed.get(module, ()), f"{path} imports {name} from {module}"
        else:
            assert top in sys.stdlib_module_names or top in local, f"{path} imports {module}"
