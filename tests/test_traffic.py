"""Every public function and method of the library has a caller in the
library. A public name that no code in ``src/imddsim`` reads is either one
that the allow-list below keeps, with its reason, or dead code that should
go, or a test helper that belongs in ``tests/conftest.py``.

The scan is by name: a top-level function counts as read where a module
names it (a call, a reference, or a string in ``__all__``), and a method
where any attribute of that name is read. An import alone does not count.
"""

import ast
from pathlib import Path

import imddsim

PACKAGE = Path(imddsim.__file__).resolve().parent

#: Public names that no library code reads, and why each stays.
ALLOWED_UNREFERENCED = {
    "SampledWaveform.from_spectrum": "the public constructor from a spectrum "
                                     "that the README documents",
    "spectral_nmse_db": "the band-crossover NMSE that a run trace is to report",
    "ccdm_encode": "the distribution matcher, which the acceptance gate tests",
    "ccdm_decode": "the matcher's inverse, which the acceptance gate tests",
    "ccdm_input_bits": "the matcher's rate, which billing the shaped frame's "
                       "rate needs",
    "VolterraKernel.identity": "the identity pre-distorter of the whole-chain "
                               "invariance test",
}


def _public_definitions(tree: ast.Module) -> dict[str, str]:
    """Qualified name -> the name a caller reads, for each public top-level
    function and each public method of a public top-level class."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = {}
    for node in tree.body:
        if isinstance(node, functions) and not node.name.startswith("_"):
            out[node.name] = node.name
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, functions) and not item.name.startswith("_"):
                    out[f"{node.name}.{item.name}"] = item.name
    return out


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads: bare names, attributes, and the strings
    of its ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    return names


def test_every_public_name_has_a_library_caller():
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    defined = {qual: name for tree in trees for qual, name in _public_definitions(tree).items()}
    read = set().union(*(_read_names(tree) for tree in trees))
    unreferenced = {qual for qual, name in defined.items() if name not in read}
    assert not unreferenced - ALLOWED_UNREFERENCED.keys(), "no library caller"
    assert not ALLOWED_UNREFERENCED.keys() - unreferenced, \
        "allowed, but the library reads it now or it is gone"
