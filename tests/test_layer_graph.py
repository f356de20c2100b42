"""The layer graph: each layer's module-level imports reach only layers
listed before it in `eigensplit._EXPORTS`, the imports inside function
bodies are the two known upward edges, a few edges that the design
rules out stay absent, and argument checks are defined only in the known
places."""

import ast
import os

import pytest

import eigensplit

from conftest import SRC

PACKAGE = os.path.join(SRC, "eigensplit")
LAYERS = list(eigensplit._EXPORTS)

# series is exact-only and kummer walks its own logarithm
_ABSENT = {"series": {"padic"}, "kummer": {"series"}}

# the packed kernel for truncated polynomials with its Taylor shift, and
# the layers that use it besides the exact series
_KERNEL = {"pack_digits", "unpack_digits", "taylor_shift"}
_KERNEL_USERS = ("cyclotomic", "formal_groups")

# (layer, function, layer it imports): the only imports inside function
# bodies, each of a later layer that the function alone reads
_UPWARD = {
    ("cyclotomic", "check_eps1_nontorsion", "kummer"),
    ("kummer", "bernoulli_criterion_surrogate", "lfunctions"),
}


# the functions that check arguments, each where its policy lives: every
# int is read by padic.check_int; check_eps1_nontorsion is the paper's
# eps_1 criterion, a certificate and not an argument check
_CHECKERS = {
    ("padic", "check_odd_prime"),
    ("padic", "check_int"),
    ("homotopy", "check_window"),
    ("lfunctions", "_check_character"),
    ("cyclotomic", "check_eps1_nontorsion"),
}


def _tree(layer):
    with open(os.path.join(PACKAGE, layer + ".py"), encoding="utf-8") as f:
        return ast.parse(f.read(), layer)


def _layers_imported(nodes):
    """The package layers named by the relative imports among ``nodes``."""
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                yield from (alias.name for alias in node.names)
            else:
                yield node.module.split(".")[0]


def test_every_layer_is_a_module():
    assert "series" in LAYERS
    for layer in LAYERS:
        assert os.path.isfile(os.path.join(PACKAGE, layer + ".py"))


@pytest.mark.parametrize("layer", LAYERS)
def test_layers_import_only_earlier_layers(layer):
    earlier = set(LAYERS[:LAYERS.index(layer)])
    later = set(_layers_imported(_tree(layer).body)) - earlier
    assert not later, f"{layer} imports {sorted(later)} at module level"


@pytest.mark.parametrize("layer, absent", sorted(_ABSENT.items()))
def test_ruled_out_edges_stay_absent(layer, absent):
    # anywhere in the module, function bodies included
    assert not absent & set(_layers_imported(ast.walk(_tree(layer))))


def test_one_packed_kernel_lives_in_series():
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            tree = _tree(name[:-3])
            defined = {node.name for node in ast.walk(tree)
                       if isinstance(node, ast.FunctionDef)} & _KERNEL
            assert defined == (_KERNEL if name == "series.py" else set())
    for layer in _KERNEL_USERS:
        imported = {alias.name for node in _tree(layer).body
                    if isinstance(node, ast.ImportFrom) and node.level == 1
                    and node.module == "series" for alias in node.names}
        assert _KERNEL <= imported, layer


def test_function_level_imports_are_the_known_upward_edges():
    # an earlier layer is imported at module level, where the graph test
    # above sees it; so a function body imports only what comes later
    found = set()
    for layer in LAYERS:
        for node in ast.walk(_tree(layer)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update((layer, node.name, imported) for imported
                             in _layers_imported(ast.walk(node)))
    assert found == _UPWARD


def test_argument_checks_live_in_the_known_places():
    found = {(name[:-3], node.name)
             for name in sorted(os.listdir(PACKAGE)) if name.endswith(".py")
             for node in ast.walk(_tree(name[:-3]))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name.startswith(("check_", "_check"))}
    assert found == _CHECKERS
