"""The layer graph: each layer's module-level imports reach only layers
listed before it in `eigensplit._EXPORTS`, the one import inside a
function body is the known upward edge, a few edges that the design
rules out stay absent, series and formal_groups export nothing and
formal_groups holds only theta mod p^N and the tower points, homotopy
reads lfunctions through two entries and its depth, one function alone
raises several bases in one squaring chain, argument checks are defined
only in the known places, the window guard reads the window alone, the
homotopy layer reads its input only where it enters, pi-adic digits enter
a ring only from a caller, contexts and rings compare by identity, and
an exception class beyond the four categories is one a caller tells
apart."""

import ast
import os
import re

import pytest

import eigensplit

from conftest import SRC

PACKAGE = os.path.join(SRC, "eigensplit")
README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
LAYERS = list(eigensplit._EXPORTS)

# series is exact-only and kummer walks its own logarithm
_ABSENT = {"series": {"padic"}, "kummer": {"series"}}

# the packed kernel for truncated polynomials with its Taylor shift, and
# the layers that use it besides the exact series
_KERNEL = {"pack_digits", "unpack_digits", "taylor_shift"}
_KERNEL_USERS = ("cyclotomic", "formal_groups")

# the layers with no public name, and what formal_groups defines: theta
# mod p^N with its loss bound, and the tower points; the exact formal
# group is the tests' oracle
_UNEXPORTED = ("series", "formal_groups")
_FORMAL_GROUPS = {"_theta_loss", "_theta_mod", "_theta_digits", "cw_tower_x"}

# (layer, function, layer it imports): the only imports inside function
# bodies, each of a later layer that the function alone reads
_UPWARD = {
    ("kummer", "bernoulli_criterion_surrogate", "lfunctions"),
}

# homotopy reads the L-side through two entries only: the torsion exponent
# of an eigenpiece and the regularity of p, which gates Kummer-Vandiver;
# and it bounds its windows by the depth lp_value reads to
_HOMOTOPY_FROM_LFUNCTIONS = {"lp_valuation", "regularity_certificate",
                             "LP_BERNOULLI_DEPTH"}

# the one twisted product over the Galois orbit, the omega^i idempotent:
# every other padic.power_product call raises one base, (layer, function)
_MULTI_BASE_POWER_PRODUCTS = {("cyclotomic", "eigen_unit")}


# the functions that check arguments, each where its policy lives: every
# int is read by errors.check_int, every argument of one class (a module,
# a spectrum) by errors.check_type, and every cyclotomic ring or element,
# with its level, by cyclotomic.check_level; kummer.check_eps1_nontorsion
# is the paper's eps_1 criterion, a certificate and not an argument check
_CHECKERS = {
    ("padic", "check_odd_prime"),
    ("errors", "check_int"),
    ("errors", "check_type"),
    ("homotopy", "check_window"),
    ("cyclotomic", "check_level"),
    ("kummer", "check_eps1_nontorsion"),
}

# in homotopy, a SpectrumId is built only from a caller's text or by a
# public entry for its gate, and only GradedModule itself goes through its
# checked accessors: the internal routes write entries of checked models
_SPECTRUM_ID_BUILDERS = {"SpectrumId.parse", "assemble", "verify_main_duality"}
_CHECKED_ACCESSORS = {"set", "entry", "add_at"}

# the assembly and the sum as they were when each piece was named by a
# SpectrumId and each entry was added through the checked accessors
_PIECEWISE_LAYER = """
def _assemble(p, tag, lo, hi):
    def piece(t, i=None):
        return _build(SpectrumId(t, p, i), lo, hi)
    return direct_sum(*[piece("y", i) for i in range(p - 1)])

def direct_sum(*mods):
    out = GradedModule(mods[0].lo, mods[0].hi)
    for M in mods:
        for n, m in M.entries.items():
            out.add_at(n, m)
    return out
"""

# pi-adic digits enter a ring only where a caller hands them in: one method
# builds a CycElt from digits and no layer calls it, as every scalar the
# layers make is written on the zeta basis
_DIGIT_ENTRY = "CycRing.from_coeffs"

# the ring as it was when scalars went through the digit constructor
_SCALARS_AS_DIGITS = """
class CycRing:
    def zero(self):
        return CycElt(self, [0] * self.degree, self.ctx.N)

    def from_scalar(self, c):
        return self.from_coeffs([c])

    def from_coeffs(self, coeffs):
        return CycElt(self, coeffs, self.ctx.N)
"""

# one instance per key, so identity is equality: (layer, class)
_CANONICAL = {("padic", "PadicCtx"), ("cyclotomic", "CycRing")}

# the refusal categories the CLI maps to exit codes; any other class in
# errors must be caught by name in the package or named in the README
_CATEGORIES = {"EigensplitError", "UsageError", "PrecisionError",
               "VerificationError"}

# an errors module with a subclass that nothing tells apart
_FAKE_ERRORS = """
class UsageError(Exception):
    pass

class Caught(UsageError):
    pass

class Named(UsageError):
    pass

class Unnamed(UsageError):
    pass
"""
_FAKE_CALLER = """
def f():
    try:
        g()
    except (errors.Caught, ValueError):
        pass
"""


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


def _imported_from(tree, module, level):
    """The names that ``tree`` imports from ``module`` at that level."""
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == module
            and node.level == level for alias in node.names}


def _defined(tree):
    """The functions and classes defined at the top of ``tree``."""
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


@pytest.mark.parametrize("layer", _UNEXPORTED)
def test_series_and_formal_groups_export_nothing(layer):
    assert eigensplit._EXPORTS[layer] == ()
    for name in sorted(_defined(_tree(layer))):
        assert not hasattr(eigensplit, name), name


def test_formal_groups_holds_only_theta_mod_p_and_the_tower():
    tree = _tree("formal_groups")
    assert _imported_from(tree, "series", 1) == _KERNEL
    assert not _imported_from(tree, "fractions", 0)
    assert not any(alias.name == "fractions" for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names)
    assert _defined(tree) == _FORMAL_GROUPS


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


def _lfunctions_names(tree):
    """The names imported from lfunctions anywhere in ``tree``, function
    bodies included; importing the module itself adds "lfunctions"."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = {alias.name for alias in node.names}
            if node.module == "lfunctions":
                yield from names
            elif node.module is None and "lfunctions" in names:
                yield "lfunctions"


def test_homotopy_reads_lfunctions_through_two_entries():
    assert set(_lfunctions_names(_tree("homotopy"))) == \
        _HOMOTOPY_FROM_LFUNCTIONS


def test_the_lfunctions_rule_sees_other_names():
    tree = ast.parse("from .lfunctions import bernoulli, lp_value\n"
                     "def f():\n    from . import lfunctions, padic\n")
    assert set(_lfunctions_names(tree)) == {"bernoulli", "lp_value",
                                            "lfunctions"}


def test_argument_checks_live_in_the_known_places():
    found = {(name[:-3], node.name)
             for name in sorted(os.listdir(PACKAGE)) if name.endswith(".py")
             for node in ast.walk(_tree(name[:-3]))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name.startswith(("check_", "_check"))}
    assert found == _CHECKERS


def _window_guard_parameters(tree):
    """The parameters of each check_window defined at the top of
    ``tree``, as written."""
    return [ast.unparse(node.args) for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name == "check_window"]


def test_the_window_guard_reads_only_the_window():
    # one bound at every prime: a guard that took p could depend on it
    assert _window_guard_parameters(_tree("homotopy")) == ["window"]


def test_the_window_guard_rule_sees_a_second_parameter():
    tree = ast.parse("def check_window(p: int, window):\n    pass\n")
    assert _window_guard_parameters(tree) == ["p: int, window"]


def _scoped_calls(node, cls=None, func=None):
    """Each call under ``node`` with its enclosing class and the qualified
    name of its outermost enclosing function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _scoped_calls(child, child.name, func)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = func or (f"{cls}.{child.name}" if cls else child.name)
            yield from _scoped_calls(child, cls, name)
        else:
            if isinstance(child, ast.Call):
                yield cls, func, child
            yield from _scoped_calls(child, cls, func)


def _boundary_breaches(tree):
    """(function, callee) for each SpectrumId built outside the known
    builders and each checked accessor called outside GradedModule."""
    for cls, func, call in _scoped_calls(tree):
        f = call.func
        if (isinstance(f, ast.Name) and f.id == "SpectrumId"
                and func not in _SPECTRUM_ID_BUILDERS):
            yield func, f.id
        elif (isinstance(f, ast.Attribute) and f.attr in _CHECKED_ACCESSORS
                and cls != "GradedModule"):
            yield func, f.attr


def test_homotopy_reads_its_input_where_it_enters():
    assert list(_boundary_breaches(_tree("homotopy"))) == []


def test_the_boundary_rule_sees_a_piecewise_layer():
    breaches = sorted(_boundary_breaches(ast.parse(_PIECEWISE_LAYER)))
    assert breaches == [("_assemble", "SpectrumId"), ("direct_sum", "add_at")]


def _digit_builds(tree):
    """(function, callee) for each CycElt built outside the digit entry
    and each call of the digit entry."""
    for _, func, call in _scoped_calls(tree):
        f = call.func
        if (isinstance(f, ast.Name) and f.id == "CycElt"
                and func != _DIGIT_ENTRY):
            yield func, f.id
        elif isinstance(f, ast.Attribute) and f.attr == "from_coeffs":
            yield func, f.attr


def test_digits_enter_only_from_a_caller():
    found = [(layer, *hit) for layer in LAYERS
             for hit in _digit_builds(_tree(layer))]
    assert found == []


def test_the_digit_rule_sees_scalars_built_as_digits():
    assert list(_digit_builds(ast.parse(_SCALARS_AS_DIGITS))) == [
        ("CycRing.zero", "CycElt"), ("CycRing.from_scalar", "from_coeffs")]


def _multi_base_power_products(layer, tree):
    """(layer, function) for each power_product call under ``tree`` whose
    bases are not a one-element list display."""
    for _, func, call in _scoped_calls(tree):
        f = call.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        if name == "power_product":
            bases = call.args[1] if len(call.args) > 1 else None
            if not (isinstance(bases, ast.List) and len(bases.elts) == 1):
                yield layer, func


def test_only_the_idempotent_raises_several_bases():
    found = {hit for layer in LAYERS
             for hit in _multi_base_power_products(layer, _tree(layer))}
    assert found == _MULTI_BASE_POWER_PRODUCTS


def test_the_power_product_rule_sees_a_second_orbit_product():
    tree = ast.parse(
        "def surrogate(units, exps):\n"
        "    return power_product(mul, units, exps)\n"
        "def twisted(u, v):\n"
        "    return padic.power_product(mul, [u, v], [1, 2])\n"
        "def single(u):\n"
        "    return power_product(mul, [u], [3])\n")
    assert sorted(_multi_base_power_products("kummer", tree)) == [
        ("kummer", "surrogate"), ("kummer", "twisted")]


def _value_comparisons(tree):
    """Each == or != with a .ctx, a .ring or a base_ring() on one side."""
    def canonical(e):
        if isinstance(e, ast.Call):
            return isinstance(e.func, ast.Attribute) and e.func.attr == "base_ring"
        return isinstance(e, ast.Attribute) and e.attr in ("ctx", "ring")

    for node in ast.walk(tree):
        if (isinstance(node, ast.Compare)
                and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
                and any(map(canonical, [node.left, *node.comparators]))):
            yield ast.unparse(node)


def test_contexts_and_rings_compare_by_identity():
    for layer, cls in _CANONICAL:
        (body,) = [node.body for node in _tree(layer).body
                   if isinstance(node, ast.ClassDef) and node.name == cls]
        defined = {node.name for node in body
                   if isinstance(node, ast.FunctionDef)}
        assert not defined & {"__eq__", "__hash__"}, cls
    found = [(name, expr) for name in sorted(os.listdir(PACKAGE))
             if name.endswith(".py")
             for expr in _value_comparisons(_tree(name[:-3]))]
    assert found == []


def test_the_identity_rule_sees_a_value_comparison():
    tree = ast.parse("a.ring != b.ring\nr.base_ring() == x.ring\n"
                     "u.ring.level != 1\nx.ctx is not y.ctx\n")
    assert list(_value_comparisons(tree)) == [
        "a.ring != b.ring", "r.base_ring() == x.ring"]


def _caught(tree):
    """The class names in the ``except`` clauses of ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) \
                else [node.type]
            for t in types:
                yield t.attr if isinstance(t, ast.Attribute) else t.id


def _untold_errors(errors_tree, caller_trees, readme):
    """The classes ``errors_tree`` defines beyond the categories that no
    ``except`` among ``caller_trees`` catches and ``readme`` never names."""
    caught = {name for tree in caller_trees for name in _caught(tree)}
    return [node.name for node in errors_tree.body
            if isinstance(node, ast.ClassDef)
            and node.name not in _CATEGORIES | caught
            and not re.search(rf"\b{node.name}\b", readme)]


def test_every_error_class_is_told_apart():
    with open(README, encoding="utf-8") as f:
        readme = f.read()
    trees = [_tree(name[:-3]) for name in sorted(os.listdir(PACKAGE))
             if name.endswith(".py")]
    assert _untold_errors(_tree("errors"), trees, readme) == []


def test_the_error_rule_sees_an_untold_subclass():
    assert _untold_errors(ast.parse(_FAKE_ERRORS), [ast.parse(_FAKE_CALLER)],
                          "`Named` is raised on bad input") == ["Unnamed"]
