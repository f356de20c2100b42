"""Desk-scale arithmetic of cyclotomic units, p-adic L-values, and the
graded homotopy bookkeeping they control.

The layers build upward: exact p-adic arithmetic and one packed integer
kernel for truncated polynomials, the strict isomorphism theta from the
formal group with multiplication X^p + pX to the multiplicative group,
mod p^N, and the tower points it gives, cyclotomic rings with Galois
action and eigenprojection, the logarithmic-derivative homomorphisms on
units, Bernoulli numbers and p-adic L-values, and a finitely generated
graded model of the resulting spectra together with the duality it is
supposed to satisfy.  The series and formal-group layers export nothing:
the rings and units read them.

Each layer loads on first use.  Importing the package puts every
`eigensplit.<layer>` module in `sys.modules`, but a layer's code runs only
when one of its names is first read, through the package or from the
layer's module.  So a command line run, when no bytecode cache is written,
compiles only the layers its subcommand reaches.
"""

import importlib.util
import sys

# every layer in dependency order, with the public names it defines
_EXPORTS = {
    "errors": ("EigensplitError", "PrecisionError", "UsageError",
               "VerificationError"),
    "padic": ("PadicCtx", "PadicInt", "is_prime"),
    "series": (),
    "formal_groups": (),
    "cyclotomic": ("CycElt", "CycRing", "NormCompatiblePair", "cyc_ring",
                   "eigen_unit", "eigen_valuation", "galois_apply",
                   "nontorsion_certified", "norm_down", "norm_to_qp",
                   "unit_pow_zp"),
    "kummer": ("bernoulli_criterion_surrogate", "check_eps1_nontorsion",
               "cw_unit", "cw_unit_pair", "generator_certificate",
               "kummer_phi", "kummer_phis", "lang_generator_search",
               "lang_unit"),
    "lfunctions": ("bernoulli", "configure_cache", "irregular_pairs",
                   "lp_valuation", "lp_value", "regularity_certificate"),
    "homotopy": ("FgZpModule", "GradedModule", "SpectrumId", "anderson_dual",
                 "assemble", "homotopy_of", "les_consistency",
                 "verify_main_duality"),
}

__version__ = "0.1.0"

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def _register_lazily(layer: str):
    name = f"{__name__}.{layer}"
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


globals().update({layer: _register_lazily(layer) for layer in _EXPORTS})


def __getattr__(name: str):
    for layer, names in _EXPORTS.items():
        if name in names:
            return getattr(globals()[layer], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
