"""Exact-arithmetic toolkit for the quantum Fermat quintic threefold.

The quintic relation t_0^5 + ... + t_4^5 together with the q-commutation
rules t_i t_j = zeta^{n_ij} t_j t_i (zeta a primitive fifth root of unity,
N a 5 x 5 parameter matrix over Z/5) defines a family of noncommutative
threefolds.  This package mechanizes the computations that family supports,
with no floating-point arithmetic anywhere a theorem is decided:

  - cyclotomic:  the field Q(zeta_5) with exact Fraction coordinates
  - qmatrix:     admissibility, genericity, and symmetry classification of
                 the parameter matrices
  - indices:     the 625-element index monoid with carries
  - structure:   structure constants of the 625-component sheaf algebra,
                 associativity certificates, the Frobenius pairing
  - rewrite:     normal forms and centrality in the generator presentation
  - fiber:       center and radical of fiber algebras
  - cohomology:  Hilbert polynomials and twisted-sheaf cohomology over P^3
  - cli:         the `qfermat` command-line entry point

`from qfermat import X` resolves X on first use (PEP 562): a submodule's name
gives the submodule, a name with a leading underscore other than `__all__`
is refused at once, and any other name is looked up in the `__all__` lists
of _MODULES, searched in order and each imported when the search reaches
it; so each public name is declared once, in its own module, and
`import qfermat` alone loads no submodule.  The package's `__all__` is
`__version__` plus those lists, in module order.
"""

import importlib.util

__version__ = "0.1.0"

_MODULES = ("errors", "cyclotomic", "indices", "qmatrix", "structure", "rewrite",
            "fiber", "cohomology")


def __getattr__(name):
    # no __all__ lists a name with a leading underscore: a probe for one loads none
    probe = name.startswith("_") and name != "__all__"
    # any submodule, re-exported or not (linalg, cli), loaded yet or not
    if not probe and name.isidentifier() and importlib.util.find_spec("." + name, __name__):
        return importlib.import_module("." + name, __name__)
    modules = (__getattr__(m) for m in _MODULES if not probe)
    if name == "__all__":
        return ["__version__"] + [n for module in modules for n in module.__all__]
    for module in modules:
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return set(globals()) | set(__getattr__("__all__"))
