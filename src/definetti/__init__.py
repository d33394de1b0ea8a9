"""Closed-form overlap and approximation-error functionals.

Three families share one pattern: a reference state, a window of weight
vectors within radius r of an extremal weight, and an overlap delta
whose deficit 1-delta controls a reconstruction error.  The `weights`,
`su2_cg`, `symmetric`, and `heisenberg` modules carry the closed forms;
`oracle` re-derives everything by brute force and `verify` wires the two
together into pass/fail suites (also reachable via the `definetti`
command-line tool).

The package namespace is lazy: `import definetti` imports no submodule,
and `definetti.<name>` imports the one module that defines the name when
it is first read, so a process loads only the modules it uses.
"""

import importlib

# every public name, by the submodule that defines it
_SOURCES = {
    "exact": ("ExactReal", "split_square"),
    "radicals": ("RadicalSum",),
    "report": ("DeltaReport",),
    "weights": (
        "Weight",
        "HeightDecomposition",
        "simple_root",
        "weight_leq",
        "height_down",
        "height_up",
        "sym_weights",
        "w_r_set",
        "type_class_size",
        "exact_radius",
    ),
    "su2_cg": ("TwoJ", "as_twoj", "cg", "delta_su2"),
    "symmetric": (
        "SymTriple",
        "dim_sym",
        "epsilon",
        "term_overlap",
        "weight_profile",
        "delta_psi_weights",
        "closed_form_sum",
        "BoundPair",
        "bound_exponential",
        "exact_error_d2",
    ),
    "heisenberg": (
        "HeisenbergTriple",
        "alpha_coeff",
        "alpha_weight",
        "alpha_weight_tail_bound",
        "delta_number_space",
        "epsilon_heisenberg",
        "coherent_bound",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    # resolved on every access and never stored in the package globals, so
    # a name patched in its submodule, and its later restoration, show
    # through the package too
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(importlib.import_module(f".{module}", __name__), name)
    if name in _SOURCES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SOURCES})
