"""Meta-analytic functions on the unit disk: construction, evaluation,
boundary behavior, and Schwarz-type boundary value problems.

The names below are resolved on first use (PEP 562), so ``import metadisk``
loads neither numpy nor a submodule; the process entry in ``__main__``
runs the command line with the collector off.
"""

_EXPORTS = {
    "boundary": ("BoundaryDistribution", "circle_pairings", "poisson_extend"),
    "disk": ("PolarGrid",),
    "errors": ("IllConditioned", "MetadiskError", "NonFinite"),
    "integral": ("PolyAnalytic", "schwarz_pompeiu_poly", "similarity_factor",
                 "teodorescu_poly"),
    "meta": ("DecompositionFit", "MetaExpr", "pde_residual", "poly_decompose"),
    "report": ("BoundaryReport", "Check", "Report"),
    "schwarz": ("SchwarzProblem", "SchwarzSolution", "imag_mean_constant",
                "solve_meta", "solve_poly_chain", "verify_boundary_conditions",
                "verify_solution"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
