"""Order recovery for multi-term subdiffusion from a single boundary trace.

Layers, each importing only the ones listed before it (cli loads checks only
when `check` runs); the API is imported from its module
(`from fracorder.fit import recover`), whose __all__ lists it:
    specfun   Gamma, Mittag-Leffler family, contour and hyperbola relaxation kernels
    forward   spectral trace assembly and the benchmark problems
    models    small-time regressor families and the physical-parameter map
    fit       box-constrained quasi-Newton least-squares recovery
    cli       experiment runner (simulate / fit; check runs the battery)
    checks    cross-module invariant battery behind `fracorder check`
"""

__version__ = "0.1.0"
