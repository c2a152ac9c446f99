"""Numerics for quaternionic slice regular functions on non-symmetric
slice domains: representation and extension formulas, domain verdicts,
constructive local and global extension, and the non-simple domain where
global extension fails.

The public names load their modules on first access (PEP 562), so
importing the package loads no numpy: a front end such as slicereg.cli can
set up the environment numpy reads before the first module needs it.
"""
from importlib import import_module

_PUBLIC = {
    "quaternions": ("Quaternion", "SliceCoord", "UnitImaginary",
                    "coefficient_identities", "slice_decompose"),
    "holomorphic": ("ContinuedLog", "HoloSliceFunction", "PowerSeries", "dbar_residual"),
    "domains": ("DomainSpec", "PlanarRegionGrid", "SphereSample", "Verdict", "is_simple",
                "is_slice_convex", "is_slice_domain", "is_symmetric", "omega_jk_plus",
                "rasterize", "symmetric_completion"),
    "specs": ("TubeDomain", "ball_spec", "halfspace_spec", "starlike_spec"),
    "extension": ("ConsistencyReport", "StemPair", "check_compatible", "extend_to_completion",
                  "extension_formula", "formula_stem", "regular_ext", "rep_coeffs"),
    "local": ("LocalExtension", "build_tube", "local_extend"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}
_SUBMODULES = ("domains", "errors", "extension", "holomorphic", "local", "quaternions",
               "raster", "specs")

__all__ = sorted([*_MODULE_OF, *_SUBMODULES])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
