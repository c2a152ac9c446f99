"""Numerics for quaternionic slice regular functions on non-symmetric
slice domains: representation and extension formulas, domain verdicts,
constructive local and global extension, and the non-simple domain where
global extension fails."""

from .quaternions import (Quaternion, SliceCoord, UnitImaginary,
                          coefficient_identities, slice_decompose)
from .holomorphic import (ContinuedLog, HoloSliceFunction, PowerSeries,
                          dbar_residual)
from .domains import (DomainSpec, PlanarRegionGrid, SphereSample, Verdict,
                      is_simple, is_slice_convex, is_slice_domain,
                      is_symmetric, omega_jk_plus, rasterize,
                      symmetric_completion)
from .specs import ball_spec, halfspace_spec, starlike_spec
from .extension import (ConsistencyReport, StemPair, check_compatible,
                        extend_to_completion, extension_formula, formula_stem,
                        regular_ext, rep_coeffs)
from .local import LocalExtension, TubeDomain, build_tube, local_extend
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
