"""Numerics for quaternionic slice regular functions on non-symmetric
slice domains: representation and extension formulas, domain verdicts,
constructive local and global extension, and the non-simple domain where
global extension fails."""

from .quaternions import (Quaternion, SliceCoord, UnitImaginary,
                          coefficient_identities, inverse, mul,
                          slice_decompose)
from .holomorphic import (ContinuedLog, HoloSliceFunction, PowerSeries,
                          StemRestriction, dbar_residual)
from .domains import (DomainSpec, PlanarRegionGrid, SphereSample, Verdict,
                      ball_spec, connected_components, halfspace_spec,
                      is_simple, is_slice_convex, is_slice_domain,
                      is_symmetric, omega_jk_plus, rasterize, starlike_spec,
                      symmetric_completion)
from .extension import (ConsistencyReport, DomainFunction, LocalExtension,
                        StemPair, TubeDomain, build_tube, check_compatible,
                        extend_to_completion, extension_formula,
                        local_extend, regular_ext, rep_coeffs, rep_eval)
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
