"""Numerical toolkit for twisted spherical means on C^n.

Twisted spherical means average a field over spheres with the unimodular
weight exp(i/2 Im(z . conj(w))); unlike plain Euclidean circular means,
finite unions of concentric lines can determine a function through them.
The package provides the operator stack (translates, means, twisted
convolution, degreewise spectral projections, the polar-decomposition
bridge), exact special-function backends, deterministic quadrature, the
Euclidean counterexample machinery, and singular-value injectivity probes
over candidate sampling sets, plus a batch CLI.
"""

import os as _os

# honor the thread cap before numpy (and its BLAS) ever loads
_threads = _os.environ.get("TSMLAB_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"

from .constants import (TWIST_SIGN, expansion_constant, sphere_surface_area,
                        tsm_product_constant)
from .errors import (ConfigError, FieldDomainError, GridMismatchError,
                     IllConditionedFitError, QuadratureError,
                     TranslateTailWarning, TruncationTailWarning, TsmlabError)
from .special_functions import (LaguerreSpec, SolidHarmonic, laguerre_function,
                                laguerre_polynomial, solid_harmonic_basis)
from .quadrature import (PlaneRule, RadialRule, SphereRule, compensated_sum,
                         gauss_legendre, plane_rule, radial_rule, sphere_rule)
from .fields import MeanProfile, SampledField, SpectrumTruncation
from .twisted_transforms import (mean_profile, polar_bridge,
                                 spectral_projection, spectral_projections,
                                 special_hermite_coefficients,
                                 special_hermite_truncation,
                                 tensor_decompose_projection, twisted_mean_table,
                                 twisted_spherical_mean, twisted_translate)
from .euclidean_means import (circular_mean, coxeter_odd_counterexample,
                              euclidean_mean_table, euclidean_sector_basis)
from .injectivity_lab import (INJECTIVITY_CAVEAT, ProjectionExpansion,
                              SamplingOperator, SamplingSet, TypeFunctionSpec,
                              VanishingSetReport, assemble_operator,
                              fit_projection_expansion,
                              hecke_bochner_counterexample, injectivity_probe,
                              make_set)
