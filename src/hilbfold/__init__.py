"""Exact combinatorics and linear algebra of Hilbert schemes of points on
curves with rational n-fold singularities."""

from .exact import ExactMatrix, GaussRational, kernel_basis, minor, rank
from .foldring import (FoldRingCtx, PunctualIdeal, SeparatedPoly, colength,
                       is_singular_point, is_smoothable, normalize_punctual,
                       tangent_dim)
from .hypercomplex import (ComplexKnm, Face, HyperCell, build_complex,
                           cells_at_vertex, faces_of, intersect_cells,
                           is_singular_face, is_smoothable_face,
                           normalized_volume, slice_complex, volume_check)
from .moment import (MomentPoint, PluckerVector, locate, moment_global,
                     moment_grass, plucker_of)
from .components import (GlobalComponent, GrassComponent, curve_count,
                         global_components, global_count,
                         intersect_components, multi_sing_count,
                         punctual_components, punctual_count,
                         stratum_descriptor)
from .localmodel import (PolyIdealGens, PolytopePk, PrimeFamily, SingComplex,
                         build_sing_complex, deformation_ideal,
                         local_component_count, primary_components,
                         punctual_local_ring, reduced_ideal, toric_polytope,
                         translate_component, unimodular_triangulation,
                         verify_decomposition_ff)

__version__ = "0.1.0"
