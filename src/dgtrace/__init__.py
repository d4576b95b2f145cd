"""Exact-arithmetic calculus of perfect dg modules over finite-dimensional
algebras: Hochschild classes, Serre duality, and trace pairings verified as
equalities of rational numbers."""

from .algebras import (AlgebraElement, DgAlgebra, opposite, tensor_algebras,
                       validate_algebra)
from .catalog import catalog, catalog_entry, catalog_names
from .complexes import (ChainMap, Complex, GradedSpace, SplitComplex,
                        chain_supertrace, cohomology_dims, cone,
                        euler_trace, is_acyclic, is_quasi_iso, shift)
from .duality import (DualBimodule, EvaluationData, dualhom_check, dualize,
                      omega_inverse, omega_inverse_module, serre_tensor)
from .hochschild import (HH0Space, HochschildClass, euler_class, hh0_space,
                         hh_class, hh_via_dualizing)
from .linalg import (RationalMatrix, SubspacePresentation,
                     quotient_presentation, rank_kernel_image, solve)
from .modules import (ModuleMap, PerfectModule, SemiFreeModule, cone_module,
                      free_module, hom_over_algebra, projective_module,
                      restrict_to_ground, tensor_over_algebra)
from .pairing import (PairingReport, cup, pair_scalar,
                      verify_kernel_composition, verify_rr)
from .resolutions import (DiagonalResolution, opposite_resolution,
                          path_algebra, quiver_resolution, tensor_resolution,
                          vertex_arrow_resolution)
from .workspace import Workspace, parse_workspace

__version__ = "0.1.0"
