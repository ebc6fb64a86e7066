"""Exact tropical (min-plus) linear spaces and valuated matroids.

Scalars are rationals plus infinity; nothing here ever rounds.  The
package computes tropical Stiefel images (min-plus maximal minors),
the regular matroid subdivisions they induce, transversality tests
with certificates, the distinguished apex data that coordinatizes the
fiber of the Stiefel map, and valuated strict gammoids via min-weight
linkings in weighted digraphs.
"""

from .errors import (AllInfinite, EmptyGroundSet, EmptyIntersection,
                     EmptySupport, InconsistentCell, InfiniteBase,
                     NegativeCycle, NoBasis, NotAFlat, NotAMatroid,
                     NotMinimalMatching, NotPluecker, NotTransversal,
                     NotTransversalFacets, OutOfDomain, PointOutsideL,
                     RankCollapse, TooLarge, TroplinError, UsageError,
                     WrongArity)
from .gammoid import (WeightedDigraph, digraph_from_presentation,
                      gammoid_valuation, stable_intersect_hyperplanes)
from .matroid import Matroid, direct_sum, uniform_matroid
from .presentations import (DistinguishedEntry, apices, distinguished,
                            is_transversal_valuated, sample_presentation,
                            verify_presentation)
from .transversal import (beta_solutions, is_pseudopresentation,
                          is_transversal, max_presentation,
                          transversal_matroid, verify_set_presentation)
from .trop import (INF, min_assignment, normalize_point, relsupp, stiefel,
                   stiefel_domain_witness)
from .valuated import (SubdivisionCell, ValuatedMatroid, cell_complex,
                       check_pluecker, hyperplane, initial_matroid,
                       maximal_cells, membership, stable_intersection,
                       stable_sum, v_contract, v_dual, v_restrict)

__version__ = "0.1.0"
