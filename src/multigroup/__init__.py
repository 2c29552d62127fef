"""Finite computational algebra for multi-group spaces.

A multi-group space is a finite universe carrying several partial group
operations, one per component group, where for every pair of distinct
operations at least one distributes over the other wherever products are
defined. The package decides subspace, coset, normality, series-length and
generation questions over such spaces, with classical finite-group
machinery as the single-operation special case.
"""

from .config import DEFAULT_LIMITS, Limits
from .errors import (BoundExceeded, DecompositionFailure, DomainError,
                     InternalConsistencyError, MultigroupError, ParseError,
                     PreconditionError)
from .generation import (GeneratingSet, GenerationWitness, is_finitely_generated,
                         span_closure, span_once)
from .groups import (CompositionChain, Element, FiniteGroup, composition_series,
                     is_normal_subgroup, is_subgroup,
                     maximal_proper_normal_subgroups, quotient_group, subgroups,
                     validate_group)
from .instances import parse_instance, serialize_instance
from .report import ValidationReport, Violation
from .series import (LengthInvariance, MaximalSeriesResult, NormalSeries,
                     OrientedOperationSequence, build_series,
                     enumerate_maximal_series, is_normal_subspace,
                     length_invariance_check, normality_criterion)
from .spaces import (Classification, DistributionCheck, MultiGroupSpace,
                     check_distribution, classify_special_case, is_complete,
                     ops_of_element, validate_multigroup)
from .subspaces import (CosetDecomposition, SubsetRef, SubspaceEvidence, coset,
                        coset_decomposition, induced_space, is_subspace,
                        is_subspace_by_completeness, is_subspace_by_intersection,
                        lagrange_check, subspace_decomposition)

__version__ = "0.1.0"
