"""Exact-arithmetic toolkit for joint configurations of flats.

Covers fractional edge covers, pattern-joint detection over exact fields,
entropy inequalities with multiplicities, shadow-style extremal counts, and
derivative-condition ledgers with a handicap balancing dynamic. See the CLI
(`hjoints --help`) for the verification pipelines.
"""

__version__ = "0.1.0"

from .counting import (lw_step_check, param_counting_check,
                       sum_of_conditions_check)
from .cover import CoverSolution, dual_cover, rho_star
from .configs import (HyperplaneFamily, JointsConfiguration,
                      axis_parallel_from_functions, axis_parallel_pattern,
                      generic_hyperplanes, generically_induced,
                      projected_generically_induced)
from .entropy import (FiniteDistribution, GeoShearerReport, MultiplicityResult,
                      entropy, geometric_shearer_audit, holder_check,
                      joint_entropy, joint_multiplicity, loomis_whitney_check,
                      shearer_check)
from .extremal import (SearchResult, ShadowReport, SimpleHypergraph,
                       colex_sets, cone_pattern, count_inducing_sets,
                       inducing_sets, kruskal_katona_count, lovasz_bound,
                       partial_shadow_check, search_M)
from .fields import GF, QQ, DEFAULT_PRIME
from .geometry import (Flat, Witness, WitnessTuple, detect_joints,
                       enumerate_witness_tuples, intersect_flats,
                       witness_check)
from .hypergraph import (Hypergraph, UniformityProfile, WeightFunction,
                         covering_constant, joint_count_bound)
from .logspace import Log2Value
from .vanishing import (AuditReport, Chart, FlatLedger, HandicapResult,
                        LedgerSet, bounded_domain_threshold,
                        build_flat_ledger, build_ledger_set,
                        handicap_iteration, key_inequality_audit)
