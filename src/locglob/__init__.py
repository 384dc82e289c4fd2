"""Local subgroupoids of finite groupoids over finite topological
spaces: germs, atlases, the loc and glob operators, coherence
predicates, transitivity components and the foliation topology,
together with brute-force oracles for every fast computation."""

from .coherence import (CoherenceReport, TheoremReport, coherence_report,
                        foliation_space, is_totally_coherent,
                        subgroupoid_coherence, verify_component_clopenness,
                        verify_connectivity_globalization,
                        verify_foliation_components,
                        verify_local_connectivity_coherence,
                        verify_restriction_coherence)
from .errors import (AssociativityError, AtlasConsistencyError,
                     AtlasCoverError, EndpointMismatchError,
                     InvariantViolationError, InverseLawError, LocglobError,
                     MissingIdentityError, ParseError, ResourceLimitError,
                     UsageError, ValidationError)
from .groupoids import (FiniteGroup, Groupoid, WideSubgroupoid, cyclic_group,
                        finite_group, full_restriction, generate_wide,
                        group_bundle, intersect_wide, pair_groupoid,
                        rel_times_group, restrict_wide,
                        transitivity_components, validate_groupoid,
                        wide_subgroupoid)
from .instance_io import (ParsedInstance, load_instance, parse_instance,
                          serialize_instance)
from .oracle import (Instance, InstanceSuite, all_topologies,
                     connected_by_partition, cross_check_connectivity,
                     cross_check_enumeration, cross_check_glob,
                     enumerate_wide_subgroupoids, glob_by_refinements,
                     glob_by_subgroupoid_defn, instance_suite,
                     totally_coherent_by_scan)
from .sections import (Atlas, Germ, LocalSubgroupoid, canonical_atlas,
                       germ_at, germ_leq, glob, loc, refines,
                       restrict_section, section_from_atlas)
from .spaces import (FiniteSpace, connected_components, count_opens,
                     enumerate_opens, generate_topology, open_label_lists,
                     relative_openness, space_from_basis, subspace)

__all__ = [name for name in dir() if not name.startswith("_")]
