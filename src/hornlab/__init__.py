"""Tropical, Hermitian and multiplicative Horn problems at desk scale.

Exact path-counting on small planar networks, Horn-cone membership and
witness hives from one exact elimination, dense eigensolvers
for the classical sides, and Monte Carlo machinery to compare the three
product measures.
"""

from .semiring import (BOTTOM, COMPLEX, RATIONAL, TROPICAL, Bottom, Semiring,
                       as_rational, mat_mul)
from .network import (DIAGONAL, HORIZONTAL, SINK_HORIZONTAL, Edge,
                      PlanarNetwork, build_gamma0, compose_weightings,
                      concatenate, network_from_json, network_to_dot,
                      network_to_json, subnetwork)
from .paths import (complex_lift, correspondence_matrix, m_k, minor,
                    tropical_gz, tropical_singular_values)
from .hive import (GZ, HIVE, TROPICAL_GZ, HornTriple, Tableau, boundary,
                   format_number, gz_check, gz_margin, hive_check, kt_member,
                   kt_witness, parse_number, tableau_from_json, tableau_to_json,
                   triple_csv_header, triple_from_csv, triple_to_csv)
from .chamber import (ChamberMap, GenericityReport, WbarWeighting,
                      find_delta0_chamber, genericity_check,
                      horn_triple_tropical, kappa, lt_inverse,
                      random_interior_pattern, wbar_from_json, wbar_to_json)
from .linalg import (gz_H, l_map, reconstruct_H, sample_B_r, singular_l,
                     spectrum_of)
from .polytope import gz_pattern
from .measure import (GENERATORS, EmpiricalSample, ForwardReport, KSResult,
                      SweepResult, exceptional_mass_estimate,
                      horn_forward_test, ks_distance, limit_sweep,
                      projection_set, sample_hermitian_sum,
                      sample_multiplicative, sample_tropical_kappa)

__version__ = "0.1.0"

__all__ = [
    "BOTTOM", "Bottom", "COMPLEX", "RATIONAL", "TROPICAL",
    "Semiring", "as_rational", "mat_mul",
    "DIAGONAL", "HORIZONTAL", "SINK_HORIZONTAL", "Edge", "PlanarNetwork",
    "build_gamma0", "compose_weightings", "concatenate", "network_from_json",
    "network_to_dot", "network_to_json", "subnetwork",
    "complex_lift", "correspondence_matrix", "m_k", "minor", "tropical_gz",
    "tropical_singular_values",
    "GZ", "HIVE", "TROPICAL_GZ", "HornTriple", "Tableau", "boundary",
    "format_number", "gz_check", "gz_margin", "hive_check", "kt_member",
    "kt_witness", "parse_number", "tableau_from_json", "tableau_to_json",
    "triple_csv_header", "triple_from_csv", "triple_to_csv",
    "ChamberMap", "GenericityReport", "WbarWeighting", "find_delta0_chamber",
    "genericity_check", "horn_triple_tropical", "kappa", "lt_inverse",
    "random_interior_pattern", "wbar_from_json", "wbar_to_json",
    "gz_H", "l_map", "reconstruct_H", "sample_B_r", "singular_l",
    "spectrum_of",
    "gz_pattern",
    "GENERATORS", "EmpiricalSample", "ForwardReport", "KSResult",
    "SweepResult", "exceptional_mass_estimate", "horn_forward_test",
    "ks_distance", "limit_sweep", "projection_set", "sample_hermitian_sum",
    "sample_multiplicative", "sample_tropical_kappa",
]
