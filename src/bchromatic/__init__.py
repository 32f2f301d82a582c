"""Constructive b-colorings for C4-free regular graphs.

The package bundles an immutable graph core, structural analysis passes,
a bipartite matcher with Hall-violator certificates, four constructive
coloring strategies, an exact b-chromatic oracle, and a command line
front end.
"""

from bchromatic.analysis import check_hypotheses
from bchromatic.constructive import (
    Coloring,
    construct_auto_bcoloring,
    construct_connectivity_bcoloring,
    construct_diameter_bcoloring,
    construct_full_seed_bcoloring,
    construct_lower_bound_bcoloring,
    verify_bcoloring,
)
from bchromatic.exact_oracle import exact_b_chromatic
from bchromatic.graph_core import Graph, parse_edge_list, serialize_edge_list

__all__ = [
    "Coloring",
    "Graph",
    "check_hypotheses",
    "construct_auto_bcoloring",
    "construct_connectivity_bcoloring",
    "construct_diameter_bcoloring",
    "construct_full_seed_bcoloring",
    "construct_lower_bound_bcoloring",
    "exact_b_chromatic",
    "parse_edge_list",
    "serialize_edge_list",
    "verify_bcoloring",
]
__version__ = "0.1.0"
