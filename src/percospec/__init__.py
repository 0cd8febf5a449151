"""Spectral laboratory for percolation Laplacians on Cayley graphs."""

from .cayley import (
    CayleyBall,
    FiniteSubgraph,
    GroupSpec,
    GrowthProfile,
    enumerate_ball,
    growth_profile,
    induced_subgraph,
    inner_vertex_boundary,
    is_bipartite,
    line_subgraph,
    tetrahedron,
)
from .operators import (
    ADJACENCY,
    DIRICHLET,
    NEUMANN,
    LabeledOperator,
    anderson,
    free_laplacian,
    restrict,
    subgraph_laplacian,
)
from .percolation import (
    PercolationModel,
    PercolationSample,
    cluster_stats,
    decompose,
    deleted_density_expected,
    sample,
)
from .spectra import (
    IDSEstimate,
    count_below,
    empirical_ids,
    free_ids_ball,
    free_ids_zd,
    lowest_nonzero,
    return_probability,
)

__version__ = "0.1.0"

__all__ = [
    "ADJACENCY", "DIRICHLET", "NEUMANN",
    "CayleyBall", "FiniteSubgraph", "GroupSpec", "GrowthProfile",
    "LabeledOperator", "PercolationModel", "PercolationSample", "IDSEstimate",
    "enumerate_ball", "growth_profile", "induced_subgraph",
    "inner_vertex_boundary", "is_bipartite", "line_subgraph", "tetrahedron",
    "anderson", "free_laplacian", "restrict", "subgraph_laplacian",
    "cluster_stats", "decompose", "deleted_density_expected", "sample",
    "count_below", "empirical_ids", "free_ids_ball", "free_ids_zd",
    "lowest_nonzero", "return_probability",
]
