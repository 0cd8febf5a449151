"""The public names of ``percospec`` are pinned, so none is dropped unnoticed."""

import percospec

PUBLIC = [
    "ADJACENCY", "DIRICHLET", "NEUMANN",
    "CayleyBall", "FiniteSubgraph", "GroupSpec", "GrowthProfile",
    "LabeledOperator", "PercolationModel", "PercolationSample",
    "CountingFunction", "IDSEstimate", "Spectrum",
    "enumerate_ball", "growth_profile", "induced_subgraph",
    "inner_vertex_boundary", "is_bipartite", "line_subgraph", "tetrahedron",
    "anderson", "bipartite_conjugate", "boundary_potential", "extend",
    "free_laplacian", "percolation_laplacian", "restrict",
    "subgraph_laplacian",
    "cluster_stats", "decompose", "deleted_density_expected", "sample",
    "count_below", "eigenvalues_dense", "empirical_ids", "free_ids_ball",
    "free_ids_zd", "lowest_nonzero", "return_probability",
]


def test_all_is_the_pinned_list():
    assert percospec.__all__ == PUBLIC


def test_every_public_name_resolves():
    namespace = {}
    exec("from percospec import *", namespace)
    for name in PUBLIC:
        assert getattr(percospec, name) is namespace[name], name
