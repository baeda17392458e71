"""Diffusion-limited aggregation on graph cylinders: simulation and checks."""

from .graphs import (
    RegularGraph,
    add_self_loops,
    make_complete,
    make_cycle,
    make_hypercube,
    make_random_regular,
    make_torus,
    parse_graph_spec,
    validate,
)
from .spectral import SpectralProfile, eigen_profile, mixing_time
from .dla import Cluster, drop_particle, grow, new_cluster, probe_particle
from .experiment import ExperimentConfig, estimate_T, estimate_density, run_sweep

__version__ = "0.8.8"

__all__ = [
    "Cluster",
    "ExperimentConfig",
    "RegularGraph",
    "SpectralProfile",
    "add_self_loops",
    "drop_particle",
    "eigen_profile",
    "estimate_T",
    "estimate_density",
    "grow",
    "make_complete",
    "make_cycle",
    "make_hypercube",
    "make_random_regular",
    "make_torus",
    "mixing_time",
    "new_cluster",
    "parse_graph_spec",
    "probe_particle",
    "run_sweep",
    "validate",
    "__version__",
]
