"""Linkages in hypercubes and cubical polytopes, with certificates."""

from .complexes import build_cube_polytope, build_from_incidence, link_polytope
from .linkage.certs import LinkageCertificate, ObstructionWitness
from .linkage.cube import cube_linkage, solve_cube, solve_cube_strong
from .linkage.cubical import solve_cubical, solve_cubical_strong
from .linkage.link import solve_link
from .linkage.star import solve_star
from .oracle import census, linkable, oracle_linkage
from .paths import validate_linkage

__all__ = [
    "LinkageCertificate",
    "ObstructionWitness",
    "build_cube_polytope",
    "build_from_incidence",
    "census",
    "cube_linkage",
    "link_polytope",
    "linkable",
    "oracle_linkage",
    "solve_cube",
    "solve_cube_strong",
    "solve_cubical",
    "solve_cubical_strong",
    "solve_link",
    "solve_star",
    "validate_linkage",
]
