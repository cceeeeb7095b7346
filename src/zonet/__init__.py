"""Polar zonohedra, their zone unfoldings, and non-overlap verification."""

from .zonohedron import (
    ConstructionError,
    Face,
    Params,
    Zonohedron,
    build,
    generators,
    rhomb_angle,
    validate,
)
from .unfold import Net, PlanarZone, assemble_net, planar_zone
from .verify import (
    VerificationReport,
    beta_of_r,
    beta_profile,
    net_overlap_oracle,
    orbit_overlap_oracle,
    rhomb_subtended_angles,
    run_verification,
)
from . import crescent

__all__ = [
    "ConstructionError",
    "Face",
    "Net",
    "Params",
    "PlanarZone",
    "VerificationReport",
    "Zonohedron",
    "assemble_net",
    "beta_of_r",
    "beta_profile",
    "build",
    "crescent",
    "generators",
    "net_overlap_oracle",
    "orbit_overlap_oracle",
    "planar_zone",
    "rhomb_angle",
    "rhomb_subtended_angles",
    "run_verification",
    "validate",
]

__version__ = "0.1.0"
