"""Exact computations over finite digital images.

Images with adjacency, continuous maps and homotopies between them,
categorical covers, motion-planning sections for higher complexity, and
group structures with continuity requirements — all finite, all checked,
every positive answer carrying an explicit witness.
"""

from .images import (CK, DigitalImage, Explicit, Point, interval_image,
                     power_image, product_image)
from .maps import DigitalMap, continuity_violation, is_continuous
from .homotopy import (BudgetExhausted, HomotopyWitness, are_homotopic,
                       budget, contraction, is_contractible, nullhomotopy,
                       verify_homotopy)
from .covers import BoundResult, CoverImpossible
from .category import cat, cat_bounds, cat_exact
from .pathspace import EndpointFibration, PairedFibration, WedgeSpace
from .complexity import (SectionWitness, TheoremViolation,
                         product_of_sections, schwarz_genus, tc_chain, tc_n,
                         tc_upper_via_group, verify_section)
from .groups import (CayleyTable, GroupVerdict, WindowGroup,
                     enumerate_group_structures, is_group_homomorphism,
                     is_top_homomorphism, is_top_isomorphism,
                     is_topological_group, product_group,
                     scan_group_structures, subgroup_check, verify_cayley,
                     window_group_report, window_hom_report)
from . import corpus, fileio

__version__ = "0.1.0"

__all__ = [
    "CK", "DigitalImage", "Explicit", "Point", "interval_image",
    "power_image", "product_image",
    "DigitalMap", "continuity_violation", "is_continuous",
    "BudgetExhausted", "HomotopyWitness", "are_homotopic", "budget",
    "contraction", "is_contractible", "nullhomotopy", "verify_homotopy",
    "BoundResult", "CoverImpossible",
    "cat", "cat_bounds", "cat_exact",
    "EndpointFibration", "PairedFibration", "WedgeSpace",
    "SectionWitness", "TheoremViolation", "product_of_sections",
    "schwarz_genus", "tc_chain", "tc_n", "tc_upper_via_group",
    "verify_section",
    "CayleyTable", "GroupVerdict", "WindowGroup",
    "enumerate_group_structures", "is_group_homomorphism",
    "is_top_homomorphism", "is_top_isomorphism", "is_topological_group",
    "product_group", "scan_group_structures", "subgroup_check",
    "verify_cayley", "window_group_report", "window_hom_report",
    "corpus", "fileio",
]
