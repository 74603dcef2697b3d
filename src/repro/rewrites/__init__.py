"""Section 4 rewrites: Flatten, Shadow/Illuminate."""

from .base import defined_lcls, parent_map, rename_lcl, used_lcls
from .flatten_rewrite import FlattenSite, apply_flatten, find_flatten_sites
from .pipeline import RewriteLog, optimize, optimize_plan
from .shadow_rewrite import (
    IlluminateSite,
    apply_illuminate,
    find_illuminate_sites,
)

__all__ = [
    "defined_lcls",
    "parent_map",
    "rename_lcl",
    "used_lcls",
    "FlattenSite",
    "apply_flatten",
    "find_flatten_sites",
    "RewriteLog",
    "optimize",
    "optimize_plan",
    "IlluminateSite",
    "apply_illuminate",
    "find_illuminate_sites",
]
