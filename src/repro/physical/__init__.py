"""Physical operators: structural/nest/value joins, grouping, navigation."""

from .grouping import group_by_node, group_merge, split_by_class
from .navigation import (
    check_content,
    child_step,
    descendant_step,
    navigate_path,
)
from .sort import restore_document_order, sort_trees
from .structural_join import (
    child_columns,
    join_for_mspec,
    nest_join,
    pair_join,
)
from .value_join import (
    merge_equi_join,
    nest_merge,
    theta_clusters,
    theta_join,
)

__all__ = [
    "group_by_node",
    "group_merge",
    "split_by_class",
    "check_content",
    "child_step",
    "descendant_step",
    "navigate_path",
    "restore_document_order",
    "sort_trees",
    "child_columns",
    "join_for_mspec",
    "nest_join",
    "pair_join",
    "merge_equi_join",
    "nest_merge",
    "theta_clusters",
    "theta_join",
]
