"""Physical operators: structural/nest/value joins, grouping, navigation."""

from .grouping import group_by_node, group_merge, split_by_class
from .holistic import match_path_holistic, path_stack
from .twigstack import TwigNode, match_twig_holistic, twig_stack
from .navigation import (
    check_content,
    child_step,
    descendant_step,
    navigate_path,
)
from .sort import restore_document_order, sort_trees
from .stack_join import stack_tree_desc
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
    "match_path_holistic",
    "path_stack",
    "TwigNode",
    "match_twig_holistic",
    "twig_stack",
    "group_merge",
    "split_by_class",
    "check_content",
    "child_step",
    "descendant_step",
    "navigate_path",
    "restore_document_order",
    "stack_tree_desc",
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
