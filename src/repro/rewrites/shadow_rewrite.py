"""The Shadow / Illuminate rewrite (Section 4.3).

After the Shadow variant of the restructuring rewrite, all siblings of
the chosen class member remain in the trees — merely shadowed.  A later
extension Select that re-fetches the *same* nodes from the database
(Figure 7's Selection 9, re-accessing every bidder for the RETURN clause)
is therefore pure redundancy: it can be replaced by a single
**Illuminate**, and downstream references to its fresh class relabelled
to the shadowed class (Figure 12's transformation, and the combination
for Q1 the paper sketches at the end of Section 4.3).

The translator fuses a RETURN's paths over one class into one extension
Select, so the redundant re-fetch is in general one *edge* of a
multi-edge extension root: that edge is cut out and the Illuminate goes
below what remains of the Select (a Select left without edges is
replaced outright).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.base import Operator
from ..core.project import ProjectOp
from ..core.select import SelectOp
from ..core.shadow import IlluminateOp, ShadowOp
from ..patterns.apt import APTEdge
from .base import consumers_above, parent_map, rename_lcl


@dataclass
class IlluminateSite:
    """One extension-Select edge that can become an Illuminate."""

    select: SelectOp  # the extension select holding the edge
    edge: APTEdge  # the redundant re-fetching edge of its root
    shadow: ShadowOp  # the Shadow that retained the nodes
    shadowed_lcl: int  # B: the class Shadow hid
    refetch_lcl: int  # C: the class the redundant select would create


def refetch_edges(op: Operator, parent_lcl: int) -> List[APTEdge]:
    """Edges of an extension Select over ``parent_lcl`` that merely re-fetch.

    A re-fetch is a nested (``+``/``*``) edge to a plain leaf: no
    sub-pattern and no content comparison, so its matches are exactly
    the children/descendants a Shadow over the same class retained.
    """
    if not isinstance(op, SelectOp) or op.apt.root.lc_ref != parent_lcl:
        return []
    return [
        edge
        for edge in op.apt.root.edges
        if edge.mspec in ("+", "*")
        and not edge.child.edges
        and not edge.child.test.comparisons
    ]


def find_illuminate_sites(root: Operator) -> List[IlluminateSite]:
    """Find extension-Select edges whose targets a Shadow already holds."""
    shadows = [op for op in root.walk() if isinstance(op, ShadowOp)]
    sites: List[IlluminateSite] = []
    for op in root.walk():
        for shadow in shadows:
            edges = [
                edge
                for edge in refetch_edges(op, shadow.parent_lcl)
                if _same_tag(root, shadow, edge.child.test.tag)
            ]
            if not edges or op not in consumers_above(root, shadow):
                continue  # the select must sit above the shadow
            sites.extend(
                IlluminateSite(
                    op, edge, shadow, shadow.child_lcl, edge.child.lcl
                )
                for edge in edges
            )
            break
    return sites


def _same_tag(root: Operator, shadow: ShadowOp, tag: Optional[str]) -> bool:
    """Does the shadowed class match nodes of this tag?

    The Shadow's child class comes from the pattern of the select feeding
    it; find that pattern node and compare tags.
    """
    for op in root.walk():
        if isinstance(op, SelectOp) and op.apt.root.lc_ref is None:
            node = op.apt.root.find(shadow.child_lcl)
            if node is not None:
                return node.test.tag == tag
    return False


def apply_illuminate(root: Operator, site: IlluminateSite) -> Operator:
    """Replace the redundant edge with Illuminate; relabel upstream."""
    select = site.select
    illuminate = IlluminateOp(site.shadowed_lcl, select.inputs[0])
    select.apt.root.edges.remove(site.edge)
    if select.apt.root.edges:
        select.replace_input(select.inputs[0], illuminate)
    else:
        consumer = parent_map(root).get(id(select))
        if consumer is None:
            root = illuminate
        else:
            consumer.replace_input(select, illuminate)
    # everything that would have referenced the re-fetched class now
    # addresses the illuminated one
    for op in root.walk():
        rename_lcl(op, site.refetch_lcl, site.shadowed_lcl)
    # the shadowed members must ride through intermediate projections
    for op in consumers_above(root, site.shadow):
        if op is illuminate:
            break
        if isinstance(op, ProjectOp):
            if site.shadowed_lcl not in op.keep_lcls:
                op.keep_lcls.append(site.shadowed_lcl)
    return root
