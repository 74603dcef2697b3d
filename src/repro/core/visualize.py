"""Plan visualization: render operator trees as Graphviz DOT.

The paper presents its plans as operator-box diagrams (Figures 2, 7, 8);
``plan_to_dot`` renders ours the same way — one box per operator with its
parameters, edges following dataflow bottom-up.  Feed the output to
``dot -Tsvg`` or any Graphviz viewer::

    from repro.core.visualize import plan_to_dot
    print(plan_to_dot(engine.plan(query).plan))
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .base import Operator


def _escape(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def plan_to_dot(
    root: Operator,
    title: str = "TLC plan",
    annotate: Optional[Callable[[Operator], str]] = None,
) -> str:
    """Render the plan rooted at ``root`` as a DOT digraph.

    Shared sub-plans (of a hand-built DAG) appear once with multiple
    incoming edges — the DAG structure is visible, unlike in the
    indented text rendering.  ``annotate`` may supply extra label text
    per operator (the runtime tracer uses it for measured costs).
    """
    ids: Dict[int, str] = {}
    lines: List[str] = [
        "digraph plan {",
        "  rankdir=BT;",
        '  node [shape=box, fontname="Helvetica", fontsize=10];',
        f'  label="{_escape(title)}"; labelloc=t;',
    ]

    def node_id(op: Operator) -> str:
        key = id(op)
        if key not in ids:
            ids[key] = f"op{len(ids)}"
            params = op.params()
            label = op.name if not params else f"{op.name}\\n{_escape(params)}"
            if annotate is not None:
                label += f"\\n{_escape(annotate(op))}"
            lines.append(f'  {ids[key]} [label="{label}"];')
        return ids[key]

    seen = set()

    def walk(op: Operator) -> None:
        if id(op) in seen:
            return
        seen.add(id(op))
        this = node_id(op)
        for child in op.inputs:
            that = node_id(child)
            lines.append(f"  {that} -> {this};")
            walk(child)

    walk(root)
    lines.append("}")
    return "\n".join(lines)
