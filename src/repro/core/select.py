"""The Select operator: pattern-tree matching as an algebra step.

``S[apt](S)`` performs a pattern tree match for each input tree and outputs
"the entire set of the matching witness trees for all input trees"
(Section 2.3).  Three cases:

* **document-rooted** (no input): the pattern matches the stored document —
  the leaf Selects of every plan (boxes 1 and 2 of Figure 7);
* **extension** (root references a logical class): the input trees are
  extended below their class nodes, reusing earlier match work — the
  pattern-tree-reuse Selects (boxes 8 and 9 of Figure 7);
* **in-memory**: the pattern is matched against each input tree itself —
  the TAX-style semantics, also used on constructed (temporary) content.
"""

from __future__ import annotations

from typing import List

from ..columns.batch import ColumnBatch, as_tree_sequence
from ..errors import AlgebraError
from ..model.sequence import TreeSequence
from ..patterns.apt import APT
from ..patterns.match import match_in_tree
from .base import Context, Operator


class SelectOp(Operator):
    """Select ``S[apt]``; see module docstring for the three modes."""

    name = "Select"

    def __init__(self, apt: APT, input_op: Operator = None) -> None:
        super().__init__([input_op] if input_op is not None else [])
        self.apt = apt

    def execute(
        self, ctx: Context, inputs: List[TreeSequence]
    ) -> TreeSequence:
        if self.apt.root.lc_ref is not None:
            if not inputs:
                raise AlgebraError("extension Select needs an input")
            return ctx.matcher.extend(self.apt, inputs[0])
        if not inputs:
            if self.apt.doc is None:
                raise AlgebraError("leaf Select needs a bound document")
            return ctx.matcher.match(self.apt)
        out = TreeSequence()
        ctx.metrics.pattern_matches += 1
        for tree in inputs[0]:
            out.extend(match_in_tree(self.apt, tree))
        return out

    def execute_batch(self, ctx: Context, inputs: list):
        """Batch form: emit witness columns instead of witness trees.

        Leaf Selects flatten match variants straight into a
        :class:`~repro.columns.batch.ColumnBatch`; extension Selects
        write each output row once, the input row plus the branches
        their anchored join's alternatives name.  Temporary anchors and
        in-memory matching keep a per-tree escape hatch through the
        base fallback semantics.
        """
        if self.apt.root.lc_ref is not None:
            if not inputs:
                raise AlgebraError("extension Select needs an input")
            source = inputs[0]
            if isinstance(source, ColumnBatch):
                out = ctx.matcher.extend_batch(self.apt, source)
                if out is not None:
                    self.note_batch(ctx, out)
                    return out
                source = as_tree_sequence(source, ctx.metrics, fallback=True)
            return ctx.matcher.extend(self.apt, source)
        if not inputs:
            if self.apt.doc is None:
                raise AlgebraError("leaf Select needs a bound document")
            out = ctx.matcher.match_batch(self.apt)
            self.note_batch(ctx, out)
            return out
        # in-memory matching walks real trees
        return self.execute(
            ctx, [as_tree_sequence(inputs[0], ctx.metrics, fallback=True)]
        )

    def lc_produced(self):
        return {lcl for lcl in self.apt.lcls() if lcl}

    def lc_consumed(self):
        ref = self.apt.root.lc_ref
        return {ref} if ref is not None else set()

    def params(self) -> str:
        root = self.apt.root
        if root.lc_ref is not None:
            return f"extend ({root.lc_ref})"
        return f"doc={self.apt.doc!r} root={root.test.describe()}"
