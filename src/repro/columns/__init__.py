"""Columnar batch runtime: batch-at-a-time evaluation over node columns.

The package generalises the PR 3 structural-join fast path (columnar
:class:`~repro.storage.postings.Postings`) into an operator runtime: a
:class:`~repro.columns.batch.ColumnBatch` — parallel arrays of node ids,
interval starts/ends/levels and LC labels — flows between operators, and
the core operators gain vectorised ``execute_batch`` implementations
that transform whole columns instead of per-tree ``TreeSequence``
objects.  The evaluator dispatches every operator through
``execute_batch``; operators without a batch form fall back
transparently: the batch is materialised at the boundary (metered as
``batch_fallbacks``) and the per-tree ``execute`` runs.

Integer columns are plain ``list``s (a batch's ``labels``/``parents``)
or ``array('l')`` (the postings' storage columns); DESIGN §15 records
why there is no array backend to choose.
"""

from .batch import ColumnBatch, as_tree_sequence

__all__ = ["ColumnBatch", "as_tree_sequence"]
