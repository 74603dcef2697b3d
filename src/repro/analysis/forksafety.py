"""Pass 2 — fork/pickle-safety certification (SX2xx).

The process-pool re-architecture the ROADMAP plans requires three kinds
of object to cross process boundaries: compiled plans (shipped to
workers), the :class:`~repro.storage.database.Database` with its
postings and indexes (forked or shipped once), and the per-request
context pieces.  This pass *certifies* them:

* a **static walk** over the object graph (``certify``) that reports
  any unpicklable field — locks and other synchronisation primitives
  (SX201), open files/sockets (SX202), closures/lambdas/generators
  (SX203), and threads / thread-locals / weakrefs / executors / tracer
  handles (SX205) — except where the class ships its own
  ``__reduce__``/``__reduce_ex__``, which replaces the raw fields at
  pickle time and makes the dynamic oracle the authority;
* a **dynamic oracle** (``round_trip``) that actually round-trips the
  object through :mod:`pickle` — SX204 reports any disagreement between
  the oracle and the static verdict, in either direction.

``certify_registry()`` builds one representative instance of every
operator class exported by :mod:`repro.core` (the physical registry)
wired into executable plans, so certification covers each operator's
real constructed field set, not a synthetic approximation.
"""

from __future__ import annotations

import io
import pickle
import threading
import types
import weakref
from dataclasses import fields, is_dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .findings import (
    PICKLE_CLOSURE,
    PICKLE_HANDLE,
    PICKLE_LOCK,
    PICKLE_ORACLE,
    PICKLE_RUNTIME,
    CheckFinding,
)

#: Synchronisation primitive types (SX201).  ``Lock``/``RLock`` are
#: factory functions, so their concrete types are taken from instances.
_LOCK_TYPES: Tuple[type, ...] = (
    type(threading.Lock()),
    type(threading.RLock()),
    threading.Event,
    threading.Condition,
    threading.Semaphore,
    threading.BoundedSemaphore,
    threading.Barrier,
)

#: Runtime-handle type names (SX205) matched by qualified name so this
#: module does not import executors/tracers it only needs to recognise.
_RUNTIME_TYPE_NAMES = frozenset(
    {
        "ThreadPoolExecutor",
        "ProcessPoolExecutor",
        "Future",
        "Tracer",
        "PlanTracer",
    }
)

#: Object-graph edges deeper than this indicate a cycle bug, not data.
_MAX_DEPTH = 64


def _has_custom_reduce(value: Any) -> bool:
    """True when ``type(value)`` defines its own pickle reduction.

    A class that implements ``__reduce__``/``__reduce_ex__`` replaces
    its raw in-memory fields with whatever the reduction returns, so
    neither the instance type nor its attributes reach the wire as-is
    (e.g. a ``threading.local`` subclass that collapses to its merged
    totals).  The static walk must not condemn such nodes; the dynamic
    oracle still round-trips them, so a *broken* reduction is reported
    as an SX204 disagreement instead.
    """
    for klass in type(value).__mro__:
        if klass is object:
            continue
        if "__reduce__" in vars(klass) or "__reduce_ex__" in vars(klass):
            return True
    return False


def _classify(value: Any) -> Optional[Tuple[str, str]]:
    """(code, description) when ``value`` itself is unpicklable."""
    if isinstance(value, _LOCK_TYPES):
        return PICKLE_LOCK, type(value).__name__
    if isinstance(value, io.IOBase):
        return PICKLE_HANDLE, type(value).__name__
    if isinstance(value, (types.FunctionType, types.LambdaType)):
        qualname = getattr(value, "__qualname__", "")
        if "<locals>" in qualname or "<lambda>" in qualname:
            return PICKLE_CLOSURE, qualname or "closure"
        return None  # module-level functions pickle by reference
    if isinstance(
        value, (types.GeneratorType, types.CoroutineType, types.FrameType)
    ):
        return PICKLE_CLOSURE, type(value).__name__
    if isinstance(value, types.ModuleType):
        return PICKLE_RUNTIME, f"module {value.__name__}"
    if isinstance(value, (threading.Thread, threading.local)):
        return PICKLE_RUNTIME, type(value).__name__
    if isinstance(value, weakref.ref):
        return PICKLE_RUNTIME, "weakref"
    if type(value).__name__ in _RUNTIME_TYPE_NAMES:
        return PICKLE_RUNTIME, type(value).__name__
    return None


def _children(value: Any) -> Iterable[Tuple[str, Any]]:
    """(edge label, child) pairs of one object-graph node."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield f"[{key!r}]", item
    elif isinstance(value, (list, tuple, set, frozenset)):
        for index, item in enumerate(value):
            yield f"[{index}]", item
    elif is_dataclass(value) and not isinstance(value, type):
        for field in fields(value):
            yield f".{field.name}", getattr(value, field.name, None)
    else:
        state = getattr(value, "__dict__", None)
        if isinstance(state, dict):
            for key, item in state.items():
                yield f".{key}", item
        for slot_owner in type(value).__mro__:
            for slot in getattr(slot_owner, "__slots__", ()):
                if slot in ("__dict__", "__weakref__"):
                    continue
                if hasattr(value, slot):
                    yield f".{slot}", getattr(value, slot)


_ATOMIC = (str, bytes, bytearray, int, float, complex, bool, type(None))


def certify(obj: Any, name: str) -> List[CheckFinding]:
    """Statically walk ``obj`` and report unpicklable fields (SX2xx)."""
    findings: List[CheckFinding] = []
    seen = set()
    stack: List[Tuple[Any, str, int]] = [(obj, "", 0)]
    while stack:
        value, path, depth = stack.pop()
        if isinstance(value, _ATOMIC) or isinstance(value, type):
            continue
        if id(value) in seen or depth > _MAX_DEPTH:
            continue
        seen.add(id(value))
        if _has_custom_reduce(value):
            continue  # the reduction defines the wire format
        verdict = _classify(value)
        if verdict is not None:
            code, what = verdict
            findings.append(
                CheckFinding(
                    code=code,
                    location=name,
                    symbol=path or "<root>",
                    message=f"unpicklable field: {what}",
                )
            )
            continue  # no need to descend into a condemned node
        for edge, child in _children(value):
            stack.append((child, path + edge, depth + 1))
    findings.sort(key=lambda f: (f.code, f.symbol))
    return findings


def round_trip(obj: Any) -> Optional[str]:
    """Pickle and unpickle ``obj``; the error message on failure."""
    try:
        pickle.loads(pickle.dumps(obj))
        return None
    except Exception as error:  # noqa: BLE001 - the oracle reports all
        return f"{type(error).__name__}: {error}"


def certify_with_oracle(obj: Any, name: str) -> List[CheckFinding]:
    """Static walk cross-checked against the dynamic pickle oracle."""
    findings = certify(obj, name)
    error = round_trip(obj)
    if error is not None and not findings:
        findings.append(
            CheckFinding(
                code=PICKLE_ORACLE,
                location=name,
                symbol="<round-trip>",
                message=f"static walk found nothing but pickling "
                f"failed: {error}",
            )
        )
    elif error is None and findings:
        findings = [
            CheckFinding(
                code=PICKLE_ORACLE,
                location=name,
                symbol=f.symbol,
                message=(
                    f"static walk flagged {f.message!r} but the object "
                    "pickles — custom reduction hides the field"
                ),
            )
            for f in findings
        ]
    return findings


# ----------------------------------------------------------------------
# representative instances of the physical operator registry
# ----------------------------------------------------------------------
def registry_classes() -> List[type]:
    """Every ``*Op`` class exported by :mod:`repro.core`."""
    import repro.core as core

    return [
        getattr(core, export)
        for export in core.__all__
        if export.endswith("Op")
    ]


def representative_plans() -> Dict[str, Any]:
    """Executable plans that together instantiate every registry class.

    Keys name the plan; the test suite asserts the union of operator
    types across these plans covers :func:`registry_classes`, so a new
    operator cannot enter the registry uncertified.
    """
    from ..core import (
        AggregateOp,
        ConstructOp,
        DedupOp,
        FilterOp,
        FlattenOp,
        JoinOp,
        ProjectOp,
        SelectOp,
        IlluminateOp,
        ShadowOp,
        SortOp,
        UnionOp,
    )
    from ..core.base import ClassPredicate, JoinPredicate
    from ..core.construct import CClassRef, CElement, CText
    from ..core.filter import TreeFilterOp, cross_class_predicate
    from ..patterns.apt import APT, pattern_node

    def person_apt() -> APT:
        root = pattern_node("person", lcl=1)
        root.add_edge(pattern_node("name", lcl=2), axis="pc", mspec="-")
        root.add_edge(
            pattern_node("watches", lcl=3), axis="ad", mspec="*"
        )
        return APT(root, doc="auction.xml")

    def item_apt() -> APT:
        root = pattern_node("item", lcl=5)
        root.add_edge(
            pattern_node("location", lcl=6), axis="pc", mspec="?"
        )
        return APT(root, doc="auction.xml")

    select = SelectOp(person_apt())
    filtered = FilterOp(
        ClassPredicate(2, "!=", ""), mode="ALO", input_op=select
    )
    cross = TreeFilterOp(
        cross_class_predicate(2, "=", 2),
        "(2) = (2)",
        input_op=filtered,
        lcls=[2],
    )
    folded = AggregateOp("count", 3, 9, input_op=cross)
    # the index-count shape: its one-edge extension pattern rides along
    counted = pattern_node(None, lcl=0, lc_ref=1)
    counted.add_edge(pattern_node("watch", lcl=10), axis="ad", mspec="*")
    aggregated = AggregateOp(
        "count", 10, 11, input_op=folded, pattern=APT(counted)
    )
    shadowed = ShadowOp(1, 3, input_op=aggregated)
    lit = IlluminateOp(3, input_op=shadowed)
    flattened = FlattenOp(1, 2, input_op=lit)
    projected = ProjectOp([1, 2, 9, 11], input_op=flattened)

    left = SelectOp(person_apt())
    right = SelectOp(item_apt())
    joined = JoinOp(
        left,
        right,
        predicates=[JoinPredicate(2, "=", 6)],
        root_lcl=7,
        right_mspec="?",
    )
    deduped = DedupOp([1], "id", input_op=joined)
    ordered = SortOp([2], descending=True, input_op=deduped)
    constructed = ConstructOp(
        CElement(
            "result",
            lcl=8,
            children=[CText("person: "), CClassRef(2, text_only=True)],
        ),
        input_op=ordered,
    )
    unioned = UnionOp(
        [SelectOp(person_apt()), SelectOp(item_apt())], dedup_lcl=1
    )
    return {
        "pipeline": projected,
        "join": constructed,
        "union": unioned,
    }


def certify_registry() -> List[CheckFinding]:
    """SX findings over representative plans of every registry operator."""
    findings: List[CheckFinding] = []
    for name, plan in representative_plans().items():
        findings.extend(certify_with_oracle(plan, f"plan:{name}"))
    return findings


def certify_sweep() -> List[CheckFinding]:
    """SX findings over the 23 XMark queries, translated and optimized."""
    from ..rewrites.pipeline import optimize_plan
    from ..xmark import QUERIES
    from ..xquery.translator import translate_query

    findings: List[CheckFinding] = []
    for name in sorted(QUERIES):
        translation = translate_query(QUERIES[name].text)
        findings.extend(
            certify_with_oracle(translation.plan, f"xmark:{name}")
        )
        optimized = optimize_plan(translation, verify=False)
        findings.extend(
            certify_with_oracle(optimized.plan, f"xmark:{name}+opt")
        )
    return findings


def certify_storage(db: Any) -> List[CheckFinding]:
    """SX findings over a Database and its postings/index objects."""
    findings = certify_with_oracle(db, "storage:Database")
    for doc_name in db.document_names():
        index = db.tag_index(doc_name)
        findings.extend(
            certify_with_oracle(index, f"storage:TagIndex({doc_name})")
        )
        for tag in index.tags()[:8]:
            findings.extend(
                certify_with_oracle(
                    index.postings(tag),
                    f"storage:Postings({doc_name},{tag})",
                )
            )
    return findings
