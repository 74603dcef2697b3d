"""Plans cross a process boundary by pickle: every operator round-trips.

Process-mode workers receive each plan pickled, so every ``*Op`` class
``repro.core`` exports must survive ``pickle.dumps``/``loads``.  Three
hand-built plans instantiate all of them, with the parameter shapes the
translator never emits on its own (a cross-class tree filter, an
index-count aggregate, a Union).
"""

import pickle

import pytest

import repro.core as core
from repro.core import (
    AggregateOp,
    ConstructOp,
    DedupOp,
    FilterOp,
    FlattenOp,
    IlluminateOp,
    JoinOp,
    ProjectOp,
    SelectOp,
    ShadowOp,
    SortOp,
    UnionOp,
)
from repro.core.base import ClassPredicate, JoinPredicate
from repro.core.construct import CClassRef, CElement, CText
from repro.core.filter import TreeFilterOp, cross_class_predicate
from repro.patterns.apt import APT, pattern_node


def registry_classes():
    """Every ``*Op`` class exported by :mod:`repro.core`."""
    return [
        getattr(core, export)
        for export in core.__all__
        if export.endswith("Op")
    ]


def _person_apt():
    root = pattern_node("person", lcl=1)
    root.add_edge(pattern_node("name", lcl=2), axis="pc", mspec="-")
    root.add_edge(pattern_node("watches", lcl=3), axis="ad", mspec="*")
    return APT(root, doc="auction.xml")


def _item_apt():
    root = pattern_node("item", lcl=5)
    root.add_edge(pattern_node("location", lcl=6), axis="pc", mspec="?")
    return APT(root, doc="auction.xml")


def representative_plans():
    """Executable plans that together instantiate every registry class."""
    filtered = FilterOp(
        ClassPredicate(2, "!=", ""), mode="ALO",
        input_op=SelectOp(_person_apt()),
    )
    cross = TreeFilterOp(
        cross_class_predicate(2, "=", 2), "(2) = (2)",
        input_op=filtered, lcls=[2],
    )
    folded = AggregateOp("count", 3, 9, input_op=cross)
    # the index-count shape: its one-edge extension pattern rides along
    counted = pattern_node(None, lcl=0, lc_ref=1)
    counted.add_edge(pattern_node("watch", lcl=10), axis="ad", mspec="*")
    aggregated = AggregateOp(
        "count", 10, 11, input_op=folded, pattern=APT(counted)
    )
    lit = IlluminateOp(3, input_op=ShadowOp(1, 3, input_op=aggregated))
    pipeline = ProjectOp([1, 2, 9, 11], input_op=FlattenOp(1, 2, input_op=lit))

    joined = JoinOp(
        SelectOp(_person_apt()),
        SelectOp(_item_apt()),
        predicates=[JoinPredicate(2, "=", 6)],
        root_lcl=7,
        right_mspec="?",
    )
    ordered = SortOp(
        [2], descending=True, input_op=DedupOp([1], "id", input_op=joined)
    )
    constructed = ConstructOp(
        CElement(
            "result",
            lcl=8,
            children=[CText("person: "), CClassRef(2, text_only=True)],
        ),
        input_op=ordered,
    )
    unioned = UnionOp(
        [SelectOp(_person_apt()), SelectOp(_item_apt())], dedup_lcl=1
    )
    return {"pipeline": pipeline, "join": constructed, "union": unioned}


class TestRegistry:
    def test_representative_plans_cover_every_registry_class(self):
        covered = {
            type(op)
            for plan in representative_plans().values()
            for op in plan.walk()
        }
        missing = set(registry_classes()) - covered
        assert not missing, (
            f"registry operators without a representative plan: "
            f"{sorted(c.__name__ for c in missing)}"
        )

    @pytest.mark.parametrize("plan_name", sorted(representative_plans()))
    def test_every_plan_round_trips_through_pickle(self, plan_name):
        plan = representative_plans()[plan_name]
        clone = pickle.loads(pickle.dumps(plan))
        assert type(clone) is type(plan)
        assert clone.params() == plan.params()
        assert clone.describe() == plan.describe()

    @pytest.mark.parametrize(
        "cls_name", sorted(c.__name__ for c in registry_classes())
    )
    def test_every_registry_operator_instance_round_trips(self, cls_name):
        instances = [
            op
            for plan in representative_plans().values()
            for op in plan.walk()
            if type(op).__name__ == cls_name
        ]
        assert instances, f"no representative instance of {cls_name}"
        for op in instances:
            clone = pickle.loads(pickle.dumps(op))
            assert clone.params() == op.params()
