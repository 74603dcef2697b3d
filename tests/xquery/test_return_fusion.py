"""One extension Select per bound class per run of RETURN paths.

The translator used to emit one ``Select extend`` per RETURN path; a
12-argument constructor ran 11 chained extensions, each re-copying every
witness.  Adjacent paths over the same bound class now share one
extension root — one ``*`` edge per path, in argument order, every path
keeping its own pattern nodes and labels.  An Aggregate between two
paths, or a path over another class, ends the run.
"""

from repro.core import AggregateOp, ConstructOp, SelectOp
from repro.xmark.queries import QUERIES
from repro.xquery import translate_query
from tests.conftest import canonical_sorted


def inputs_chain(op):
    """``op`` and everything below it along first inputs."""
    while True:
        yield op
        if not op.inputs:
            return
        op = op.inputs[0]


def return_ops(construct):
    """The Select/Aggregate operators a Construct's RETURN added."""
    out = []
    for op in list(inputs_chain(construct))[1:]:
        if isinstance(op, SelectOp) and op.apt.root.lc_ref is not None:
            out.append(op)
        elif isinstance(op, AggregateOp):
            out.append(op)
        else:
            break
    return out


def edge_paths(op):
    """Each edge of an extension root (a Select's, or an APT's), as its
    chain of tags."""
    apt = op.apt if isinstance(op, SelectOp) else op
    paths = []
    for edge in apt.root.edges:
        assert edge.mspec == "*"
        tags, node = [], edge.child
        while True:
            tags.append(node.test.tag)
            if not node.edges:
                break
            assert len(node.edges) == 1  # a chain: prefixes are not merged
            node = node.edges[0].child
        paths.append("/".join(tags))
    return paths


class TestXMarkShapes:
    def test_x10_inner_block_has_one_extension_select(self):
        plan = translate_query(QUERIES["x10"].text).plan
        (inner,) = [
            op
            for op in plan.walk()
            if isinstance(op, ConstructOp) and op.ctree.tag == "personne"
        ]
        (select,) = return_ops(inner)
        assert isinstance(select, SelectOp)
        assert edge_paths(select) == [
            "profile/gender",
            "profile/age",
            "profile/education",
            "profile/@income",
            "name",
            "address/street",
            "address/city",
            "address/country",
            "emailaddress",
            "homepage",
            "creditcard",
        ]
        labels = select.apt.lcls()
        assert len(labels) == len(set(labels)) == 18
        select.apt.validate()

    def test_x11_aggregate_sits_directly_on_the_extension(self):
        # returning $l as well as count($l) keeps the LET off the counting
        # join, so count($l) is an Aggregate over the constructed items
        text = QUERIES["x11"].text.replace("{count($l)}", "{count($l)}{$l}")
        assert text != QUERIES["x11"].text
        plan = translate_query(text).plan
        aggregate, select = return_ops(plan)
        assert isinstance(aggregate, AggregateOp)
        assert aggregate.inputs[0] is select
        assert select.params().startswith("extend")
        assert edge_paths(select) == ["name"]
        (join,) = [op for op in plan.walk() if op.name == "Join"]
        assert not join.count_lcl

    def test_x11_return_is_one_extension_over_the_counting_join(self):
        plan = translate_query(QUERIES["x11"].text).plan
        (select,) = return_ops(plan)
        assert select.params().startswith("extend")
        assert edge_paths(select) == ["name"]
        # the count($l) comes from the join's clusters, not an Aggregate
        (join,) = [op for op in plan.walk() if op.name == "Join"]
        assert join.count_lcl and join.right_mspec == "*"

    def test_no_xmark_block_chains_selects_over_one_class(self):
        for name, query in QUERIES.items():
            plan = translate_query(query.text).plan
            for op in plan.walk():
                if not isinstance(op, ConstructOp):
                    continue
                ops = return_ops(op)
                for upper, lower in zip(ops, ops[1:]):
                    both = isinstance(upper, SelectOp) and isinstance(
                        lower, SelectOp
                    )
                    assert not (
                        both
                        and upper.apt.root.lc_ref == lower.apt.root.lc_ref
                    ), name


class TestRuns:
    def test_an_aggregate_ends_the_run(self):
        plan = translate_query('''
            FOR $o IN document("auction.xml")//open_auction
            RETURN <r>{$o/initial/text()}{count($o/bidder)}
                      {$o/quantity/text()}{$o/reserve}</r>
        ''').plan
        upper, aggregate, lower = return_ops(plan)
        # a one-step count is an index count: it probes its own pattern
        # and grafts nothing onto the open run
        assert edge_paths(lower) == ["initial"]
        assert isinstance(aggregate, AggregateOp)
        assert edge_paths(aggregate.pattern) == ["bidder"]
        assert edge_paths(upper) == ["quantity", "reserve"]
        assert upper.apt.root.lc_ref == lower.apt.root.lc_ref
        assert aggregate.pattern.root.lc_ref == lower.apt.root.lc_ref

    def test_a_multi_step_count_joins_the_run_and_folds(self):
        plan = translate_query('''
            FOR $o IN document("auction.xml")//open_auction
            RETURN <r>{$o/initial/text()}{count($o/bidder/increase)}
                      {$o/reserve}</r>
        ''').plan
        upper, aggregate, lower = return_ops(plan)
        assert edge_paths(lower) == ["initial", "bidder/increase"]
        assert aggregate.pattern is None
        assert edge_paths(upper) == ["reserve"]

    def test_another_class_ends_the_run(self):
        plan = translate_query('''
            FOR $p IN document("auction.xml")//person
            FOR $o IN document("auction.xml")//open_auction
            WHERE $p/@id = $o/bidder/personref/@person
            RETURN <r>{$p/name/text()}{$p/profile/age}{$o/initial/text()}
                      {$p/@id}</r>
        ''').plan
        third, second, first = return_ops(plan)
        assert edge_paths(first) == ["name", "profile/age"]
        assert edge_paths(second) == ["initial"]
        assert edge_paths(third) == ["@id"]
        assert first.apt.root.lc_ref == third.apt.root.lc_ref
        assert first.apt.root.lc_ref != second.apt.root.lc_ref

    def test_paths_without_steps_and_literals_do_not_break_it(self):
        plan = translate_query('''
            FOR $o IN document("auction.xml")//open_auction
            RETURN <r a={$o/@id}>{$o/initial} and {$o} <s>{$o/quantity}</s></r>
        ''').plan
        (select,) = return_ops(plan)
        assert edge_paths(select) == ["@id", "initial", "quantity"]

    def test_repeated_paths_keep_their_own_nodes(self):
        plan = translate_query('''
            FOR $o IN document("auction.xml")//open_auction
            RETURN <r>{$o/bidder/increase}{$o/bidder/increase/text()}</r>
        ''').plan
        (select,) = return_ops(plan)
        assert edge_paths(select) == ["bidder/increase", "bidder/increase"]
        assert len(set(select.apt.lcls())) == 4


class TestResults:
    QUERIES = [
        '''FOR $o IN document("auction.xml")//open_auction
           RETURN <r a={$o/@id}>{$o/initial/text()}{count($o/bidder)}
                     {$o/bidder/increase}{$o/reserve}
                     {$o/quantity/text()}</r>''',
        '''FOR $p IN document("auction.xml")//person
           FOR $o IN document("auction.xml")//open_auction
           WHERE $p/@id = $o/bidder/personref/@person
           RETURN <r>{$p/name/text()}{$p/profile/age}{$o/initial/text()}
                     {$p/@id}{$o/bidder}</r>''',
        '''FOR $p IN document("auction.xml")//person
           LET $a := FOR $o IN document("auction.xml")//open_auction
                     WHERE $o/bidder/personref/@person = $p/@id
                     RETURN <t q={$o/quantity/text()}>{$o/initial}
                               {$o/reserve}</t>
           RETURN <n c={count($a)} id={$p/@id}>{$p/name/text()}
                     {$p/profile/age}</n>''',
    ]

    def test_every_engine_agrees_on_multi_path_returns(self, tiny_engine):
        for query in self.QUERIES:
            reference = canonical_sorted(tiny_engine.run(query, engine="nav"))
            assert reference, query
            for kwargs in (
                dict(engine="tlc"),
                dict(engine="tlc", optimize=True),
                dict(engine="gtp"),
                dict(engine="tax"),
            ):
                assert reference == canonical_sorted(
                    tiny_engine.run(query, **kwargs)
                ), (kwargs, query)
