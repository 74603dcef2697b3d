"""Navigational query evaluation (Section 6.1's NAV competitor).

"The algorithm traverses down a path by recursively getting all children
of a node and checking them for a condition on content or name before
proceeding on the next iteration."  This evaluator interprets the FLWOR
AST directly with those primitives: no indexes, no set-at-a-time bulk
operators, nested-loop semantics for joins and nested queries.  Its cost
profile is the paper's: it pays for every child it looks at, so ``//``
steps, counts and highly selective predicates hurt, while heavy final
materialisation is (comparatively) free because the data was already
visited.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Union

from ...errors import EvaluationError
from ...model.node_id import NodeId
from ...model.sequence import TreeSequence
from ...model.tree import TNode, XTree
from ...model.value import coerce_number, compare
from ...physical.navigation import child_step, descendant_step
from ...storage.database import Database
from ...xquery.ast_nodes import (
    AggrExpr,
    AggrPredicate,
    BoolExpr,
    ElementConstructor,
    FLWOR,
    ForClause,
    LetClause,
    PathExpr,
    Quantifier,
    SimplePredicate,
    TextLiteral,
    ValueJoin,
)
from ...xquery.parser import parse_query

#: A navigational binding: one stored node, one constructed tree node, or
#: (for LET) a list of either.
Bound = Union[NodeId, TNode, list]
Env = Dict[str, Bound]


class NavEvaluator:
    """Evaluates the Figure 5 fragment by tree navigation."""

    def __init__(self, db: Database) -> None:
        self.db = db

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, query: Union[str, FLWOR]) -> TreeSequence:
        """Evaluate a query (text or AST) and return the result forest."""
        flwor = parse_query(query) if isinstance(query, str) else query
        out = TreeSequence()
        for node in self._eval_flwor(flwor, {}):
            out.append(XTree(node))
        return out

    # ------------------------------------------------------------------
    # FLWOR evaluation
    # ------------------------------------------------------------------
    def _eval_flwor(self, flwor: FLWOR, outer_env: Env) -> List[TNode]:
        results: List[TNode] = []
        keyed: List[tuple] = []
        for env in self._bind_clauses(flwor.clauses, 0, dict(outer_env)):
            if flwor.where is not None and not self._where(
                flwor.where, env
            ):
                continue
            built = self._build_return(flwor.ret, env)
            if flwor.order is not None:
                key = tuple(
                    _order_key(self._path_values(path, env))
                    for path in flwor.order.paths
                )
                keyed.append((key, built))
            else:
                results.extend(built)
        if flwor.order is not None:
            keyed.sort(key=lambda pair: pair[0],
                       reverse=flwor.order.descending)
            for _, built in keyed:
                results.extend(built)
        return results

    def _bind_clauses(
        self, clauses, index: int, env: Env
    ) -> Iterator[Env]:
        if index == len(clauses):
            yield env
            return
        clause = clauses[index]
        if isinstance(clause, ForClause):
            for item in self._iterate_source(clause.source, env):
                child_env = dict(env)
                child_env[clause.var] = item
                yield from self._bind_clauses(clauses, index + 1, child_env)
        else:  # LET binds the whole sequence
            items = list(self._iterate_source(clause.source, env))
            child_env = dict(env)
            child_env[clause.var] = items
            yield from self._bind_clauses(clauses, index + 1, child_env)

    def _iterate_source(self, source, env: Env) -> Iterator[Bound]:
        if isinstance(source, FLWOR):
            yield from self._eval_flwor(source, env)
            return
        yield from self._path_nodes(source, env)

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def _roots(self, path: PathExpr, env: Env) -> List[Bound]:
        if path.doc is not None:
            return [self.db.document(path.doc).root_id]
        bound = env.get(path.var)
        if bound is None:
            raise EvaluationError(f"unbound variable ${path.var}")
        if isinstance(bound, list):
            return bound
        return [bound]

    def _path_nodes(self, path: PathExpr, env: Env) -> List[Bound]:
        frontier: List[Bound] = self._roots(path, env)
        for step in path.steps:
            next_frontier: List[Bound] = []
            seen = set()
            for node in frontier:
                for reached in self._step(node, step.axis, step.name):
                    key = (
                        reached.nid
                        if isinstance(reached, TNode)
                        else reached
                    )
                    if key not in seen:
                        seen.add(key)
                        next_frontier.append(reached)
            frontier = next_frontier
        return frontier

    def _step(self, node: Bound, axis: str, name: str) -> List[Bound]:
        if isinstance(node, TNode):
            if axis == "pc":
                pool = node.visible_children()
            else:
                pool = [n for n in node.walk() if n is not node]
            return [n for n in pool if n.tag == name]
        if axis == "pc":
            return child_step(self.db, node, name)
        return descendant_step(self.db, node, name)

    def _value_of(self, node: Bound) -> Optional[str]:
        if isinstance(node, TNode):
            return None if node.value is None else str(node.value)
        return self.db.value_of(node)

    def _path_values(self, path: PathExpr, env: Env) -> List[Optional[str]]:
        return [self._value_of(n) for n in self._path_nodes(path, env)]

    # ------------------------------------------------------------------
    # WHERE
    # ------------------------------------------------------------------
    def _where(self, expr, env: Env) -> bool:
        if isinstance(expr, BoolExpr):
            if expr.op == "and":
                return self._where(expr.left, env) and self._where(
                    expr.right, env
                )
            return self._where(expr.left, env) or self._where(
                expr.right, env
            )
        if isinstance(expr, SimplePredicate):
            return any(
                compare(value, expr.op, expr.value)
                for value in self._path_values(expr.path, env)
            )
        if isinstance(expr, AggrPredicate):
            result = self._aggregate(
                expr.fname, self._path_nodes(expr.path, env)
            )
            return compare(result, expr.op, expr.value)
        if isinstance(expr, ValueJoin):
            lefts = self._path_values(expr.left, env)
            rights = self._path_values(expr.right, env)
            return any(
                compare(l, expr.op, r) for l in lefts for r in rights
            )
        if isinstance(expr, Quantifier):
            nodes = self._path_nodes(expr.path, env)
            checks = []
            for node in nodes:
                child_env = dict(env)
                child_env[expr.var] = node
                checks.append(
                    any(
                        compare(v, expr.predicate.op, expr.predicate.value)
                        for v in self._path_values(
                            expr.predicate.path, child_env
                        )
                    )
                )
            if expr.kind == "every":
                return all(checks)
            return any(checks)
        raise EvaluationError(f"unsupported WHERE expression: {expr!r}")

    def _aggregate(self, fname: str, nodes: List[Bound]):
        if fname == "count":
            return len(nodes)
        values = [
            number
            for number in (
                coerce_number(self._value_of(n)) for n in nodes
            )
            if number is not None
        ]
        if not values:
            return "empty"
        if fname == "sum":
            return sum(values)
        if fname == "avg":
            return sum(values) / len(values)
        if fname == "min":
            return min(values)
        return max(values)

    # ------------------------------------------------------------------
    # RETURN
    # ------------------------------------------------------------------
    def _build_return(self, ret, env: Env) -> List[TNode]:
        if isinstance(ret, ElementConstructor):
            return [self._build_element(ret, env)]
        if isinstance(ret, PathExpr):
            if ret.text_fn:
                return [
                    TNode("text", value)
                    for value in self._path_values(ret, env)
                    if value is not None
                ]
            return [
                self._materialize(node)
                for node in self._path_nodes(ret, env)
            ]
        if isinstance(ret, AggrExpr):
            value = self._aggregate(
                ret.fname, self._path_nodes(ret.path, env)
            )
            return [TNode(ret.fname, value)]
        if isinstance(ret, FLWOR):
            return self._eval_flwor(ret, env)
        if isinstance(ret, TextLiteral):
            return [TNode("text", ret.text)]
        raise EvaluationError(f"unsupported RETURN expression: {ret!r}")

    def _build_element(
        self, spec: ElementConstructor, env: Env
    ) -> TNode:
        element = TNode(spec.tag)
        for attr_name, attr_value in spec.attrs:
            if isinstance(attr_value, str):
                element.add_child(TNode("@" + attr_name, attr_value))
            elif isinstance(attr_value, AggrExpr):
                value = self._aggregate(
                    attr_value.fname,
                    self._path_nodes(attr_value.path, env),
                )
                element.add_child(TNode("@" + attr_name, str(value)))
            else:
                values = [
                    v
                    for v in self._path_values(attr_value, env)
                    if v is not None
                ]
                element.add_child(
                    TNode("@" + attr_name, values[0] if values else "")
                )
        for child in spec.children:
            if isinstance(child, TextLiteral):
                element.value = (
                    child.text
                    if element.value is None
                    else f"{element.value}{child.text}"
                )
                continue
            if isinstance(child, PathExpr) and child.text_fn:
                values = [
                    v
                    for v in self._path_values(child, env)
                    if v is not None
                ]
                if values:
                    joined = " ".join(values)
                    element.value = (
                        joined
                        if element.value is None
                        else f"{element.value} {joined}"
                    )
                continue
            if isinstance(child, AggrExpr):
                value = self._aggregate(
                    child.fname, self._path_nodes(child.path, env)
                )
                text = str(value)
                element.value = (
                    text
                    if element.value is None
                    else f"{element.value} {text}"
                )
                continue
            for built in self._build_return(child, env):
                element.add_child(built)
        return element

    def _materialize(self, node: Bound) -> TNode:
        """Copy a bound node's full subtree by navigation.

        Pre-order without recursion: each node is read (tag, value) and
        then its children are fetched, before any child is visited.
        """
        if isinstance(node, TNode):
            return node.clone()
        db = self.db
        root = TNode(db.tag_of(node), db.value_of(node), node)
        stack = [(root, iter(child_step(db, node)))]
        while stack:
            parent, pending = stack[-1]
            for child in pending:
                built = parent.add_child(
                    TNode(db.tag_of(child), db.value_of(child), child)
                )
                grandchildren = child_step(db, child)
                if grandchildren:
                    stack.append((built, iter(grandchildren)))
                    break
            else:
                stack.pop()
        return root


def _order_key(values: List[Optional[str]]) -> tuple:
    from ...model.value import sort_key

    return sort_key(values[0] if values else None)
