"""Recursive-descent parser for the Figure 5 XQuery fragment.

Scannerless: the parser walks the raw text directly, which keeps element
constructors (whose lexical rules differ from expressions) simple.
Keywords are case-insensitive (the paper writes ``FOR``/``WHERE``;
real-world XQuery is lowercase).  Both the paper's bare-path content
(``<person> $o/bidder </person>``) and standard braced content
(``{$o/bidder}``) are accepted.

Every FLWOR, element constructor and parenthesised or braced RETURN or
WHERE subexpression opens one nesting level; past :data:`MAX_NESTING` open
levels, or past :data:`MAX_NESTING` steps in one path (each step nests
one pattern node under the last), the parser raises
:class:`XQuerySyntaxError` instead of letting hostile input exhaust the
interpreter stack.  Paths chained through variables graft onto one
pattern; the translator holds that pattern to the same depth.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple, Union

from ..errors import XQuerySyntaxError
from .ast_nodes import (
    AggrExpr,
    AggrPredicate,
    BoolExpr,
    ElementConstructor,
    FLWOR,
    ForClause,
    LetClause,
    OrderSpec,
    PathExpr,
    Quantifier,
    ReturnExpr,
    SimplePredicate,
    Step,
    TextLiteral,
    ValueJoin,
    WhereExpr,
)

_NAME_RE = re.compile(r"[A-Za-z_][\w.\-]*")
_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
_AGGREGATES = ("count", "sum", "avg", "min", "max")
_COMPARE_OPS = ("!=", "<=", ">=", "=", "<", ">")

#: Most nesting levels open at once, most steps in one path, and most
#: steps on one root-to-leaf path of a translated pattern.
#: Translation, analysis, pattern matching, evaluation and serialisation
#: all recurse over the same structure, and each still fits the default
#: recursion limit at this depth.
MAX_NESTING = 100


class _Cursor:
    """Character cursor with keyword/name/number helpers."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.depth = 0

    # -- diagnostics --------------------------------------------------
    def error(self, message: str) -> XQuerySyntaxError:
        line = self.text.count("\n", 0, self.pos) + 1
        column = self.pos - self.text.rfind("\n", 0, self.pos)
        return XQuerySyntaxError(message, line, column)

    # -- nesting ------------------------------------------------------
    def enter(self) -> None:
        """Open one nesting level (closed again by :meth:`leave`)."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(
                f"expression nested more than {MAX_NESTING} levels deep"
            )

    def leave(self) -> None:
        self.depth -= 1

    # -- basic scanning ----------------------------------------------
    def skip_ws(self) -> None:
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in " \t\r\n":
                self.pos += 1
            elif self.text.startswith("(:", self.pos):  # XQuery comment
                end = self.text.find(":)", self.pos + 2)
                if end < 0:
                    raise self.error("unterminated comment")
                self.pos = end + 2
            else:
                return

    def eof(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self, n: int = 1) -> str:
        return self.text[self.pos : self.pos + n]

    def try_literal(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.try_literal(literal):
            raise self.error(f"expected {literal!r}")

    def peek_keyword(self, word: str) -> bool:
        self.skip_ws()
        end = self.pos + len(word)
        if self.text[self.pos : end].lower() != word.lower():
            return False
        if end < len(self.text) and (
            self.text[end].isalnum() or self.text[end] == "_"
        ):
            return False
        return True

    def try_keyword(self, word: str) -> bool:
        if self.peek_keyword(word):
            self.pos += len(word)
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.try_keyword(word):
            raise self.error(f"expected keyword {word!r}")

    def read_name(self) -> str:
        self.skip_ws()
        match = _NAME_RE.match(self.text, self.pos)
        if not match:
            raise self.error("expected a name")
        self.pos = match.end()
        return match.group()

    def read_var(self) -> str:
        self.expect("$")
        return self.read_name()

    def read_string(self) -> str:
        self.skip_ws()
        quote = self.peek()
        if quote not in ("'", '"', "“", "”"):
            raise self.error("expected a string literal")
        close = {"“": "”"}.get(quote, quote)
        self.pos += 1
        end = self.text.find(close, self.pos)
        if end < 0 and close == "”":
            end = self.text.find("“", self.pos)
        if end < 0:
            raise self.error("unterminated string literal")
        value = self.text[self.pos : end]
        self.pos = end + 1
        return value

    def try_number(self):
        self.skip_ws()
        match = _NUMBER_RE.match(self.text, self.pos)
        if not match:
            return None
        self.pos = match.end()
        text = match.group()
        return float(text) if any(c in text for c in ".eE") else int(text)


def parse_query(text: str) -> FLWOR:
    """Parse a complete query and return its FLWOR AST."""
    cursor = _Cursor(text)
    flwor = _parse_flwor(cursor)
    if not cursor.eof():
        raise cursor.error("unexpected trailing content")
    return flwor


# ----------------------------------------------------------------------
# FLWOR structure
# ----------------------------------------------------------------------
def _parse_flwor(cur: _Cursor) -> FLWOR:
    cur.enter()
    clauses: List[Union[ForClause, LetClause]] = []
    while True:
        if cur.peek_keyword("for"):
            cur.try_keyword("for")
            while True:
                var = cur.read_var()
                cur.expect_keyword("in")
                clauses.append(ForClause(var, _parse_binding_source(cur)))
                if not cur.try_literal(","):
                    break
        elif cur.peek_keyword("let"):
            cur.try_keyword("let")
            while True:
                var = cur.read_var()
                cur.expect(":=")
                clauses.append(LetClause(var, _parse_binding_source(cur)))
                if not cur.try_literal(","):
                    break
        else:
            break
    if not clauses:
        raise cur.error("FLWOR must start with FOR or LET")
    where = None
    if cur.try_keyword("where"):
        where = _parse_where(cur)
    order = None
    if cur.peek_keyword("order"):
        cur.try_keyword("order")
        cur.expect_keyword("by")
        paths = [_parse_path(cur)]
        while cur.try_literal(","):
            paths.append(_parse_path(cur))
        descending = False
        if cur.try_keyword("descending"):
            descending = True
        else:
            cur.try_keyword("ascending")
        order = OrderSpec(paths, descending)
    cur.expect_keyword("return")
    ret = _parse_return_expr(cur)
    cur.leave()
    return FLWOR(clauses, where, order, ret)


def _parse_binding_source(cur: _Cursor) -> Union[PathExpr, FLWOR]:
    cur.skip_ws()
    if cur.peek() == "(":
        saved = cur.pos
        cur.expect("(")
        if cur.peek_keyword("for") or cur.peek_keyword("let"):
            inner = _parse_flwor(cur)
            cur.expect(")")
            return inner
        cur.pos = saved
    if cur.peek_keyword("for") or cur.peek_keyword("let"):
        return _parse_flwor(cur)
    return _parse_path(cur)


# ----------------------------------------------------------------------
# paths
# ----------------------------------------------------------------------
def _parse_path(cur: _Cursor) -> PathExpr:
    cur.skip_ws()
    doc = None
    var = None
    if cur.peek() == "$":
        var = cur.read_var()
    elif cur.peek_keyword("document") or cur.peek_keyword("doc"):
        cur.try_keyword("document") or cur.try_keyword("doc")
        cur.expect("(")
        doc = cur.read_string()
        cur.expect(")")
    else:
        raise cur.error("a path must start with $var or document(...)")
    steps: List[Step] = []
    text_fn = False
    while True:
        cur.skip_ws()
        if cur.text.startswith("//", cur.pos):
            cur.pos += 2
            axis = "ad"
        elif cur.peek() == "/":
            cur.pos += 1
            axis = "pc"
        else:
            break
        cur.skip_ws()
        if cur.peek_keyword("text"):
            # only the function call form ``text()`` ends the path; an
            # element named ``text`` (XMark's parlist chains) is a step
            after = cur.pos + len("text")
            rest = cur.text[after:].lstrip()
            if rest.startswith("("):
                cur.try_keyword("text")
                cur.expect("(")
                cur.expect(")")
                text_fn = True
                break
        if len(steps) == MAX_NESTING:
            raise cur.error(f"path longer than {MAX_NESTING} steps")
        if cur.peek() == "@":
            cur.pos += 1
            steps.append(Step(axis, "@" + cur.read_name()))
        else:
            steps.append(Step(axis, cur.read_name()))
    return PathExpr(doc, var, steps, text_fn)


# ----------------------------------------------------------------------
# WHERE
# ----------------------------------------------------------------------
def _parse_where(cur: _Cursor) -> WhereExpr:
    return _parse_or(cur)


def _parse_or(cur: _Cursor) -> WhereExpr:
    left = _parse_and(cur)
    while cur.try_keyword("or"):
        left = BoolExpr("or", left, _parse_and(cur))
    return left


def _parse_and(cur: _Cursor) -> WhereExpr:
    left = _parse_where_primary(cur)
    while cur.try_keyword("and"):
        left = BoolExpr("and", left, _parse_where_primary(cur))
    return left


def _read_compare_op(cur: _Cursor) -> str:
    cur.skip_ws()
    for op in _COMPARE_OPS:
        if cur.text.startswith(op, cur.pos):
            cur.pos += len(op)
            return op
    raise cur.error("expected a comparison operator")


def _parse_where_primary(cur: _Cursor) -> WhereExpr:
    cur.skip_ws()
    if cur.peek() == "(":
        cur.expect("(")
        cur.enter()
        inner = _parse_or(cur)
        cur.expect(")")
        cur.leave()
        return inner
    if cur.peek_keyword("every") or cur.peek_keyword("some"):
        kind = "every" if cur.try_keyword("every") else "some"
        if kind == "some":
            cur.expect_keyword("some")
        var = cur.read_var()
        cur.expect_keyword("in")
        path = _parse_path(cur)
        cur.expect_keyword("satisfies")
        pred_path = _parse_path(cur)
        op = _read_compare_op(cur)
        value = _read_value(cur)
        return Quantifier(kind, var, path, SimplePredicate(pred_path, op, value))
    if cur.peek_keyword("contains"):
        # contains(<SP>, "text") — the x14 function, as an extension
        cur.try_keyword("contains")
        cur.expect("(")
        path = _parse_path(cur)
        cur.expect(",")
        value = _read_value(cur)
        cur.expect(")")
        return SimplePredicate(path, "contains", value)
    for fname in _AGGREGATES:
        if cur.peek_keyword(fname):
            cur.try_keyword(fname)
            cur.expect("(")
            path = _parse_path(cur)
            cur.expect(")")
            op = _read_compare_op(cur)
            value = _read_value(cur)
            return AggrPredicate(fname, path, op, value)
    left = _parse_path(cur)
    op = _read_compare_op(cur)
    cur.skip_ws()
    if cur.peek() in ("$",) or cur.peek_keyword("document") or cur.peek_keyword("doc"):
        right = _parse_path(cur)
        return ValueJoin(left, op, right)
    return SimplePredicate(left, op, _read_value(cur))


def _read_value(cur: _Cursor):
    cur.skip_ws()
    if cur.peek() in ("'", '"', "“"):
        return cur.read_string()
    number = cur.try_number()
    if number is None:
        raise cur.error("expected a literal value")
    return number


# ----------------------------------------------------------------------
# RETURN
# ----------------------------------------------------------------------
def _parse_return_expr(cur: _Cursor) -> ReturnExpr:
    cur.skip_ws()
    if cur.peek() == "<":
        return _parse_constructor(cur)
    for opening, closing in (("(", ")"), ("{", "}")):
        if cur.peek() == opening:
            cur.expect(opening)
            cur.enter()
            inner = _parse_return_expr(cur)
            cur.expect(closing)
            cur.leave()
            return inner
    if cur.peek_keyword("for") or cur.peek_keyword("let"):
        return _parse_flwor(cur)
    for fname in _AGGREGATES:
        if cur.peek_keyword(fname):
            cur.try_keyword(fname)
            cur.expect("(")
            path = _parse_path(cur)
            cur.expect(")")
            return AggrExpr(fname, path)
    return _parse_path(cur)


def _parse_constructor(cur: _Cursor) -> ElementConstructor:
    cur.expect("<")
    cur.enter()
    tag = cur.read_name()
    attrs: List[Tuple[str, Union[str, PathExpr, AggrExpr]]] = []
    while True:
        cur.skip_ws()
        if cur.peek() in (">", "/"):
            break
        attr_name = cur.read_name()
        cur.expect("=")
        cur.skip_ws()
        if cur.peek() == "{":
            cur.expect("{")
            value = _parse_attr_value(cur)
            cur.expect("}")
        elif cur.peek() in ("'", '"', "“"):
            raw = cur.read_string()
            value = _attr_from_string(raw)
        else:
            value = _parse_attr_value(cur)
        attrs.append((attr_name, value))
    if cur.try_literal("/>"):
        children: List[ReturnExpr] = []
    else:
        cur.expect(">")
        children = _parse_content(cur, tag)
    cur.leave()
    return ElementConstructor(tag, attrs, children)


def _attr_from_string(raw: str) -> Union[str, PathExpr, AggrExpr]:
    """Attribute strings may embed one ``{expr}``; otherwise literal."""
    stripped = raw.strip()
    if stripped.startswith("{") and stripped.endswith("}"):
        inner = _Cursor(stripped[1:-1])
        value = _parse_attr_value(inner)
        if not inner.eof():
            raise inner.error("unexpected content in attribute expression")
        return value
    return raw


def _parse_attr_value(cur: _Cursor) -> Union[PathExpr, AggrExpr]:
    for fname in _AGGREGATES:
        if cur.peek_keyword(fname):
            cur.try_keyword(fname)
            cur.expect("(")
            path = _parse_path(cur)
            cur.expect(")")
            return AggrExpr(fname, path)
    return _parse_path(cur)


def _parse_content(cur: _Cursor, open_tag: str) -> List[ReturnExpr]:
    children: List[ReturnExpr] = []
    while True:
        cur.skip_ws()
        if cur.eof():
            raise cur.error(f"unclosed constructor <{open_tag}>")
        if cur.text.startswith("</", cur.pos):
            cur.pos += 2
            closing = cur.read_name()
            if closing != open_tag:
                raise cur.error(
                    f"mismatched </{closing}> for <{open_tag}>"
                )
            cur.expect(">")
            return children
        if cur.peek() == "<":
            children.append(_parse_constructor(cur))
            continue
        if cur.peek() == "{":
            cur.expect("{")
            cur.enter()
            children.append(_parse_return_expr(cur))
            cur.expect("}")
            cur.leave()
            continue
        if cur.peek() == "$":
            children.append(_parse_path(cur))
            continue
        for fname in _AGGREGATES:
            if cur.peek_keyword(fname):
                children.append(_parse_return_expr(cur))
                break
        else:
            # literal text up to the next markup character
            start = cur.pos
            while cur.pos < len(cur.text) and cur.text[cur.pos] not in "<{$":
                cur.pos += 1
            literal = cur.text[start : cur.pos].strip()
            if literal:
                children.append(TextLiteral(literal))
            continue
