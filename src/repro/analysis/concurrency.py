"""The concurrency lint (CC1xx) over the package sources.

A stdlib-``ast`` analyzer that flags the shared-mutable-state patterns a
move from a thread pool to a process pool (or simply more threads) turns
into bugs:

* **CC101** — a module global rebound via ``global X`` with no lock held;
* **CC102** — an instance attribute written outside ``__init__`` and
  outside a held-lock scope, in the *shared-scope* modules
  (``repro.service`` / ``repro.telemetry``) whose objects are touched by
  many threads;
* **CC103** — two code paths that acquire the same pair of locks in
  opposite nesting orders;
* **CC104** — check-then-set lazy initialisation of an attribute
  (``if self._x is None: self._x = ...``) with no lock held;
* **CC105** — a module-level mutable container mutated from function
  scope with no lock held.

Lock recognition is lexical and deliberately generous: any ``with``
context expression whose source text contains ``lock`` counts — that
covers ``with self._lock:``, the sharded ``with self._locks[i]:`` and
``with cell.lock:`` idioms, and ``with _state_lock:`` module locks.
A method whose name ends in ``_locked`` declares "caller holds the
lock" and is analyzed as if a lock were held (the convention the
intraprocedural analysis needs for helpers called under a lock).
The analyzer never imports the analyzed code.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from .findings import (
    GLOBAL_MUTATION,
    GLOBAL_REBIND,
    LOCK_ORDER_CYCLE,
    UNGUARDED_ATTR_WRITE,
    UNSAFE_LAZY_INIT,
    CheckFinding,
)

#: Methods whose attribute writes are construction, not shared mutation.
_CONSTRUCTORS = frozenset(
    {"__init__", "__new__", "__post_init__", "__setstate__"}
)

#: Container-mutating method names (CC105).
_MUTATORS = frozenset(
    {
        "append", "add", "update", "pop", "popitem", "clear", "extend",
        "insert", "remove", "discard", "setdefault", "appendleft",
    }
)

#: An observed nested lock acquisition: (location, line, function).
LockEdge = Tuple[str, int, str]
LockEdges = Dict[Tuple[str, str], LockEdge]


def _lockish(expr: ast.expr) -> Optional[str]:
    """The normalized lock name if ``expr`` looks like a lock, else None.

    The name is the last attribute/identifier component (``self._lock``
    and ``other._lock`` are the *same* lock class for ordering purposes;
    sharded ``self._locks[i]`` normalizes to ``_locks``).
    """
    node = expr
    if isinstance(node, ast.Call):  # with lock: not with lock.acquire()
        return None
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    else:
        return None
    return name if "lock" in name.lower() else None


def _is_self_attr(node: ast.expr) -> Optional[str]:
    """``self.X`` (or ``self.X[...]``) write target -> attribute name."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _ModuleLint:
    """One module's walk; accumulates findings and lock-order edges."""

    def __init__(
        self, location: str, shared_attrs: bool, edges: LockEdges
    ) -> None:
        self.location = location
        self.shared_attrs = shared_attrs
        self.edges = edges
        self.findings: List[CheckFinding] = []
        self.mutable_globals: set = set()
        self.class_stack: List[str] = []
        self.func_stack: List[str] = []
        self.global_decls: List[set] = []
        self.lock_stack: List[str] = []

    # -- context helpers ------------------------------------------------
    def _symbol(self, suffix: str) -> str:
        parts = self.class_stack + self.func_stack
        return ".".join(parts) + (f":{suffix}" if suffix else "")

    def _report(self, code: str, suffix: str, message: str, line: int):
        self.findings.append(
            CheckFinding(
                code=code,
                location=self.location,
                symbol=self._symbol(suffix),
                message=message,
                line=line,
            )
        )

    @property
    def _locked(self) -> bool:
        if self.lock_stack:
            return True
        # the caller-holds-the-lock naming convention
        return bool(self.func_stack) and self.func_stack[-1].endswith(
            "_locked"
        )

    @property
    def _in_constructor(self) -> bool:
        return bool(self.func_stack) and (
            self.func_stack[-1] in _CONSTRUCTORS
        )

    # -- the walk -------------------------------------------------------
    def run(self, tree: ast.Module) -> List[CheckFinding]:
        for stmt in tree.body:
            self._collect_module_global(stmt)
        for stmt in tree.body:
            self.visit(stmt)
        return self.findings

    def _collect_module_global(self, stmt: ast.stmt) -> None:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        mutable = isinstance(
            value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp)
        ) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("list", "dict", "set", "deque",
                                  "defaultdict", "OrderedDict")
        )
        if not mutable:
            return
        for target in targets:
            if isinstance(target, ast.Name):
                self.mutable_globals.add(target.id)

    def visit(self, node: ast.AST) -> None:
        handler = getattr(
            self, f"_visit_{type(node).__name__}", self._generic
        )
        handler(node)

    def _generic(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            self.visit(child)

    def _visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_stack.append(node.name)
        for child in node.body:
            self.visit(child)
        self.class_stack.pop()

    def _visit_FunctionDef(self, node) -> None:
        self.func_stack.append(node.name)
        self.global_decls.append(set())
        # a nested function body runs later: locks held at the point of
        # its *definition* are not held when it executes
        held, self.lock_stack = self.lock_stack, []
        for child in node.body:
            self.visit(child)
        self.lock_stack = held
        self.global_decls.pop()
        self.func_stack.pop()

    _visit_AsyncFunctionDef = _visit_FunctionDef

    def _visit_Global(self, node: ast.Global) -> None:
        if self.global_decls:
            self.global_decls[-1].update(node.names)

    def _visit_With(self, node: ast.With) -> None:
        acquired = []
        for item in node.items:
            name = _lockish(item.context_expr)
            if name is not None:
                acquired.append(name)
        for inner in acquired:
            for outer in self.lock_stack:
                if outer != inner:
                    self.edges.setdefault(
                        (outer, inner),
                        (
                            self.location,
                            node.lineno,
                            self._symbol(""),
                        ),
                    )
        self.lock_stack.extend(acquired)
        for child in node.body:
            self.visit(child)
        if acquired:
            del self.lock_stack[-len(acquired):]

    _visit_AsyncWith = _visit_With

    def _declared_global(self, name: str) -> bool:
        return bool(self.global_decls) and name in self.global_decls[-1]

    def _check_write(self, target: ast.expr, line: int) -> None:
        if isinstance(target, ast.Tuple):
            for element in target.elts:
                self._check_write(element, line)
            return
        if isinstance(target, ast.Name):
            if self._declared_global(target.id) and not self._locked:
                self._report(
                    GLOBAL_REBIND,
                    target.id,
                    f"module global {target.id!r} rebound with no lock "
                    "held",
                    line,
                )
            return
        base = target
        while isinstance(base, ast.Subscript):
            base = base.value
        if (
            isinstance(target, ast.Subscript)
            and isinstance(base, ast.Name)
            and base.id in self.mutable_globals
            and self.func_stack
            and not self._locked
        ):
            self._report(
                GLOBAL_MUTATION,
                base.id,
                f"module-level container {base.id!r} mutated with no "
                "lock held",
                line,
            )
            return
        if not self.shared_attrs:
            return
        attr = _is_self_attr(target)
        if (
            attr is not None
            and self.func_stack
            and not self._in_constructor
            and not self._locked
        ):
            self._report(
                UNGUARDED_ATTR_WRITE,
                attr,
                f"write to self.{attr} outside a held-lock scope",
                line,
            )

    def _visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_write(target, node.lineno)
        self.visit(node.value)

    def _visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_write(node.target, node.lineno)
        self.visit(node.value)

    def _visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_write(node.target, node.lineno)
            self.visit(node.value)

    def _visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self.mutable_globals
            and func.attr in _MUTATORS
            and self.func_stack
            and not self._locked
        ):
            self._report(
                GLOBAL_MUTATION,
                func.value.id,
                f"module-level container {func.value.id!r} mutated via "
                f".{func.attr}() with no lock held",
                node.lineno,
            )
        self._generic(node)

    def _visit_If(self, node: ast.If) -> None:
        attr = self._lazy_init_attr(node)
        if (
            attr is not None
            and self.func_stack
            and not self._in_constructor
            and not self._locked
        ):
            self._report(
                UNSAFE_LAZY_INIT,
                attr,
                f"lazy initialisation of self.{attr} is check-then-set "
                "with no lock held",
                node.lineno,
            )
        self._generic(node)

    @staticmethod
    def _lazy_init_attr(node: ast.If) -> Optional[str]:
        """``if self.X is None: ... self.X = ...`` -> ``X``."""
        test = node.test
        attr = None
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Is)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        ):
            attr = _is_self_attr(test.left)
        elif isinstance(test, ast.UnaryOp) and isinstance(
            test.op, ast.Not
        ):
            attr = _is_self_attr(test.operand)
        if attr is None:
            return None
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if _is_self_attr(target) == attr:
                        return attr
        return None


def order_violations(edges: LockEdges) -> List[CheckFinding]:
    """CC103 findings: lock pairs acquired in both orders."""
    findings = []
    for (outer, inner), (location, line, symbol) in sorted(edges.items()):
        if outer < inner and (inner, outer) in edges:
            other = edges[(inner, outer)]
            findings.append(
                CheckFinding(
                    code=LOCK_ORDER_CYCLE,
                    location=location,
                    symbol=f"{outer}<->{inner}",
                    message=(
                        f"{symbol or 'module'} acquires {outer!r} then "
                        f"{inner!r}, but {other[2] or 'module'} "
                        f"({other[0]}:{other[1]}) nests them the other "
                        "way around"
                    ),
                    line=line,
                )
            )
    return findings


def lint_source(
    text: str, location: str, shared_attrs: bool = False
) -> List[CheckFinding]:
    """Lint one module's source text (fixture-testing entry point)."""
    edges: LockEdges = {}
    lint = _ModuleLint(location, shared_attrs, edges)
    findings = lint.run(ast.parse(text))
    findings.extend(order_violations(edges))
    return findings


#: Package sub-paths whose classes are shared across service threads —
#: the CC102 scope.
SHARED_SCOPES = ("service", "telemetry")


def lint_paths(
    paths: Iterable[Path],
    package_root: Optional[Path] = None,
) -> List[CheckFinding]:
    """Lint every ``.py`` file under ``paths`` (dirs recurse).

    ``package_root`` anchors the locations stored in findings (so the
    finding keys are machine-independent); it defaults to the parent of
    the first path.
    """
    files: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    if package_root is None and files:
        package_root = files[0].parent
    findings: List[CheckFinding] = []
    edges: LockEdges = {}
    for file in files:
        try:
            relative = file.relative_to(package_root)
            location = str(Path(package_root.name) / relative)
        except (ValueError, AttributeError):
            location = file.name
        shared = any(
            scope in file.parts for scope in SHARED_SCOPES
        )
        lint = _ModuleLint(location, shared, edges)
        findings.extend(lint.run(ast.parse(file.read_text())))
    findings.extend(order_violations(edges))
    return findings
