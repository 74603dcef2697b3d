"""CC1xx fixture tests: each code fires on its pattern and only there.

The package itself lints to exactly the reviewed findings below, and the
examples lint clean.
"""

import textwrap
from pathlib import Path

import repro
from repro.analysis.concurrency import lint_paths, lint_source
from repro.analysis.findings import (
    GLOBAL_MUTATION,
    GLOBAL_REBIND,
    LOCK_ORDER_CYCLE,
    UNGUARDED_ATTR_WRITE,
    UNSAFE_LAZY_INIT,
    CheckFinding,
)

PACKAGE = Path(repro.__file__).resolve().parent
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: Every finding the lint reports on the package, each reviewed as
#: benign: key -> why.  A new finding or a fixed one both fail
#: ``test_package_findings_are_the_reviewed_six``.
REVIEWED = {
    "CC101 repro/planner/toggles.py::set_planner:_PLANNER": (
        "documented process-wide toggle; flipped only at startup or "
        "under use_planner() in tests/benches, which restores the "
        "previous value"
    ),
    "CC104 repro/core/limits.py::ExecutionLimits.cancel_event:_cancel": (
        "ExecutionLimits is per-request; the lazy Event is created by the "
        "submitting thread before workers can observe the limits object"
    ),
    "CC104 repro/core/limits.py::ExecutionLimits.start:_started": (
        "per-request object: start() runs once on the single worker "
        "thread that owns the request"
    ),
    "CC104 repro/model/tree.py::XTree.class_nodes:_lc_index": (
        "idempotent memo on a query-local tree; a racing rebuild "
        "computes the identical index"
    ),
    "CC104 repro/storage/postings.py::Postings.levels:_levels": (
        "idempotent memo: the column is a pure function of the immutable "
        "ids; racing builders store identical arrays"
    ),
    "CC104 repro/storage/postings.py::Postings.starts:_starts": (
        "idempotent memo: the column is a pure function of the immutable "
        "ids; racing builders store identical arrays"
    ),
}


def lint(source, shared_attrs=False):
    return lint_source(
        textwrap.dedent(source), "fixture.py", shared_attrs=shared_attrs
    )


def codes(findings):
    return sorted(f.code for f in findings)


class TestGlobalRebind:
    def test_unguarded_global_rebind_fires(self):
        findings = lint(
            """
            _STATE = None

            def set_state(value):
                global _STATE
                _STATE = value
            """
        )
        assert codes(findings) == [GLOBAL_REBIND]
        assert findings[0].symbol == "set_state:_STATE"
        assert findings[0].line > 0

    def test_rebind_under_lock_is_clean(self):
        findings = lint(
            """
            _STATE = None

            def set_state(value):
                global _STATE
                with _state_lock:
                    _STATE = value
            """
        )
        assert findings == []

    def test_local_assignment_is_not_a_rebind(self):
        findings = lint(
            """
            def compute():
                _STATE = 1
                return _STATE
            """
        )
        assert findings == []


class TestUnguardedAttrWrite:
    SOURCE = """
        class Service:
            def __init__(self):
                self._closed = False

            def close(self):
                self._closed = True
    """

    def test_fires_only_in_shared_scope(self):
        assert codes(lint(self.SOURCE, shared_attrs=True)) == [
            UNGUARDED_ATTR_WRITE
        ]
        assert lint(self.SOURCE, shared_attrs=False) == []

    def test_constructor_writes_are_construction(self):
        findings = lint(self.SOURCE, shared_attrs=True)
        assert all("close" in f.symbol for f in findings)

    def test_write_under_lock_is_clean(self):
        findings = lint(
            """
            class Service:
                def close(self):
                    with self._lock:
                        self._closed = True
            """,
            shared_attrs=True,
        )
        assert findings == []

    def test_sharded_lock_idiom_is_recognised(self):
        findings = lint(
            """
            class Registry:
                def bump(self, i):
                    with self._locks[i]:
                        self._counts[i] = self._counts[i] + 1
            """,
            shared_attrs=True,
        )
        assert findings == []

    def test_locked_suffix_convention(self):
        findings = lint(
            """
            class Registry:
                def _describe_locked(self, name):
                    self._help[name] = name
            """,
            shared_attrs=True,
        )
        assert findings == []

    def test_nested_function_does_not_inherit_the_lock(self):
        # the nested def runs later, when the with-block has exited
        findings = lint(
            """
            class Service:
                def submit(self):
                    with self._lock:
                        def later():
                            self._state = "done"
                        return later
            """,
            shared_attrs=True,
        )
        assert codes(findings) == [UNGUARDED_ATTR_WRITE]


class TestLockOrderCycle:
    def test_opposite_nesting_orders_fire(self):
        findings = lint(
            """
            def forward():
                with a_lock:
                    with b_lock:
                        pass

            def backward():
                with b_lock:
                    with a_lock:
                        pass
            """
        )
        assert codes(findings) == [LOCK_ORDER_CYCLE]
        assert findings[0].symbol == "a_lock<->b_lock"

    def test_consistent_order_is_clean(self):
        findings = lint(
            """
            def one():
                with a_lock:
                    with b_lock:
                        pass

            def two():
                with a_lock:
                    with b_lock:
                        pass
            """
        )
        assert findings == []


class TestUnsafeLazyInit:
    def test_check_then_set_fires(self):
        findings = lint(
            """
            class Index:
                def rows(self):
                    if self._cache is None:
                        self._cache = self._build()
                    return self._cache
            """
        )
        assert codes(findings) == [UNSAFE_LAZY_INIT]
        assert findings[0].symbol == "Index.rows:_cache"

    def test_not_form_fires(self):
        findings = lint(
            """
            class Index:
                def rows(self):
                    if not self._cache:
                        self._cache = self._build()
                    return self._cache
            """
        )
        assert codes(findings) == [UNSAFE_LAZY_INIT]

    def test_lazy_init_under_lock_is_clean(self):
        findings = lint(
            """
            class Index:
                def rows(self):
                    with self._lock:
                        if self._cache is None:
                            self._cache = self._build()
                    return self._cache
            """
        )
        assert findings == []

    def test_plain_branch_without_assignment_is_clean(self):
        findings = lint(
            """
            class Index:
                def rows(self):
                    if self._cache is None:
                        raise RuntimeError("not built")
                    return self._cache
            """
        )
        assert findings == []


class TestGlobalMutation:
    def test_mutator_call_fires(self):
        findings = lint(
            """
            _REGISTRY = {}

            def register(name, value):
                _REGISTRY.update({name: value})
            """
        )
        assert codes(findings) == [GLOBAL_MUTATION]

    def test_subscript_write_fires(self):
        findings = lint(
            """
            _REGISTRY = {}

            def register(name, value):
                _REGISTRY[name] = value
            """
        )
        assert codes(findings) == [GLOBAL_MUTATION]

    def test_mutation_under_lock_is_clean(self):
        findings = lint(
            """
            _REGISTRY = {}

            def register(name, value):
                with _registry_lock:
                    _REGISTRY[name] = value
            """
        )
        assert findings == []

    def test_module_level_population_is_construction(self):
        # filling the container at import time is single-threaded
        findings = lint(
            """
            _REGISTRY = {}
            _REGISTRY["default"] = 1
            """
        )
        assert findings == []


class TestFindingIdentity:
    def test_key_is_line_independent(self):
        one = lint(
            """
            _S = None

            def f():
                global _S
                _S = 1
            """
        )
        moved = lint(
            """
            _S = None

            # a comment that shifts every line number


            def f():
                global _S
                _S = 1
            """
        )
        assert one[0].key == moved[0].key
        assert one[0].line != moved[0].line


class TestCheckFinding:
    def test_key_and_render(self):
        f = CheckFinding(
            code=GLOBAL_REBIND, location="m.py", symbol="f:_S",
            message="boom",
        )
        assert f.key == f"{GLOBAL_REBIND} m.py::f:_S"
        assert GLOBAL_REBIND in f.render()
        assert "boom" in f.render()


def test_package_findings_are_the_reviewed_six():
    findings = lint_paths([PACKAGE], package_root=PACKAGE)
    assert {f.key for f in findings} == set(REVIEWED), [
        f.render() for f in findings if f.key not in REVIEWED
    ]


def test_examples_lint_clean():
    findings = lint_paths([EXAMPLES], package_root=EXAMPLES)
    assert findings == [], [f.render() for f in findings]
