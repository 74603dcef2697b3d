"""Race test for QueryService.close().

The closed flag is written under the service lock; racing closers
and submitters must see a consistent open/closed state — either the
query runs or it gets the clean ServiceError, never a torn shutdown.
"""

import threading

from repro.errors import ServiceError
from repro.service import QueryService


def test_racing_close_and_submit_never_tear(tiny_engine):
    for _ in range(10):
        service = QueryService(tiny_engine)
        start = threading.Barrier(3)
        errors = []

        def submit():
            start.wait()
            try:
                service.execute(
                    'FOR $p IN document("auction.xml")//person '
                    "RETURN $p/name"
                )
            except ServiceError:
                pass  # closed first: the contractually clean outcome
            except Exception as error:  # pragma: no cover - failure
                errors.append(error)

        def close():
            start.wait()
            try:
                service.close()
            except Exception as error:  # pragma: no cover - failure
                errors.append(error)

        threads = [
            threading.Thread(target=fn)
            for fn in (submit, submit, close)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []


def test_double_close_is_idempotent(tiny_engine):
    service = QueryService(tiny_engine)
    service.close()
    service.close()
    try:
        service.execute("FOR $x IN document('auction.xml')//x RETURN $x")
        raise AssertionError("closed service must reject queries")
    except ServiceError:
        pass
