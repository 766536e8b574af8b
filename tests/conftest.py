import multiprocessing
import traceback

import pytest

ACCEPTANCE_LINES = []

# The fixture that a worker process computes beside the suite, and the
# plain function of the readers' module that computes it.
SLOW_FIXTURE, SLOW_FUNCTION = "long_conservation_run", "run_long_conservation"
# the session's worker process and the receiving end of its pipe
WORKER = pytest.StashKey[tuple]()


@pytest.fixture
def acceptance_report():
    """Collect one pass/fail line per acceptance test for the run summary."""

    def _report(num: int, name: str, passed: bool, detail: str) -> None:
        mark = "PASS" if passed else "FAIL"
        ACCEPTANCE_LINES.append(f"[{mark}] {num}. {name}: {detail}")

    return _report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def _compute(send, function):
    """The worker: function's result, or the traceback of its raise, sent
    through the pipe as ("result", value) or ("error", text)."""
    try:
        message = ("result", function())
    except Exception:  # an exit or interrupt ends the worker unsent: EOFError
        message = ("error", traceback.format_exc())
    send.send(message)
    send.close()


@pytest.hookimpl(trylast=True)
def pytest_collection_modifyitems(session, config, items):
    """After deselection: the tests that read SLOW_FIXTURE go to the end of
    the collection and, if there is one, a single worker process starts
    computing the fixture's value now, so it runs on the second core while
    the other tests run on the first. The worker is spawned, not forked:
    the suite's process holds BLAS threads by then."""
    readers = [item for item in items if SLOW_FIXTURE in getattr(item, "fixturenames", ())]
    if not readers:
        return
    items[:] = [item for item in items if item not in readers] + readers
    context = multiprocessing.get_context("spawn")
    receive, send = context.Pipe(duplex=False)
    process = context.Process(target=_compute, daemon=True,
                              args=(send, getattr(readers[0].module, SLOW_FUNCTION)))
    process.start()
    send.close()  # the worker holds the only send end: its death ends the pipe
    config.stash[WORKER] = process, receive


@pytest.fixture(scope="session")
def long_conservation_run(request):
    """run_long_conservation() of test_acceptance.py, from the worker that
    collection started. A worker that raised fails the test with its
    traceback; one that died without sending makes the receive raise
    EOFError."""
    process, receive = request.config.stash[WORKER]
    kind, value = receive.recv()
    process.join()
    if kind == "error":
        pytest.fail(f"the {SLOW_FIXTURE} worker raised:\n{value}", pytrace=False)
    return value


def pytest_sessionfinish(session, exitstatus):
    """Stop a worker whose result no test read (a run cut short)."""
    process, _ = session.config.stash.get(WORKER, (None, None))
    if process is not None and process.is_alive():
        process.terminate()
        process.join()


@pytest.fixture
def derivative_calls(monkeypatch):
    """The orders of every spectral derivative evaluation, one entry per
    call, through the derivative operators that grids bind while the test
    runs: ``derivatives`` and the flow velocity kernels alike. A grid made
    in the test binds afresh; an operator bound before the test is not
    counted."""
    from smflow import spectral

    calls, bind = [], spectral._bind_derivatives

    def counting(grid, orders, real):
        operator = bind(grid, orders, real)

        def apply(values):
            calls.append(orders)
            return operator(values)
        return apply

    monkeypatch.setattr(spectral, "_bind_derivatives", counting)
    return calls
