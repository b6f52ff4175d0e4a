"""Isolate the process-wide tracer around every telemetry test.

Telemetry is deliberately process-global (one buffer, one epoch), so
tests must not leak an installed tracer into the rest of the suite —
spans recorded by an unrelated training test would otherwise land in a
stale ring buffer and instrumented hot paths would stop being no-ops.
"""

import pytest

from repro.telemetry import trace


@pytest.fixture(autouse=True)
def isolated_telemetry():
    prev = trace.uninstall()
    yield
    trace.uninstall()
    trace.set_tracer(prev)
