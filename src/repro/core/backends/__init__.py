"""Pluggable execution backends for :class:`~repro.core.session.ReconstructionSession`.

One reconstruction pipeline, two execution shapes:

- :class:`SerialBackend` — in-process, the reference semantics;
- :class:`IncrementalBackend` — stateful accumulation for live ingest.

``make_backend(name)`` resolves the CLI spelling.  To write a custom
backend, subclass :class:`ExecutionBackend` — see ``docs/ARCHITECTURE.md``.
"""

from repro.core.backends.base import ExecutionBackend, ExecutionPlan
from repro.core.backends.incremental import IncrementalBackend
from repro.core.backends.serial import SerialBackend

#: CLI / config spelling → constructor.
BACKENDS = {
    SerialBackend.name: SerialBackend,
    IncrementalBackend.name: IncrementalBackend,
}


def make_backend(name: str) -> ExecutionBackend:
    """Build a backend from its registry name (``serial`` | ``incremental``)."""
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; choose from {sorted(BACKENDS)}"
        ) from None
    return cls()


__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "ExecutionPlan",
    "IncrementalBackend",
    "SerialBackend",
    "make_backend",
]
