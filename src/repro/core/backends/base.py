"""The execution-backend contract of a reconstruction session.

Per-packet independence (paper §IV–V) means *how* packet groups get turned
into event flows is a deployment choice, not an algorithmic one: in one
pass over complete groups, or statefully as evidence trickles in from a
live collection.  :class:`ExecutionBackend` is that seam.  The session owns
everything above it — streaming merge, option normalization (including
``strip_times``), diagnosis, metrics — and hands each backend fully
normalized, per-node-ordered packet groups, so every backend reconstructs
from byte-identical inputs and must produce byte-identical flows.

Lifecycle::

    backend.start(plan)          # once; plan = template + options
    backend.submit(batch)        # any number of times; may yield flows
    backend.finish()             # flush; yields remaining flows; reusable
    backend.close()              # release accumulated state

``submit`` and ``finish`` yield ``(packet, flow)`` pairs; a backend is free
to defer work (dirty-set accumulation) and emit flows later.
Backends with ``accumulates = True`` accept *partial* evidence per submit
(a packet may gain more events in a later batch) and re-derive the affected
flows on ``finish``; the others require every submitted group to be
complete.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from repro.core.event_flow import EventFlow
from repro.core.transition_algorithm import (
    PacketReconstructor,
    ReconstructorOptions,
    TemplateFor,
)
from repro.events.merge import PacketGroup
from repro.events.packet import PacketKey
from repro.fsm.templates import FsmTemplate


@dataclass(frozen=True)
class ExecutionPlan:
    """Everything a backend needs to reconstruct: model + switches.

    ``template`` is an :class:`FsmTemplate` or a per-node factory.
    """

    template: FsmTemplate | TemplateFor
    options: ReconstructorOptions


class ExecutionBackend(abc.ABC):
    """Strategy for executing per-packet reconstructions."""

    #: Stable identifier (CLI ``--backend`` value, metrics label).
    name: str = "abstract"
    #: True when ``submit`` accepts partial evidence for a packet and
    #: ``finish`` re-derives the dirtied flows (streaming ingest).
    accumulates: bool = False

    def __init__(self) -> None:
        self.plan: Optional[ExecutionPlan] = None

    def start(self, plan: ExecutionPlan) -> None:
        """Bind the plan; called once before any ``submit``."""
        self.plan = plan

    @abc.abstractmethod
    def submit(
        self, batch: Sequence[PacketGroup]
    ) -> Iterable[tuple[PacketKey, EventFlow]]:
        """Take one batch of normalized packet groups; may yield flows."""

    def finish(self) -> Iterable[tuple[PacketKey, EventFlow]]:
        """Flush deferred work; the backend stays usable afterwards."""
        return ()

    def close(self) -> None:
        """Release resources (accumulated state)."""

    # ------------------------------------------------------------------ #

    def _reconstruct_serially(
        self, groups: Iterable[PacketGroup]
    ) -> Iterator[tuple[PacketKey, EventFlow]]:
        """The one group→flow loop every in-process path shares.

        One :class:`PacketReconstructor` is reused across the whole batch —
        ``reconstruct`` resets every per-packet structure, so only the packet
        key needs rebinding, and the template/options plumbing is paid once
        per batch instead of once per packet.
        """
        plan = self._plan()
        reconstructor = PacketReconstructor(plan.template, None, plan.options)
        for packet, events_by_node in groups:
            reconstructor.packet = packet
            yield packet, reconstructor.reconstruct(events_by_node)

    def _plan(self) -> ExecutionPlan:
        if self.plan is None:
            raise RuntimeError(f"{type(self).__name__} used before start()")
        return self.plan
