"""Robust-query serving: the session layer as a long-lived daemon.

``repro serve`` exposes one warm :class:`~repro.session.RobustSession`
to many tenants over line-delimited JSON, with per-tenant admission
control, request coalescing, a graceful degradation ladder, layered
deadline propagation, and a seeded wire-chaos layer the daemon injects
on its own reply path (:mod:`repro.serve.faults`) for availability
proofs. See
:mod:`repro.serve.daemon` for the architecture and ``docs/serving.md``
for the protocol and failure model.
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionDecision,
    TenantBudgets,
    TokenBucket,
)
from repro.serve.coalesce import CoalesceStats, Coalescer
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import RobustServeDaemon, ServeConfig, ServerThread
from repro.serve.faults import FaultInjector, ServeFaultPlan
from repro.serve.protocol import (
    ERR_BAD_REQUEST,
    ERR_DRAINING,
    ERR_INTERNAL,
    ERR_OVERLOADED,
    ERR_OVERSIZED,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    FrameAssembler,
    ProtocolError,
    Request,
    decode_message,
    encode_message,
    error_response,
    ok_response,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "CoalesceStats",
    "Coalescer",
    "ERR_BAD_REQUEST",
    "ERR_DRAINING",
    "ERR_INTERNAL",
    "ERR_OVERLOADED",
    "ERR_OVERSIZED",
    "FaultInjector",
    "FrameAssembler",
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Request",
    "RobustServeDaemon",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServeFaultPlan",
    "ServerThread",
    "TenantBudgets",
    "TokenBucket",
    "decode_message",
    "encode_message",
    "error_response",
    "ok_response",
]
