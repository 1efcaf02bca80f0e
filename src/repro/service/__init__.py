"""Campaign service: a long-running daemon for fault-injection campaigns.

The paper's statistical workload — thousands of small solver trials per
figure — amortises beautifully behind a persistent server: a process
pool forked once at start-up runs the jobs' trials (its children keep
matrices and ideal baselines in their process's campaign cache, as
offline pool workers do), finished trials stay warm in the daemon's own
campaign cache across submissions, and progress streams to clients as
chunked JSONL.  A job is the campaign engine's own
:class:`~repro.campaign.engine.CampaignRun`, driven by one scheduler
thread that hands the pool all its pending trials at once, and a pool
child lost under it is survived by the engine's own executor
(:mod:`repro.campaign.executors`) — the daemon adds the socket, the job
table and the job queue, not a second campaign loop.  See
:mod:`repro.service.server` for the daemon,
:mod:`repro.service.client` for the client library and
``python -m repro.service`` for the CLI.

The correctness anchor is inherited from the campaign engine: a spec
submitted to the daemon yields a fingerprint byte-identical to the same
spec run offline through ``python -m repro.campaign run``.
"""

from repro.service.client import ServiceClient, ServiceError, default_url
from repro.service.protocol import (JOB_STATES, PROTOCOL_VERSION,
                                    TERMINAL_STATES, ProtocolError,
                                    spec_from_payload, spec_to_payload)
from repro.service.server import (DEFAULT_HOST, DEFAULT_PORT,
                                  SERVICE_CHAOS_ENV, SERVICE_HOST_ENV,
                                  SERVICE_PORT_ENV, SERVICE_URL_ENV,
                                  CampaignService, ChaosMonkey)

__all__ = [
    "CampaignService",
    "ChaosMonkey",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "JOB_STATES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SERVICE_CHAOS_ENV",
    "SERVICE_HOST_ENV",
    "SERVICE_PORT_ENV",
    "SERVICE_URL_ENV",
    "ServiceClient",
    "ServiceError",
    "TERMINAL_STATES",
    "default_url",
    "spec_from_payload",
    "spec_to_payload",
]
