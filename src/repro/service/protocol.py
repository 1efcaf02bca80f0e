"""Wire protocol of the campaign service.

The daemon and its clients exchange JSON over HTTP; this module pins
down the payload shapes so both sides agree on them and so the crucial
invariant is testable in isolation: **a spec that crosses the wire must
reconstruct with a byte-identical content token**.  Content tokens
determine store keys, trial seeds and therefore every result bit, so
``spec_from_payload(spec_to_payload(s)).store_key() == s.store_key()``
is the property the whole service rests on.  JSON is safe for it:
Python serialises floats via ``repr`` (shortest exact round-trip), and
every other token ingredient is integral or textual.

Endpoints (all request/response bodies are JSON; ``watch`` streams
newline-delimited JSON with chunked transfer encoding):

========  ======================  =====================================
method    path                    meaning
========  ======================  =====================================
GET       ``/healthz``            liveness probe (also proves schema)
GET       ``/metrics``            queue depth, cache hit rates, rates
GET       ``/jobs``               all jobs, newest first
POST      ``/jobs``               submit ``{"spec": <spec payload>}``
GET       ``/jobs/<id>``          one job's status
POST      ``/jobs/<id>/cancel``   stop dispatching that job's trials
GET       ``/jobs/<id>/watch``    stream the job's event log as JSONL
POST      ``/shutdown``           ``{"drain": bool}`` — stop the daemon
========  ======================  =====================================
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional

from repro.campaign.spec import CampaignSpec, MatrixSpec, SolverKnobs
from repro.runtime.cost_model import DEFAULT_COST_MODEL, CostModel

#: Version of the request/response shapes.  The server embeds it in
#: every response envelope; clients refuse to talk across versions
#: rather than mis-parse half-compatible payloads.
PROTOCOL_VERSION = 1

#: Job lifecycle states.  ``queued -> running -> done`` is the happy
#: path; ``failed`` and ``cancelled`` are terminal too.  A trial whose
#: worker dies does *not* fail the job — the pool resubmits it (see
#: ``campaign.executors``).
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States in which a job will make no further progress.
TERMINAL_STATES = ("done", "failed", "cancelled")


class ProtocolError(ValueError):
    """A payload did not match the protocol (bad shape, bad version)."""


# ----------------------------------------------------------------------
# spec serialization
# ----------------------------------------------------------------------
def _matrix_to_payload(matrix: MatrixSpec) -> Dict[str, object]:
    return {
        "family": matrix.family,
        "name": matrix.name,
        "params": [[k, v] for k, v in matrix.params],
        "sparse": matrix.sparse,
        "rhs_seed": matrix.rhs_seed,
    }


def _matrix_from_payload(payload: Dict[str, object]) -> MatrixSpec:
    try:
        rhs_seed = payload["rhs_seed"]
        return MatrixSpec(
            family=str(payload["family"]),
            name=str(payload["name"]),
            params=tuple((str(k), int(v)) for k, v in payload["params"]),
            sparse=bool(payload["sparse"]),
            rhs_seed=None if rhs_seed is None else int(rhs_seed))
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad matrix payload {payload!r}: {exc}") \
            from None


def _knobs_to_payload(knobs: SolverKnobs) -> Dict[str, object]:
    payload = {f.name: getattr(knobs, f.name)
               for f in dataclasses.fields(knobs)
               if f.name != "cost_model"}
    if knobs.cost_model != DEFAULT_COST_MODEL:
        payload["cost_model"] = dataclasses.asdict(knobs.cost_model)
    return payload


def _knobs_from_payload(payload: Dict[str, object]) -> SolverKnobs:
    known = {f.name for f in dataclasses.fields(SolverKnobs)}
    unknown = set(payload) - known
    if unknown:
        raise ProtocolError(f"unknown solver knob(s) "
                            f"{', '.join(sorted(unknown))}")
    kwargs = dict(payload)
    if "cost_model" in kwargs:
        try:
            kwargs["cost_model"] = CostModel(**kwargs["cost_model"])
        except TypeError as exc:
            raise ProtocolError(f"bad cost model: {exc}") from None
    try:
        return SolverKnobs(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad solver knobs: {exc}") from None


def spec_to_payload(spec: CampaignSpec) -> Dict[str, object]:
    """JSON-safe payload of ``spec`` (content-token exact, see module
    docstring)."""
    return {
        "version": PROTOCOL_VERSION,
        "name": spec.name,
        "matrices": [_matrix_to_payload(m) for m in spec.matrices],
        "methods": list(spec.methods),
        "rates": [float(r) for r in spec.rates],
        "repetitions": spec.repetitions,
        "seed": spec.seed,
        "knobs": _knobs_to_payload(spec.knobs),
    }


def spec_from_payload(payload: Dict[str, object]) -> CampaignSpec:
    """Reconstruct a :class:`CampaignSpec` from its wire payload.

    Raises :class:`ProtocolError` on shape or version mismatches; the
    reconstructed spec's ``store_key()`` equals the submitting side's
    (asserted by ``tests/service/test_protocol.py``).
    """
    if not isinstance(payload, dict):
        raise ProtocolError(f"spec payload must be an object, "
                            f"got {type(payload).__name__}")
    version = payload.get("version")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"spec payload carries protocol v{version}, "
                            f"this side speaks v{PROTOCOL_VERSION}")
    try:
        matrices = [_matrix_from_payload(m) for m in payload["matrices"]]
        return CampaignSpec(
            matrices=matrices,
            methods=tuple(str(m) for m in payload["methods"]),
            rates=tuple(float(r) for r in payload["rates"]),
            repetitions=int(payload["repetitions"]),
            seed=int(payload["seed"]),
            knobs=_knobs_from_payload(payload.get("knobs", {})),
            name=str(payload.get("name", "service")))
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad campaign spec payload: {exc}") from None


# ----------------------------------------------------------------------
# job status
# ----------------------------------------------------------------------
def job_status_payload(job) -> Dict[str, object]:
    """The JSON status shape of one job (server side builds it from a
    ``server.Job``; duck-typed so tests can feed stand-ins)."""
    return {
        "id": job.id,
        "state": job.state,
        "spec_key": job.spec_key,
        "name": job.name,
        "total": job.total,
        "cached": job.cached,
        "executed": job.executed,
        "completed": job.completed,
        # A job goes to the pool as one shard: 1 if anything is pending.
        "shards": job.shards,
        "shard_retries": job.shard_retries,
        "fingerprint": job.fingerprint,
        "error": job.error,
    }


def validate_job_id(job_id: str) -> str:
    """Reject path-traversal-shaped job ids before they hit any lookup."""
    if not job_id or not all(c.isalnum() or c in "-_" for c in job_id):
        raise ProtocolError(f"malformed job id {job_id!r}")
    return job_id


# ----------------------------------------------------------------------
# watch events
# ----------------------------------------------------------------------
def event_line(event: Dict[str, object]) -> str:
    """One watch-stream event as a JSONL line (without the newline)."""
    return json.dumps(event, sort_keys=True)


def parse_event_line(line: str) -> Optional[Dict[str, object]]:
    """Parse one watch-stream line; blank lines (keep-alives) are None."""
    line = line.strip()
    if not line:
        return None
    try:
        payload = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"bad watch event line {line!r}: {exc}") \
            from None
    if not isinstance(payload, dict) or "event" not in payload:
        raise ProtocolError(f"watch event without an 'event' field: "
                            f"{line!r}")
    return payload


def describe_states(jobs: List[object]) -> Dict[str, int]:
    """Job-count-by-state summary for ``/metrics``."""
    counts = {state: 0 for state in JOB_STATES}
    for job in jobs:
        counts[job.state] = counts.get(job.state, 0) + 1
    return counts
