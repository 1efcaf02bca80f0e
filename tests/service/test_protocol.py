"""Wire-protocol invariants of the campaign service.

The one that matters most: a spec serialized for submission must
reconstruct with a **byte-identical content token** — store keys, trial
seeds and therefore every result bit depend on it.  JSON float
round-tripping (``repr``-based) makes this exact, and these tests pin
it down for every knob family.
"""

import json

import pytest

from repro.campaign.spec import CampaignSpec, MatrixSpec, SolverKnobs
from repro.runtime.cost_model import CostModel
from repro.service.protocol import (PROTOCOL_VERSION, ProtocolError,
                                    parse_event_line, spec_from_payload,
                                    spec_to_payload, validate_job_id)


def round_trip(spec: CampaignSpec) -> CampaignSpec:
    return spec_from_payload(spec_to_payload(spec))


class TestSpecRoundTrip:
    def test_default_knobs(self):
        spec = CampaignSpec(matrices=["laplacian2d:12"],
                            methods=("FEIR", "AFEIR"), rates=(1.0, 10.0),
                            repetitions=3, seed=42, name="rt")
        back = round_trip(spec)
        assert back.store_key() == spec.store_key()
        assert back.content_token() == spec.content_token()
        assert back.name == "rt"

    def test_non_trivial_knobs(self):
        spec = CampaignSpec(
            matrices=["laplacian2d:8x12", "poisson3d27:4"],
            methods=("Lossy",), rates=(0.5,), repetitions=2, seed=7,
            knobs=SolverKnobs(tolerance=3e-9, max_iterations=1234,
                              page_size=64, preconditioned=True,
                              work_scale=150.0, checkpoint_interval=50))
        assert round_trip(spec).store_key() == spec.store_key()

    def test_runtime_axes(self):
        spec = CampaignSpec(
            matrices=["laplacian2d:10"], methods=("FEIR",), rates=(1.0,),
            knobs=SolverKnobs(scheduler="threaded", placement="ranks",
                              ranks=2, clock="wall"))
        back = round_trip(spec)
        assert back.store_key() == spec.store_key()
        assert back.knobs.runtime_spec() == spec.knobs.runtime_spec()

    def test_custom_cost_model(self):
        knobs = SolverKnobs(cost_model=CostModel(flop_rate=1.25e9,
                                                 task_overhead=1e-5))
        spec = CampaignSpec(matrices=["laplacian2d:10"], knobs=knobs)
        back = round_trip(spec)
        assert back.knobs.cost_model == knobs.cost_model
        assert back.store_key() == spec.store_key()

    @pytest.mark.parametrize("matrix", [
        MatrixSpec.suite("qa8fm", sparse=True),
        # b = A·1: a JSON null on the wire (``int(None)`` was a 400).
        MatrixSpec.parametric("poisson3d27", sparse=False, rhs_seed=None,
                              nx=6),
    ], ids=["suite", "seedless_rhs"])
    def test_explicit_matrix_spec(self, matrix):
        spec = CampaignSpec(matrices=[matrix])
        back = spec_from_payload(json.loads(json.dumps(
            spec_to_payload(spec))))
        assert back.matrices == spec.matrices
        assert back.store_key() == spec.store_key()

    def test_trial_seeds_survive_the_wire(self):
        """Per-trial seed material is content-keyed, so equal tokens
        imply equal seeds — spot-check the expansion anyway."""
        spec = CampaignSpec(matrices=["laplacian2d:10"],
                            methods=("FEIR",), rates=(2.0,), repetitions=2)
        ours = spec.expand()
        theirs = round_trip(spec).expand()
        assert [t.store_key() for t in ours] == \
            [t.store_key() for t in theirs]


class TestRejections:
    def test_version_mismatch(self):
        payload = spec_to_payload(CampaignSpec(matrices=["laplacian2d:10"]))
        payload["version"] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="protocol v"):
            spec_from_payload(payload)

    def test_non_object_payload(self):
        with pytest.raises(ProtocolError):
            spec_from_payload("not a dict")

    def test_unknown_knob(self):
        payload = spec_to_payload(CampaignSpec(matrices=["laplacian2d:10"]))
        payload["knobs"]["warp_drive"] = True
        with pytest.raises(ProtocolError, match="warp_drive"):
            spec_from_payload(payload)

    def test_removed_backend_alias_is_an_unknown_knob(self):
        """A v1 payload written before the ``backend=`` alias was removed
        is rejected by name, like any other knob this side does not know."""
        payload = spec_to_payload(CampaignSpec(matrices=["laplacian2d:10"]))
        assert "backend" not in payload["knobs"]
        payload["knobs"]["backend"] = "threaded"
        with pytest.raises(ProtocolError, match="unknown solver knob.*backend"):
            spec_from_payload(payload)

    def test_bad_matrix_family(self):
        payload = spec_to_payload(CampaignSpec(matrices=["laplacian2d:10"]))
        payload["matrices"][0]["family"] = "hilbert"
        with pytest.raises(ProtocolError):
            spec_from_payload(payload)

    def test_missing_fields(self):
        with pytest.raises(ProtocolError):
            spec_from_payload({"version": PROTOCOL_VERSION})

    @pytest.mark.parametrize("seed", [-1, -5])
    def test_negative_seed(self, seed):
        """Refused when the spec is built (a 400), not when a trial of
        the accepted job first builds its seed."""
        payload = spec_to_payload(CampaignSpec(matrices=["laplacian2d:10"]))
        payload["seed"] = seed
        with pytest.raises(ProtocolError, match="non-negative integer"):
            spec_from_payload(payload)

    @pytest.mark.parametrize("axis, value", [("rates", [1.0, 1.0]),
                                             ("methods", ["FEIR", "FEIR"])])
    def test_repeated_grid_value(self, axis, value):
        payload = spec_to_payload(CampaignSpec(matrices=["laplacian2d:10"]))
        payload[axis] = value
        with pytest.raises(ProtocolError, match="more than once"):
            spec_from_payload(payload)


class TestJobIdsAndEvents:
    @pytest.mark.parametrize("good", ["j1-ab12cd34", "job_7", "A-1"])
    def test_valid_job_ids(self, good):
        assert validate_job_id(good) == good

    @pytest.mark.parametrize("bad", ["", "../etc", "a/b", "a b", "j%00"])
    def test_malformed_job_ids(self, bad):
        with pytest.raises(ProtocolError):
            validate_job_id(bad)

    def test_blank_line_is_keepalive(self):
        assert parse_event_line("   \n") is None

    def test_bad_json_line(self):
        with pytest.raises(ProtocolError):
            parse_event_line("{not json")

    def test_event_without_kind(self):
        with pytest.raises(ProtocolError):
            parse_event_line('{"index": 3}')
