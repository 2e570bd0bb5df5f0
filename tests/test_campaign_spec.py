"""A campaign kind's spec is its dataclass fields.

Two checks per registered kind:

* the fingerprint of a fixed campaign is pinned to the literal string
  an earlier release wrote into journal ``campaign-start`` records (and
  the ``campaign-end`` totals likewise), so journals written before the
  spec became derived still resume;
* a hypothesis property: any campaign's spec survives a JSON round trip
  through :func:`repro.exec.campaign.build_campaign` with the same spec
  and the same fingerprint, which is how parallel workers rebuild it.
"""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint.journal import canonical_json
from repro.chaos.runner import ChaosCampaign, ChaosRunner
from repro.chaos.schedule import ChaosConfig
from repro.errors import ConfigurationError
from repro.exec.campaign import (_REGISTRY, build_campaign,
                                 campaign_kinds, spec_from_json,
                                 spec_to_json)
from repro.exec.faultinject import (FaultInjectedCampaign, FaultPlan,
                                    WorkerFault)
from repro.harness.scenarios import figure1
from repro.harness.sweep import SizeSweepCampaign
from repro.reliability.campaign import ReliabilityCampaign
from repro.reliability.policy import RELIABILITY_POLICIES
from repro.resilience.campaign import ResilienceCampaign
from repro.resilience.scenarios import SCENARIOS
from repro.soak.campaign import SoakCampaign
from repro.soak.fuzzer import PlantedBug, default_space


def _chaos():
    return ChaosCampaign(ChaosRunner(
        runs=3, seed=9, config=ChaosConfig(duration_s=0.02)))


#: One fixed campaign per case.
PINNED = {
    "chaos-hardened": _chaos,
    "chaos-resilient": lambda: ChaosCampaign(ChaosRunner(
        runs=2, seed=5, config=ChaosConfig(
            duration_s=0.03, resilient=True, max_device_kills=1,
            max_overload_windows=2, migration_failure_rate=1.0))),
    "soak": lambda: SoakCampaign(runs=4, seed=7,
                                 space=default_space(0.01)),
    "soak-planted": lambda: SoakCampaign(
        runs=4, seed=7, space=default_space(0.01),
        planted=PlantedBug("protected-shed", "device-kill"),
        planted_index=2),
    "resilience": lambda: ResilienceCampaign(
        "device-kill", runs=2, seed=7, duration_s=0.02),
    "resilience-default": lambda: ResilienceCampaign("overload"),
    "reliability": lambda: ReliabilityCampaign(
        scenario="overload", policies=("joint", "scaleout"), runs=2,
        seed=3, duration_s=0.01, budget_bytes=4096),
    "reliability-default": ReliabilityCampaign,
    "size-sweep": lambda: SizeSweepCampaign(
        figure1(), sizes=(64, 1500), duration_s=0.002),
    "fault-injected": lambda: FaultInjectedCampaign(_chaos(), FaultPlan((
        WorkerFault(1, "error", (1,)), WorkerFault(2, "garbage")))),
}

#: ``canonical_json(campaign.fingerprint())`` as journals recorded it
#: before specs were derived from dataclass fields.
FINGERPRINTS = {
    "chaos-hardened": (
        '{"config":{"brownout_scale_hi":0.85,"brownout_scale_lo":0.4,'
        '"duration_s":0.02,"flap_extra_hi_s":0.00019999999999999998,'
        '"flap_extra_lo_s":1.9999999999999998e-05,"max_brownouts":2,'
        '"max_crashes":3,"max_device_kills":0,'
        '"max_fault_duration_s":0.008,"max_overload_windows":0,'
        '"max_pcie_flaps":2,"max_telemetry_dropouts":1,'
        '"migration_failure_rate":0.3,"min_fault_duration_s":0.002,'
        '"overload_peak_bps":2400000000.0,"resilient":false},"runs":3,'
        '"seed":9}'),
    "chaos-resilient": (
        '{"config":{"brownout_scale_hi":0.85,"brownout_scale_lo":0.4,'
        '"duration_s":0.03,"flap_extra_hi_s":0.00019999999999999998,'
        '"flap_extra_lo_s":1.9999999999999998e-05,"max_brownouts":2,'
        '"max_crashes":3,"max_device_kills":1,'
        '"max_fault_duration_s":0.008,"max_overload_windows":2,'
        '"max_pcie_flaps":2,"max_telemetry_dropouts":1,'
        '"migration_failure_rate":1.0,"min_fault_duration_s":0.002,'
        '"overload_peak_bps":2400000000.0,"resilient":true},"runs":2,'
        '"seed":5}'),
    "soak": (
        '{"planted":null,"runs":4,"seed":7,"space":{"base_gbps_hi":1.4,'
        '"base_gbps_lo":1.0,"duration_hi_s":0.01,"duration_lo_s":0.008,'
        '"failure_rate_hi":0.5,"failure_rate_lo":0.0,"max_brownouts":2,'
        '"max_crashes":3,"max_device_kills":1,"max_overload_windows":1,'
        '"max_pcie_flaps":2,"max_telemetry_dropouts":1,'
        '"packet_sizes":[256,512,1024],"peak_gbps_hi":2.1,'
        '"peak_gbps_lo":1.6,"resilient_frac":0.5}}'),
    "soak-planted": (
        '{"planted":{"bug":"protected-shed","index":2,'
        '"trigger_kind":"device-kill"},"runs":4,"seed":7,'
        '"space":{"base_gbps_hi":1.4,"base_gbps_lo":1.0,'
        '"duration_hi_s":0.01,"duration_lo_s":0.008,'
        '"failure_rate_hi":0.5,"failure_rate_lo":0.0,"max_brownouts":2,'
        '"max_crashes":3,"max_device_kills":1,"max_overload_windows":1,'
        '"max_pcie_flaps":2,"max_telemetry_dropouts":1,'
        '"packet_sizes":[256,512,1024],"peak_gbps_hi":2.1,'
        '"peak_gbps_lo":1.6,"resilient_frac":0.5}}'),
    "resilience": (
        '{"duration_s":0.02,"runs":2,"scenario":"device-kill","seed":7}'),
    "resilience-default": (
        '{"duration_s":null,"runs":1,"scenario":"overload","seed":7}'),
    "reliability": (
        '{"budget_bytes":4096,"duration_s":0.01,"policies":["joint",'
        '"scaleout"],"runs":2,"scenario":"overload","seed":3}'),
    "reliability-default": (
        '{"budget_bytes":1048576,"duration_s":null,"policies":["joint",'
        '"pam","naive"],"runs":1,"scenario":"device-kill","seed":7}'),
    "size-sweep": (
        '{"duration_s":0.002,"latency_load_bps":1400000000.0,"sizes":[64,'
        '1500],"throughput_load_bps":2600000000.0}'),
    "fault-injected": (
        '{"faults":[{"attempts":[1],"fault":"error","index":1},'
        '{"attempts":null,"fault":"garbage","index":2}],'
        '"inner":{"config":{"brownout_scale_hi":0.85,'
        '"brownout_scale_lo":0.4,"duration_s":0.02,'
        '"flap_extra_hi_s":0.00019999999999999998,'
        '"flap_extra_lo_s":1.9999999999999998e-05,"max_brownouts":2,'
        '"max_crashes":3,"max_device_kills":0,'
        '"max_fault_duration_s":0.008,"max_overload_windows":0,'
        '"max_pcie_flaps":2,"max_telemetry_dropouts":1,'
        '"migration_failure_rate":0.3,"min_fault_duration_s":0.002,'
        '"overload_peak_bps":2400000000.0,"resilient":false},"runs":3,'
        '"seed":9},"inner_kind":"chaos"}'),
}

#: ``canonical_json(campaign.end_record(payloads))`` for the payloads
#: of :func:`_payloads`, as recorded before the same change.
END_RECORDS = {
    "chaos-hardened": '{"runs":3,"violations":3}',
    "chaos-resilient": '{"runs":2,"violations":1}',
    "soak": '{"runs":4,"violations":3}',
    "soak-planted": '{"runs":4,"violations":3}',
    "resilience": '{"runs":2,"violations":1}',
    "resilience-default": '{"runs":1,"violations":0}',
    "reliability": '{"runs":4,"violations":3}',
    "reliability-default": '{"runs":3,"violations":3}',
    "size-sweep": '{"points":2}',
    "fault-injected": '{"runs":3,"violations":3}',
}


def _payloads(count):
    return [{"violations": [{}] * (index % 3)} for index in range(count)]


class TestFingerprintPins:
    def test_every_registered_kind_is_pinned(self):
        campaign_kinds()  # imports every built-in kind
        builtin = {kind for kind, campaign_type in _REGISTRY.items()
                   if campaign_type.__module__.startswith("repro.")}
        assert {PINNED[case]().kind for case in PINNED} == builtin
        assert set(STRATEGIES) == set(PINNED) == set(FINGERPRINTS)

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_fingerprint_and_end_record_unchanged(self, case):
        campaign = PINNED[case]()
        assert canonical_json(campaign.fingerprint()) == FINGERPRINTS[case]
        payloads = _payloads(len(campaign.requests()))
        assert canonical_json(campaign.end_record(payloads)) == \
            END_RECORDS[case]


_runs = st.integers(1, 64)
_seeds = st.integers(0, 2 ** 31)
_durations = st.floats(1e-4, 0.5)
_sizes = st.lists(st.integers(64, 1500), min_size=1, max_size=4)


def _chaos_campaigns(resilient):
    kills = st.integers(0, 3) if resilient else st.just(0)
    config = st.builds(ChaosConfig, duration_s=_durations,
                       migration_failure_rate=st.floats(0.0, 1.0),
                       max_device_kills=kills, max_overload_windows=kills,
                       resilient=st.just(resilient))
    return st.builds(lambda runs, seed, config: ChaosCampaign(
        ChaosRunner(runs=runs, seed=seed, config=config)),
        _runs, _seeds, config)


@st.composite
def _soak_campaigns(draw, planted):
    runs = draw(_runs)
    space = replace(default_space(draw(st.none() | _durations)),
                    packet_sizes=tuple(draw(_sizes)))
    plant, index = None, None
    if planted:
        plant = PlantedBug(
            draw(st.sampled_from(["conservation", "protected-shed"])),
            draw(st.sampled_from(["crash", "brownout", "pcie-flap",
                                  "telemetry-dropout", "device-kill",
                                  "overload"])))
        index = draw(st.integers(0, runs - 1))
    return SoakCampaign(runs=runs, seed=draw(_seeds), space=space,
                        planted=plant, planted_index=index)


_worker_faults = st.builds(
    WorkerFault, index=st.integers(0, 63),
    fault=st.sampled_from(["hang", "die", "garbage", "error"]),
    attempts=st.none() | st.lists(st.integers(1, 5), min_size=1,
                                  max_size=3).map(tuple))

#: Case -> strategy of campaigns of that case's kind.
STRATEGIES = {
    "chaos-hardened": _chaos_campaigns(False),
    "chaos-resilient": _chaos_campaigns(True),
    "soak": _soak_campaigns(False),
    "soak-planted": _soak_campaigns(True),
    "resilience": st.builds(
        ResilienceCampaign, st.sampled_from(sorted(SCENARIOS)), _runs,
        _seeds, st.none() | _durations),
    "resilience-default": st.builds(
        ResilienceCampaign, st.sampled_from(sorted(SCENARIOS))),
    "reliability": st.builds(
        ReliabilityCampaign, st.sampled_from(sorted(SCENARIOS)),
        st.lists(st.sampled_from(sorted(RELIABILITY_POLICIES)),
                 min_size=1, max_size=4).map(tuple),
        _runs, _seeds, st.none() | _durations, st.integers(0, 1 << 24)),
    "reliability-default": st.just(ReliabilityCampaign()),
    "size-sweep": st.builds(
        lambda sizes, duration, latency, throughput: SizeSweepCampaign(
            figure1(), sizes=sizes, duration_s=duration,
            latency_load_bps=latency, throughput_load_bps=throughput),
        _sizes, _durations, st.floats(1e8, 1e10), st.floats(1e8, 1e10)),
    "fault-injected": st.builds(
        FaultInjectedCampaign, _chaos_campaigns(False),
        st.lists(_worker_faults, max_size=4,
                 unique_by=lambda fault: fault.index).map(
            lambda faults: FaultPlan(tuple(faults)))),
}


class TestSpecRoundTrip:
    @pytest.mark.parametrize("case", sorted(STRATEGIES))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_json_spec_rebuilds_the_same_campaign(self, case, data):
        campaign = data.draw(STRATEGIES[case])
        wire = json.loads(json.dumps(campaign.spec()))
        rebuilt = build_campaign(campaign.kind, wire)
        assert type(rebuilt) is type(campaign)
        assert canonical_json(rebuilt.spec()) == \
            canonical_json(campaign.spec())
        assert canonical_json(rebuilt.fingerprint()) == \
            canonical_json(campaign.fingerprint())


class TestCodec:
    def test_nested_optional_and_tuple_fields(self):
        campaign = SoakCampaign(
            runs=3, seed=1, space=replace(default_space(),
                                          packet_sizes=(64, 128)),
            planted=PlantedBug("conservation"), planted_index=0)
        wire = spec_to_json(campaign)
        assert wire["space"]["packet_sizes"] == [64, 128]
        assert wire["planted"] == {"bug": "conservation",
                                   "trigger_kind": "crash"}
        rebuilt = spec_from_json(SoakCampaign, wire)
        assert rebuilt == campaign
        assert isinstance(rebuilt.space.packet_sizes, tuple)
        assert isinstance(rebuilt.planted, PlantedBug)

    def test_missing_field_takes_its_default(self):
        assert spec_from_json(ResilienceCampaign,
                              {"scenario": "overload"}) == \
            ResilienceCampaign("overload")

    def test_unknown_field_and_invalid_value_are_refused(self):
        with pytest.raises(ConfigurationError, match="unknown field"):
            spec_from_json(ResilienceCampaign,
                           {"scenario": "overload", "runz": 2})
        with pytest.raises(ConfigurationError, match="at least one"):
            build_campaign("chaos", {"runs": 0, "seed": 1,
                                     "config": {}})
