"""The generative fuzzer: seeded draws, round-trips, and planting."""

import pytest

from repro.errors import ConfigurationError
from repro.exec.campaign import spec_from_json, spec_to_json
from repro.soak.fuzzer import (BUG_CONSERVATION, BUG_PROTECTED_SHED,
                               FuzzSpace, PlantedBug, SoakCase,
                               default_space, generate_case, parse_plant,
                               plant)


class TestFuzzSpace:
    def test_round_trip(self):
        space = default_space(0.01)
        assert spec_from_json(FuzzSpace, spec_to_json(space)) == space

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FuzzSpace(duration_lo_s=0.02, duration_hi_s=0.01)
        with pytest.raises(ConfigurationError):
            FuzzSpace(packet_sizes=())
        with pytest.raises(ConfigurationError):
            FuzzSpace(resilient_frac=1.5)

    def test_default_space_caps_duration(self):
        capped = default_space(0.005)
        assert capped.duration_hi_s == 0.005
        assert capped.duration_lo_s <= capped.duration_hi_s
        assert default_space() == FuzzSpace()


class TestGenerateCase:
    def test_same_seed_same_case(self):
        space = default_space(0.01)
        assert generate_case(space, 42) == generate_case(space, 42)

    def test_different_seeds_differ(self):
        space = default_space(0.01)
        cases = {generate_case(space, seed).to_dict()["duration_s"]
                 for seed in range(20)}
        assert len(cases) > 1

    def test_case_round_trip(self):
        for seed in range(8):
            case = generate_case(default_space(0.01), seed)
            assert SoakCase.from_dict(case.to_dict()) == case

    def test_case_within_space(self):
        space = default_space(0.01)
        for seed in range(12):
            case = generate_case(space, seed)
            assert space.duration_lo_s <= case.duration_s \
                <= space.duration_hi_s
            assert case.packet_bytes in space.packet_sizes
            for fault in case.faults:
                assert 0.0 <= fault.at_s <= case.duration_s

    def test_faults_sorted_by_time(self):
        for seed in range(12):
            case = generate_case(default_space(0.01), seed)
            times = [fault.at_s for fault in case.faults]
            assert times == sorted(times)


class TestPlanting:
    def test_plant_adds_trigger_fault_when_absent(self):
        case = generate_case(default_space(0.01), 5)
        armed = plant(case, PlantedBug(BUG_CONSERVATION, "device-kill"))
        kinds = {fault.kind for fault in armed.faults}
        assert "device-kill" in kinds
        assert armed.planted == PlantedBug(BUG_CONSERVATION,
                                           "device-kill")

    def test_plant_reuses_existing_trigger_fault(self):
        case = generate_case(default_space(0.01), 5)
        assert any(f.kind == "crash" for f in case.faults)
        armed = plant(case, PlantedBug(BUG_CONSERVATION, "crash"))
        assert len(armed.faults) == len(case.faults)

    def test_protected_shed_plant_forces_resilient(self):
        case = generate_case(default_space(0.01), 5)
        armed = plant(case, PlantedBug(BUG_PROTECTED_SHED, "crash"))
        assert armed.resilient

    def test_planted_round_trips_through_dict(self):
        case = plant(generate_case(default_space(0.01), 5),
                     PlantedBug(BUG_CONSERVATION, "crash"))
        assert SoakCase.from_dict(case.to_dict()) == case

    def test_bad_bug_rejected(self):
        with pytest.raises(ConfigurationError):
            PlantedBug("nonsense", "crash")
        with pytest.raises(ConfigurationError):
            PlantedBug(BUG_CONSERVATION, "nonsense")


class TestParsePlant:
    def test_full_form(self):
        index, bug = parse_plant("5:conservation:brownout")
        assert index == 5
        assert bug == PlantedBug(BUG_CONSERVATION, "brownout")

    def test_default_trigger_is_crash(self):
        index, bug = parse_plant("0:protected-shed")
        assert index == 0
        assert bug == PlantedBug(BUG_PROTECTED_SHED, "crash")

    @pytest.mark.parametrize("text", [
        "", "5", "x:conservation", "-1:conservation",
        "5:bogus", "5:conservation:bogus", "5:conservation:crash:extra",
    ])
    def test_bad_specs_rejected(self, text):
        with pytest.raises(ConfigurationError):
            parse_plant(text)
