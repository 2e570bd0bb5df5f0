"""LoadModel: the paper's linear utilisation sums and what-if checks."""

import pytest

from repro.chain import catalog
from repro.chain.builder import ChainBuilder
from repro.chain.nf import DeviceKind
from repro.errors import CapacityError
from repro.resources.model import LoadModel, shared_utilisation
from repro.units import gbps

S = DeviceKind.SMARTNIC
C = DeviceKind.CPU


@pytest.fixture
def placement():
    _, placement = (ChainBuilder("f", profiles=catalog.FIGURE1_SCENARIO)
                    .cpu("load_balancer").nic("logger").nic("monitor")
                    .nic("firewall").build(egress=C))
    return placement


class TestAggregates:
    def test_nic_utilisation_at_canonical_load(self, placement):
        load = LoadModel(placement, gbps(1.8))
        # 1.8 * (1/4 + 1/3.2 + 1/10) = 1.1925
        assert load.nic_load().utilisation == pytest.approx(1.1925)

    def test_cpu_utilisation_at_canonical_load(self, placement):
        load = LoadModel(placement, gbps(1.8))
        assert load.cpu_load().utilisation == pytest.approx(0.45)

    def test_shares_sum_to_utilisation(self, placement):
        load = LoadModel(placement, gbps(1.8)).nic_load()
        assert sum(load.shares.values()) == pytest.approx(load.utilisation)

    def test_utilisation_sums_left_to_right(self, placement):
        # Uncompensated, on every interpreter: builtin sum() gives
        # 0.006625000000000001 and 0.019875000000000004 here on
        # Python 3.12+, which would move pinned plans and digests.
        load = LoadModel(placement, gbps(0.01))
        assert load.device_load(S).utilisation == 0.006625
        assert shared_utilisation([load] * 3, S) == 0.019875

    def test_overloaded_flag(self, placement):
        assert LoadModel(placement, gbps(1.8)).nic_load().overloaded
        assert not LoadModel(placement, gbps(1.0)).nic_load().overloaded

    def test_headroom(self, placement):
        load = LoadModel(placement, gbps(1.0)).nic_load()
        assert load.headroom == pytest.approx(1.0 - load.utilisation)

    def test_overloaded_devices_order(self, placement):
        assert LoadModel(placement, gbps(1.8)).overloaded_devices() == [S]
        assert LoadModel(placement, gbps(1.0)).overloaded_devices() == []


class TestWhatIf:
    def test_cpu_load_with_matches_eq2(self, placement):
        load = LoadModel(placement, gbps(1.8))
        logger = placement.chain.get("logger")
        # 0.45 + 1.8/4 = 0.9
        assert load.cpu_load_with(logger) == pytest.approx(0.9)

    def test_nic_load_without_matches_eq3(self, placement):
        load = LoadModel(placement, gbps(1.8))
        logger = placement.chain.get("logger")
        # 1.8 * (1/3.2 + 1/10) = 0.7425
        assert load.nic_load_without(logger) == pytest.approx(0.7425)

    def test_nic_load_without_cpu_nf_is_identity(self, placement):
        load = LoadModel(placement, gbps(1.8))
        lb = placement.chain.get("load_balancer")
        assert load.nic_load_without(lb) == \
            pytest.approx(load.nic_load().utilisation)

    def test_after_move_consistency(self, placement):
        load = LoadModel(placement, gbps(1.8))
        logger = placement.chain.get("logger")
        moved = load.after_move("logger", C)
        assert moved.nic_load().utilisation == \
            pytest.approx(load.nic_load_without(logger))
        assert moved.cpu_load().utilisation == \
            pytest.approx(load.cpu_load_with(logger))


class TestThroughputSpec:
    def test_scalar_expands_to_all_nfs(self, placement):
        load = LoadModel(placement, gbps(1.0))
        assert set(load.throughput) == set(placement.chain.names())
        assert all(v == gbps(1.0) for v in load.throughput.values())

    def test_mapping_must_cover_chain(self, placement):
        with pytest.raises(CapacityError, match="omits"):
            LoadModel(placement, {"logger": gbps(1.0)})

    def test_mapping_rejects_negative(self, placement):
        spec = {name: gbps(1.0) for name in placement.chain.names()}
        spec["monitor"] = -1.0
        with pytest.raises(CapacityError, match="negative"):
            LoadModel(placement, spec)

    def test_negative_scalar_rejected(self, placement):
        with pytest.raises(CapacityError):
            LoadModel(placement, -1.0)

    def test_per_nf_throughput_honoured(self, placement):
        spec = {name: gbps(1.8) for name in placement.chain.names()}
        spec["firewall"] = gbps(0.9)  # firewall passes only half the load
        load = LoadModel(placement, spec)
        full = LoadModel(placement, gbps(1.8))
        assert load.nic_load().utilisation < full.nic_load().utilisation


class TestCapacityKnees:
    def test_nic_sustainable_throughput(self, placement):
        load = LoadModel(placement, gbps(1.0))
        # 1 / (1/4 + 1/3.2 + 1/10) Gbps
        assert load.max_sustainable_throughput(S) == \
            pytest.approx(gbps(1 / 0.6625))

    def test_empty_device_is_unbounded(self, placement):
        moved = placement.moved("logger", C).moved("monitor", C) \
                         .moved("firewall", C)
        load = LoadModel(moved, gbps(1.0))
        assert load.max_sustainable_throughput(S) == float("inf")

    def test_chain_capacity_is_min_of_devices(self, placement):
        load = LoadModel(placement, gbps(1.0))
        assert load.chain_capacity() == pytest.approx(
            min(load.max_sustainable_throughput(S),
                load.max_sustainable_throughput(C)))
