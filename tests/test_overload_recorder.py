"""The controllers' memoryless overload check and the time-series recorder."""

import pytest

from repro.baselines.noop import NoopPolicy
from repro.chain import catalog
from repro.chain.builder import ChainBuilder
from repro.chain.nf import DeviceKind
from repro.core.operator import HardenedController
from repro.core.planner import MigrationController, PAMPolicy
from repro.devices.server import PAPER_TESTBED
from repro.errors import ConfigurationError
from repro.resources.model import LoadModel
from repro.sim.engine import Engine
from repro.sim.network import ChainNetwork
from repro.sim.runner import TickContext
from repro.telemetry.recorder import TimeSeriesRecorder
from repro.units import gbps

# One SmartNIC NF with theta^S = 2 Gbps: offered 2.4 / 2.0 / 1.6 Gbps
# put the NIC at utilisation 1.2 / exactly 1.0 / 0.8.
UTILISATION_TO_GBPS = {1.2: 2.4, 1.0: 2.0, 0.8: 1.6}


def one_nf_placement():
    __, placement = (ChainBuilder("one-nf", profiles=catalog.TABLE1)
                     .nic("logger").build(egress=DeviceKind.CPU))
    return placement


class CountingPolicy:
    """Counts select calls; never migrates, so nothing is executed."""

    name = "counting"

    def __init__(self):
        self.calls = 0

    def select(self, loads):
        self.calls += 1
        return NoopPolicy().select(loads)


class OneNFServer:
    """Feeds a controller ticks at chosen NIC utilisations."""

    def __init__(self):
        self.placement = one_nf_placement()
        self.server = PAPER_TESTBED.build()
        self.server.install(self.placement)
        self.engine = Engine()
        self.network = ChainNetwork(self.server, self.engine,
                                    self.placement)

    def tick(self, controller, utilisation, now_s):
        offered = gbps(UTILISATION_TO_GBPS[utilisation])
        load = LoadModel(self.placement, offered)
        assert load.nic_load().utilisation == utilisation
        controller.on_tick(TickContext(
            now_s=now_s, offered=offered, loads=(load,),
            server=self.server, networks=(self.network,),
            engine=self.engine))


def controllers():
    """Each controller paired with its own counting policy."""
    plain, hardened = CountingPolicy(), CountingPolicy()
    return [(MigrationController(plain), plain),
            (HardenedController(hardened), hardened)]


class TestDetectorMemoryless:
    """Both controllers plan exactly on the ticks whose SmartNIC
    utilisation is strictly above 1, with no memory of earlier ticks."""

    def test_fires_immediately_by_default(self):
        for controller, policy in controllers():
            OneNFServer().tick(controller, 1.2, now_s=0.002)
            assert policy.calls == 1

    def test_clears_immediately_by_default(self):
        for controller, policy in controllers():
            server = OneNFServer()
            server.tick(controller, 1.2, now_s=0.002)
            server.tick(controller, 0.8, now_s=0.004)
            assert policy.calls == 1

    def test_threshold_is_strict(self):
        for controller, policy in controllers():
            OneNFServer().tick(controller, 1.0, now_s=0.002)
            assert policy.calls == 0

    def test_pam_still_acts_at_exactly_one(self):
        # Eq. 3 needs the NIC strictly below 1, so u == 1.0 is not the
        # "smartnic not overloaded" empty plan: PAM pushes the NF aside.
        load = LoadModel(one_nf_placement(), gbps(2.0))
        assert load.nic_load().utilisation == 1.0
        plan = PAMPolicy().select((load,))
        assert "smartnic not overloaded" not in plan.notes
        assert plan.migrated_names == ["logger"]
        assert plan.alleviates


class TestRecorder:
    def test_record_and_read_back(self):
        recorder = TimeSeriesRecorder()
        recorder.record("nic", 0.0, 0.5)
        recorder.record("nic", 1.0, 0.9)
        assert recorder.values("nic") == [0.5, 0.9]

    def test_time_must_be_monotone_per_series(self):
        recorder = TimeSeriesRecorder()
        recorder.record("nic", 1.0, 0.5)
        with pytest.raises(ConfigurationError):
            recorder.record("nic", 0.5, 0.6)

    def test_series_are_independent(self):
        recorder = TimeSeriesRecorder()
        recorder.record("nic", 5.0, 1.0)
        recorder.record("cpu", 1.0, 1.0)  # earlier time, other series: fine
        assert recorder.names() == ["cpu", "nic"]

    def test_last_and_max(self):
        recorder = TimeSeriesRecorder()
        recorder.record("nic", 0.0, 0.5)
        recorder.record("nic", 1.0, 1.3)
        recorder.record("nic", 2.0, 0.9)
        assert recorder.last("nic").value == 0.9
        assert recorder.max("nic") == 1.3

    def test_missing_series(self):
        recorder = TimeSeriesRecorder()
        assert recorder.series("ghost") == []
        with pytest.raises(ConfigurationError):
            recorder.last("ghost")
