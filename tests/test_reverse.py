"""Pull-back (reverse PAM) selection."""

import pytest

from repro.chain.nf import DeviceKind
from repro.core.pam import select as pam_select
from repro.core.reverse import (PullbackConfig, _pullback_candidates,
                                select_pullback)
from repro.errors import ConfigurationError
from repro.resources.model import LoadModel
from repro.units import gbps

C = DeviceKind.CPU
S = DeviceKind.SMARTNIC


@pytest.fixture
def after_pam(fig1_placement):
    """The placement after PAM pushed logger aside at 1.8 Gbps."""
    return pam_select(fig1_placement, gbps(1.8)).after


def candidate_names(placement):
    """The pull-back candidates of one chain, best first."""
    return [name for __, name in _pullback_candidates((placement,))]


class TestCandidates:
    def test_pushed_nf_is_a_candidate(self, after_pam):
        assert "logger" in candidate_names(after_pam)

    def test_mid_cpu_segment_nf_is_not(self, fig1_placement):
        # Moving the LB to the NIC would change crossings (+2: it sits
        # between the wire... actually LB's upstream is the wire(S) and
        # downstream logger(S): moving LB to S *removes* 2 crossings,
        # so it IS a candidate. Verify via crossing_delta directly.
        for name in candidate_names(fig1_placement):
            assert fig1_placement.crossing_delta(name, S) <= 0

    def test_sorted_by_descending_nic_capacity(self, after_pam):
        names = candidate_names(after_pam)
        caps = [after_pam.chain.get(n).nic_capacity_bps for n in names]
        assert caps == sorted(caps, reverse=True)


class TestSelection:
    def test_pulls_logger_back_when_quiet(self, after_pam):
        plan = select_pullback((LoadModel(after_pam, gbps(0.8)),))
        assert "logger" in plan.migrated_names
        assert plan.total_crossing_delta <= 0

    def test_respects_nic_target(self, after_pam):
        plan = select_pullback((LoadModel(after_pam, gbps(0.8)),),
                               PullbackConfig(nic_target=0.8,
                                              trigger_below=0.5))
        load = LoadModel(plan.after, gbps(0.8))
        assert load.nic_load().utilisation < 0.8

    def test_no_pullback_while_busy(self, after_pam):
        # At 1.6 Gbps the NIC sits at 0.66 > trigger_below.
        plan = select_pullback((LoadModel(after_pam, gbps(1.6)),))
        assert plan.is_noop
        assert "too busy" in plan.notes[0]

    def test_pullback_never_overloads_nic(self, after_pam):
        for rate in (0.4, 0.6, 0.8, 1.0):
            plan = select_pullback((LoadModel(after_pam, gbps(rate)),))
            load = LoadModel(plan.after, gbps(rate))
            assert load.nic_load().utilisation < 1.0

    def test_roundtrip_pam_then_pullback_restores_offload(self,
                                                          fig1_placement):
        pushed = pam_select(fig1_placement, gbps(1.8)).after
        pulled = select_pullback((LoadModel(pushed, gbps(0.8)),)).after
        # Everything that can sit on the NIC is back on it.
        assert pulled.device_of("logger") is S

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            PullbackConfig(nic_target=0.0)
        with pytest.raises(ConfigurationError):
            PullbackConfig(nic_target=0.5, trigger_below=0.9)
