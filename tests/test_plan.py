"""MigrationPlan consistency validation."""

import pytest

from repro.chain.nf import DeviceKind
from repro.core.plan import MigrationAction, MigrationPlan
from repro.errors import InfeasiblePlanError

C = DeviceKind.CPU
S = DeviceKind.SMARTNIC


class TestAction:
    def test_noop_action_rejected(self):
        with pytest.raises(InfeasiblePlanError):
            MigrationAction("x", source=S, target=S, crossing_delta=0)

    def test_fields(self):
        action = MigrationAction("logger", source=S, target=C,
                                 crossing_delta=0)
        assert action.nf_name == "logger"
        assert action.crossing_delta == 0


class TestEmptyPlan:
    def test_empty_is_noop(self, fig1_placement):
        plan = MigrationPlan.empty((fig1_placement,), "pam")
        assert plan.is_noop
        assert plan.migrated_names == []
        assert plan.total_crossing_delta == 0
        plan.validate()

    def test_empty_before_equals_after(self, fig1_placement):
        plan = MigrationPlan.empty((fig1_placement,), "pam")
        assert plan.before == plan.after


class TestValidation:
    def valid_plan(self, placement):
        action = MigrationAction("logger", source=S, target=C,
                                 crossing_delta=0)
        return MigrationPlan(actions=(action,), befores=(placement,),
                             afters=(placement.moved("logger", C),),
                             alleviates=True, policy="pam")

    def test_valid_plan_passes(self, fig1_placement):
        self.valid_plan(fig1_placement).validate()

    def test_wrong_source_detected(self, fig1_placement):
        action = MigrationAction("load_balancer", source=S, target=C,
                                 crossing_delta=0)
        plan = MigrationPlan(
            actions=(action,), befores=(fig1_placement,),
            afters=(fig1_placement,), alleviates=True, policy="x")
        with pytest.raises(InfeasiblePlanError, match="source"):
            plan.validate()

    def test_wrong_crossing_delta_detected(self, fig1_placement):
        action = MigrationAction("logger", source=S, target=C,
                                 crossing_delta=7)
        plan = MigrationPlan(
            actions=(action,), befores=(fig1_placement,),
            afters=(fig1_placement.moved("logger", C),),
            alleviates=True, policy="x")
        with pytest.raises(InfeasiblePlanError, match="crossing delta"):
            plan.validate()

    def test_wrong_after_placement_detected(self, fig1_placement):
        action = MigrationAction("logger", source=S, target=C,
                                 crossing_delta=0)
        plan = MigrationPlan(
            actions=(action,), befores=(fig1_placement,),
            afters=(fig1_placement,),  # should be the moved placement
            alleviates=True, policy="x")
        with pytest.raises(InfeasiblePlanError, match="after"):
            plan.validate()

    def test_total_crossing_delta_sums_actions(self, fig1_placement):
        plan = self.valid_plan(fig1_placement)
        assert plan.total_crossing_delta == \
            plan.after.pcie_crossings() - plan.before.pcie_crossings()

    def test_multi_action_sequencing(self, fig1_placement):
        first = MigrationAction("logger", source=S, target=C,
                                crossing_delta=0)
        mid = fig1_placement.moved("logger", C)
        second = MigrationAction(
            "monitor", source=S, target=C,
            crossing_delta=mid.crossing_delta("monitor", C))
        plan = MigrationPlan(
            actions=(first, second), befores=(fig1_placement,),
            afters=(mid.moved("monitor", C),), alleviates=True, policy="x")
        plan.validate()
        assert plan.migrated_names == ["logger", "monitor"]
