"""The Scenario protocol: one unit of simulated work.

A scenario is built fully wired (server, workload, controller, faults)
but not yet run.  The phases after building are:

* ``prepare()`` — inject the seeded workload and arm control events.
  Idempotent; split out so building the event population is its own
  phase, apart from the engine run.
* ``run()`` — drive the engine to completion (including any drain the
  scenario needs before its end state is meaningful).
* ``collect()`` — aggregate the end state into the scenario's result
  object.  Pure inspection: calling it twice returns equal results.
* ``release()`` — end the run: drop its pending events and every
  packet it holds.  A run's object graph is cyclic (the engine's
  action table points at callbacks that point back at the engine), so
  an unreleased run stays resident until a full cycle collection.
  Whoever builds a scenario releases it, in a ``finally`` once
  ``collect()`` has produced the result.  Idempotent; ``collect()``
  afterwards raises.

:class:`~repro.sim.runner.SimulationRunner`, soak scenarios
(:class:`~repro.soak.scenario.SoakScenario`), and harness experiments
(:class:`~repro.harness.experiment.ExperimentScenario`) all implement
this shape, which is what lets one campaign loop drive every kind of
run.  Every fault campaign runs soak cases through one wiring
(:class:`~repro.soak.scenario.CaseScenario`): chaos runs collect their
drained end state through
:meth:`~repro.chaos.runner.ChaosRunResult.from_scenario`, and the
resilience and reliability campaigns flatten theirs with
:func:`~repro.resilience.campaign.outcome_payload`.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable


@runtime_checkable
class Scenario(Protocol):
    """What the execution core asks of one unit of work."""

    def prepare(self) -> None:
        """Inject the workload and arm control events (idempotent)."""

    def run(self) -> object:
        """Drive the simulation to completion; return the raw result."""

    def collect(self) -> object:
        """Aggregate the end state into the scenario's result object."""

    def release(self) -> None:
        """Free the run's packets and pending events (idempotent)."""


def seed_for(campaign_seed: int, index: int) -> int:
    """The per-run seed derived from a campaign seed and run index.

    This is *the* derivation — identical for every campaign type and
    every executor, and identical to the scheme the chaos runner has
    always used (``seed + i``), so existing journals, reports, and
    replay instructions stay valid.  A parallel worker computing run
    ``i`` draws exactly the randomness the serial loop would have.
    """
    return campaign_seed + index
