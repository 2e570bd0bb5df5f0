"""Steps 2-3 constraint settings: Eq. 2 (CPU headroom) and Eq. 3 (NIC relief).

The selection loop (:func:`repro.core.pam.push_aside`) evaluates both
sums on the placement *after* a candidate move, mirroring the paper:

* Eq. 2 — migrating b0 must not create a new hot spot on the CPU::

      sum_{i on C} theta_cur/theta_i^C + theta_cur/theta_b0^C < 1

* Eq. 3 — with b0 (and prior migrants) gone, the SmartNIC must be back
  under capacity::

      sum_{i on S, i != b0} theta_cur/theta_i^S < 1

Both are strict inequalities in the paper; ``epsilon`` adds an optional
safety margin (0 reproduces the paper exactly, a positive value keeps
operating headroom — used by the hysteresis ablation).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..resources.model import LoadModel


@dataclass(frozen=True)
class FeasibilityConfig:
    """Tunables for the constraint checks."""

    #: Safety margin subtracted from the RHS of both constraints:
    #: utilisation must stay below ``1 - epsilon``.  The paper uses 0.
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.epsilon < 1.0):
            raise ConfigurationError(
                f"epsilon must be in [0, 1), got {self.epsilon}")

    @property
    def threshold(self) -> float:
        """The utilisation bound both checks compare against."""
        return 1.0 - self.epsilon


def nic_alleviated(load: LoadModel,
                   config: FeasibilityConfig = FeasibilityConfig()) -> bool:
    """Whether the SmartNIC is already under capacity (loop exit test)."""
    return load.nic_load().utilisation < config.threshold


def both_overloaded(load: LoadModel,
                    config: FeasibilityConfig = FeasibilityConfig()) -> bool:
    """The rare joint-overload case that forces scale-out (paper S2 end)."""
    return (load.nic_load().utilisation >= config.threshold
            and load.cpu_load().utilisation >= config.threshold)
