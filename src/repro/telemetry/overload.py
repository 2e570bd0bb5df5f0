"""Overload detection with hysteresis.

The paper's operator "periodically queries the load of SmartNIC and
CPU".  A raw ``utilisation > 1`` test flaps on bursty traffic, so the
detector requires ``on_count`` consecutive over-threshold samples to
assert overload and ``off_count`` consecutive under-threshold samples to
clear it.  ``on_count=1, off_count=1`` reproduces the paper's memoryless
check.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError


class OverloadDetector:
    """Debounced threshold detector over a utilisation sample stream."""

    def __init__(self, threshold: float = 1.0,
                 on_count: int = 1, off_count: int = 1) -> None:
        if threshold <= 0:
            raise ConfigurationError("threshold must be positive")
        if on_count < 1 or off_count < 1:
            raise ConfigurationError("debounce counts must be >= 1")
        self.threshold = threshold
        self.on_count = on_count
        self.off_count = off_count
        self._over_streak = 0
        self._under_streak = 0
        self._state = False
        #: Number of distinct overload episodes seen so far.
        self.episodes = 0

    @property
    def overloaded(self) -> bool:
        """Current debounced state."""
        return self._state

    def update(self, utilisation: float) -> bool:
        """Feed one sample; returns the (possibly new) debounced state."""
        if utilisation < 0:
            raise ConfigurationError("utilisation must be >= 0")
        if utilisation > self.threshold:
            self._over_streak += 1
            self._under_streak = 0
            if not self._state and self._over_streak >= self.on_count:
                self._state = True
                self.episodes += 1
        else:
            self._under_streak += 1
            self._over_streak = 0
            if self._state and self._under_streak >= self.off_count:
                self._state = False
        return self._state

    def reset(self) -> None:
        """Forget all streak state (between experiments)."""
        self._over_streak = 0
        self._under_streak = 0
        self._state = False
