"""Smoothed load estimation (EWMA / Holt) for the control loop.

The raw monitor-window estimate of offered load is noisy under bursty
traffic; a controller reacting to single windows migrates on blips.
Beyond the debounce in :mod:`repro.telemetry.overload`, this module
offers estimation-side smoothing:

* :class:`EwmaEstimator` — exponentially weighted moving average, the
  standard one-knob smoother;
* :class:`HoltEstimator` — EWMA plus a trend term, which *leads* a ramp
  instead of lagging it, so a controller can react before the NIC
  actually tips over (a one-window forecast is exposed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError


class EwmaEstimator:
    """Exponentially weighted moving average of a sample stream."""

    def __init__(self, alpha: float = 0.3) -> None:
        if not (0.0 < alpha <= 1.0):
            raise ConfigurationError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._level: Optional[float] = None

    def update(self, sample: float) -> float:
        """Feed one sample; returns the smoothed value."""
        if self._level is None:
            self._level = sample
        else:
            self._level = (self.alpha * sample
                           + (1.0 - self.alpha) * self._level)
        return self._level

    @property
    def value(self) -> float:
        """Current smoothed value (raises before the first sample)."""
        if self._level is None:
            raise ConfigurationError("estimator has no samples yet")
        return self._level

    def reset(self) -> None:
        """Forget all history."""
        self._level = None


class HoltEstimator:
    """Holt's linear (level + trend) exponential smoothing."""

    def __init__(self, alpha: float = 0.4, beta: float = 0.3) -> None:
        if not (0.0 < alpha <= 1.0) or not (0.0 < beta <= 1.0):
            raise ConfigurationError("alpha/beta must be in (0, 1]")
        self.alpha = alpha
        self.beta = beta
        self._level: Optional[float] = None
        self._trend: float = 0.0

    def update(self, sample: float) -> float:
        """Feed one sample; returns the smoothed level."""
        if self._level is None:
            self._level = sample
            self._trend = 0.0
            return self._level
        previous = self._level
        self._level = (self.alpha * sample
                       + (1.0 - self.alpha) * (previous + self._trend))
        self._trend = (self.beta * (self._level - previous)
                       + (1.0 - self.beta) * self._trend)
        return self._level

    @property
    def value(self) -> float:
        """Current smoothed level."""
        if self._level is None:
            raise ConfigurationError("estimator has no samples yet")
        return self._level

    def forecast(self, steps: int = 1) -> float:
        """Level projected ``steps`` windows ahead along the trend."""
        if steps < 0:
            raise ConfigurationError("forecast steps must be >= 0")
        return self.value + steps * self._trend

    def reset(self) -> None:
        """Forget all history."""
        self._level = None
        self._trend = 0.0


class SmoothedController:
    """Wraps a controller, smoothing the offered-load estimate it sees.

    The inner controller receives tick contexts whose ``offered_bps``
    (and hence ``load``) comes from the smoother — optionally the Holt
    one-step forecast, which fires PAM one monitor period *earlier* on
    a steady ramp.
    """

    def __init__(self, inner, estimator=None,
                 use_forecast: bool = False) -> None:
        self.inner = inner
        self.estimator = estimator or HoltEstimator()
        self.use_forecast = use_forecast

    @property
    def migrations(self):
        """Expose the inner controller's records."""
        return getattr(self.inner, "migrations", [])

    def on_tick(self, context) -> None:
        """Smooth the estimate, rebuild the load view, delegate."""
        from ..resources.model import LoadModel
        from ..sim.runner import TickContext
        self.estimator.update(context.offered_bps)
        smoothed = self.estimator.value
        if self.use_forecast and hasattr(self.estimator, "forecast"):
            smoothed = max(smoothed, self.estimator.forecast(1))
        smoothed = max(smoothed, 0.0)
        self.inner.on_tick(TickContext(
            now_s=context.now_s,
            offered=smoothed,
            loads=(LoadModel(context.server.placement, smoothed),),
            server=context.server,
            networks=context.networks,
            engine=context.engine,
            telemetry_age_s=context.telemetry_age_s))
