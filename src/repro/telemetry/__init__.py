"""Operator-side telemetry: metrics, load estimators, monitors."""

from .._lazy import lazy_exports

__all__ = [
    "EwmaEstimator",
    "HoltEstimator",
    "LatencyHistogram",
    "LatencySummary",
    "LoadMonitor",
    "Sample",
    "SERIES_CPU",
    "SERIES_NIC",
    "SERIES_OFFERED",
    "ThroughputSummary",
    "TimeSeriesRecorder",
    "SmoothedController",
    "bar_chart",
    "percentile",
    "sparkline",
    "relative_change",
    "utilisation_timeline",
]

#: Public name -> defining submodule (see :mod:`repro._lazy`).
_EXPORTS = {
    "bar_chart": "ascii_plots",
    "sparkline": "ascii_plots",
    "utilisation_timeline": "ascii_plots",
    "EwmaEstimator": "estimator",
    "HoltEstimator": "estimator",
    "SmoothedController": "estimator",
    "LatencyHistogram": "histogram",
    "LatencySummary": "metrics",
    "ThroughputSummary": "metrics",
    "percentile": "metrics",
    "relative_change": "metrics",
    "SERIES_CPU": "monitor",
    "SERIES_NIC": "monitor",
    "SERIES_OFFERED": "monitor",
    "LoadMonitor": "monitor",
    "Sample": "recorder",
    "TimeSeriesRecorder": "recorder",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
