"""Operator-side telemetry: metrics, overload detection, monitors."""

from .._lazy import lazy_exports

__all__ = [
    "EwmaEstimator",
    "ResourceBill",
    "HoltEstimator",
    "LatencyHistogram",
    "LatencySummary",
    "LoadMonitor",
    "OverloadDetector",
    "Sample",
    "SERIES_CPU",
    "SERIES_NIC",
    "SERIES_OFFERED",
    "ThroughputSummary",
    "TimeSeriesRecorder",
    "SmoothedController",
    "bar_chart",
    "bill_from_monitor",
    "load_packets_jsonl",
    "integrate_series",
    "packets_to_jsonl",
    "percentile",
    "series_to_csv",
    "sparkline",
    "relative_change",
    "utilisation_timeline",
]

#: Public name -> defining submodule (see :mod:`repro._lazy`).
_EXPORTS = {
    "bar_chart": "ascii_plots",
    "sparkline": "ascii_plots",
    "utilisation_timeline": "ascii_plots",
    "ResourceBill": "accounting",
    "bill_from_monitor": "accounting",
    "integrate_series": "accounting",
    "EwmaEstimator": "estimator",
    "HoltEstimator": "estimator",
    "SmoothedController": "estimator",
    "load_packets_jsonl": "export",
    "packets_to_jsonl": "export",
    "series_to_csv": "export",
    "LatencyHistogram": "histogram",
    "LatencySummary": "metrics",
    "ThroughputSummary": "metrics",
    "percentile": "metrics",
    "relative_change": "metrics",
    "SERIES_CPU": "monitor",
    "SERIES_NIC": "monitor",
    "SERIES_OFFERED": "monitor",
    "LoadMonitor": "monitor",
    "OverloadDetector": "overload",
    "Sample": "recorder",
    "TimeSeriesRecorder": "recorder",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
