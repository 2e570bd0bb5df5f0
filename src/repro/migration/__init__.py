"""Migration mechanism: state model, cost timeline, and the executor."""

from .._lazy import lazy_exports

__all__ = [
    "DEFAULT_FLOW_ENTRY_BYTES",
    "IncrementalMigrator",
    "IncrementalRecord",
    "MigrationCost",
    "MigrationCostModel",
    "MigrationExecutor",
    "MigrationRecord",
    "STATELESS_BLOB_BYTES",
    "StateModel",
]

#: Public name -> defining submodule (see :mod:`repro._lazy`).
_EXPORTS = {
    "MigrationCost": "cost",
    "MigrationCostModel": "cost",
    "MigrationExecutor": "executor",
    "MigrationRecord": "executor",
    "IncrementalMigrator": "incremental",
    "IncrementalRecord": "incremental",
    "DEFAULT_FLOW_ENTRY_BYTES": "state",
    "STATELESS_BLOB_BYTES": "state",
    "StateModel": "state",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
