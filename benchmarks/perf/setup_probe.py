"""Time one workload's set-up in a fresh interpreter.

``python3 benchmarks/perf/setup_probe.py <workload> <seed> <scratch>``
prints the seconds from this file's first statement, through
``import repro``, to the constructed campaign.  ``run.py`` runs it
several times per measured run and reports the median as ``setup_s``.
"""

import time

START_S = time.perf_counter()  # repro: noqa[DET103] set-up is measured

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    """Import the workloads, build one, print the elapsed seconds."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    import workloads

    name, seed, scratch = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.WORKLOADS[name].setup(seed, scratch)
    print(time.perf_counter() - START_S)  # repro: noqa[DET103]


if __name__ == "__main__":
    main()
