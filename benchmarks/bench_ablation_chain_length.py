"""Ablation A2: chain length and border-set size.

Longer chains have deeper SmartNIC segments, so the bottleneck sits
further from the borders and the naive policy keeps paying its +2
crossings while PAM's cost stays at zero regardless of length.
"""

import pytest

from conftest import report
from repro.baselines.naive import select as naive_select
from repro.core.border import border_sets
from repro.core.pam import select as pam_select
from repro.harness.scenarios import long_chain
from repro.harness.tables import render_table
from repro.resources.model import LoadModel
from repro.units import gbps

LENGTHS = (4, 5, 6, 7, 8)


def overload_point(placement):
    """An offered load 10% past the NIC knee of this placement."""
    knee = LoadModel(placement, gbps(1.0)).max_sustainable_throughput(
        placement.device_of(placement.nic_nfs()[0].name))
    return knee * 1.1


def test_chain_length_sweep(benchmark):
    rows = []

    def run():
        rows.clear()
        for length in LENGTHS:
            scenario = long_chain(length)
            placement = scenario.placement
            load = overload_point(placement)
            sets = border_sets(placement)
            pam = pam_select(placement, load, strict=False)
            naive = naive_select(placement, load, strict=False)
            rows.append((length, placement, load, sets, pam, naive))
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)

    table_rows = []
    for length, placement, load, sets, pam, naive in rows:
        table_rows.append([
            str(length),
            str(len(placement.nic_nfs())),
            str(len(sets.all)),
            f"{len(pam.migrated_names)} ({pam.total_crossing_delta:+d})",
            f"{len(naive.migrated_names)} ({naive.total_crossing_delta:+d})",
        ])
    report(
        "Ablation A2 — chain length vs border sets and crossing deltas",
        render_table(
            ["chain len", "NIC NFs", "borders",
             "pam moves (dPCIe)", "naive moves (dPCIe)"],
            table_rows))

    for length, placement, load, sets, pam, naive in rows:
        # PAM never adds crossings on any chain length.
        assert pam.total_crossing_delta <= 0
        # Borders exist on both flanks of the NIC segment.
        assert sets.left and sets.right
        # Whenever both policies succeed and naive touched a
        # mid-segment NF, it paid crossings PAM did not.
        if pam.alleviates and naive.alleviates:
            assert naive.total_crossing_delta >= pam.total_crossing_delta
