"""Shared fixtures for the PAM reproduction test suite."""

from __future__ import annotations

import pytest

from repro.chain import ChainBuilder, DeviceKind, catalog
from repro.devices.server import PAPER_TESTBED
from repro.harness.scenarios import (FIGURE1_THROUGHPUT_BPS, figure1,
                                     long_chain)
from repro.resources.model import LoadModel
from repro.units import gbps


@pytest.fixture
def fig1_scenario():
    """The canonical Figure 1 scenario (fresh each test)."""
    return figure1()


@pytest.fixture
def fig1_placement(fig1_scenario):
    """Just the Figure 1 placement."""
    return fig1_scenario.placement


@pytest.fixture
def fig1_chain(fig1_scenario):
    """Just the Figure 1 chain."""
    return fig1_scenario.chain


@pytest.fixture
def fig1_throughput():
    """The canonical overload throughput (1.8 Gbps)."""
    return FIGURE1_THROUGHPUT_BPS


@pytest.fixture
def fig1_loads(fig1_placement, fig1_throughput):
    """The Figure 1 chain at 1.8 Gbps as the 1-tuple of load models a
    selection policy takes."""
    return (LoadModel(fig1_placement, fig1_throughput),)


@pytest.fixture
def fig1_server(fig1_scenario):
    """A paper-testbed server with the Figure 1 placement installed."""
    return fig1_scenario.build_server()


@pytest.fixture
def long6_scenario():
    """A six-NF ablation chain with a large NIC segment."""
    return long_chain(6)


@pytest.fixture
def nic_only_placement():
    """A three-NF chain entirely on the SmartNIC (no borders to the CPU
    except via the host-terminated egress)."""
    _, placement = (
        ChainBuilder("nic-only", profiles=catalog.FIGURE1_SCENARIO)
        .nic("logger")
        .nic("monitor")
        .nic("firewall")
        .build())
    return placement
