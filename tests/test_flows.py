"""Flow table: determinism, Zipf weighting, hash splits."""

import os
import random
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigurationError
from repro.traffic.flows import FiveTuple, FlowTable


def _split_in_subprocess(hash_seed):
    """``repr(FlowTable().split(4))`` from a fresh interpreter whose
    string hashing is salted with ``hash_seed``."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    completed = subprocess.run(
        [sys.executable, "-c",
         "from repro.traffic.flows import FlowTable; "
         "print(repr(FlowTable().split(4)))"],
        env=env, capture_output=True, text=True, check=True)
    return completed.stdout.strip()


class TestFiveTuple:
    def test_hash_bucket_deterministic(self):
        ft = FiveTuple("10.0.0.1", "192.168.0.1", 1234, 80)
        assert ft.hash_bucket(4) == ft.hash_bucket(4)
        # Splits must not depend on the interpreter's string-hash salt.
        splits = {_split_in_subprocess(seed) for seed in ("1", "2")}
        assert len(splits) == 1
        assert splits == {repr(FlowTable().split(4))}

    def test_hash_bucket_in_range(self):
        ft = FiveTuple("10.0.0.1", "192.168.0.1", 1234, 80)
        assert 0 <= ft.hash_bucket(7) < 7

    def test_invalid_bucket_count(self):
        ft = FiveTuple("10.0.0.1", "192.168.0.1", 1234, 80)
        with pytest.raises(ConfigurationError):
            ft.hash_bucket(0)


class TestFlowTable:
    def test_deterministic_for_seed(self):
        assert FlowTable(seed=3).flows == FlowTable(seed=3).flows

    def test_different_seeds_differ(self):
        assert FlowTable(seed=3).flows != FlowTable(seed=4).flows

    def test_len(self):
        assert len(FlowTable(num_flows=17)) == 17

    def test_needs_flows(self):
        with pytest.raises(ConfigurationError):
            FlowTable(num_flows=0)

    def test_zipf_exponent_validated(self):
        with pytest.raises(ConfigurationError):
            FlowTable(zipf_s=0.0)

    def test_pick_flow_in_range(self):
        table = FlowTable(num_flows=8)
        rng = random.Random(1)
        for _ in range(100):
            assert 0 <= table.pick_flow(rng) < 8

    def test_pick_flow_skewed_toward_low_ranks(self):
        table = FlowTable(num_flows=64, zipf_s=1.2)
        rng = random.Random(1)
        picks = [table.pick_flow(rng) for _ in range(4000)]
        assert picks.count(0) > picks.count(63)

    def test_split_partitions_all_flows(self):
        table = FlowTable(num_flows=50)
        buckets = table.split(4)
        assert sum(len(b) for b in buckets) == 50
        assert sorted(f for b in buckets for f in b) == list(range(50))

    def test_flow_lookup(self):
        table = FlowTable(num_flows=5)
        assert isinstance(table.flow(2), FiveTuple)

    def test_tuples_are_built_on_first_use(self):
        table = FlowTable(num_flows=17)
        assert len(table) == 17
        assert "flows" not in vars(table)
        rng = random.Random(1)
        [table.pick_flow(rng) for _ in range(10)]
        assert "flows" not in vars(table)
        assert table.flow(3) is table.flows[3]
        assert len(table.flows) == 17

    def test_tuples_and_split_are_pinned(self):
        # CRC32s captured when the table still built its tuples eagerly.
        table = FlowTable(seed=7)
        assert zlib.crc32(repr(table.flows).encode()) == 1673811619
        assert zlib.crc32(repr(FlowTable(seed=7).split(4)).encode()) \
            == 4155779575
