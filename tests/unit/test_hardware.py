"""Unit tests for the DLB/PCB hardware model (Fig. 7 / Section IV-C)."""

from repro.core.dependency_graph import BipartiteGraph
from repro.core.hardware import DependencyHardware, HardwareConfig


class TestHardwareConfig:
    def test_default_entries(self):
        cfg = HardwareConfig()
        assert cfg.dlb_entries == 28 * 32
        assert cfg.pcb_entries == 28 * 32

    def test_degree_threshold_from_counter_bits(self):
        assert HardwareConfig().degree_threshold == 64
        assert HardwareConfig(counter_bits=5).degree_threshold == 32

    def test_entry_bit_widths(self):
        cfg = HardwareConfig()
        # 32b TB id + 2b kernel tag + 4 x 32b child ids
        assert cfg.dlb_entry_bits == 32 + 2 + 4 * 32
        assert cfg.pcb_entry_bits == 32 + 2 + 6

    def test_total_storage_near_paper_22kb(self):
        total = HardwareConfig().total_storage_bytes
        # the paper reports "about 22KB"
        assert 18 * 1024 < total < 26 * 1024


class TestPairTraffic:
    def setup_method(self):
        self.hw = DependencyHardware()

    def test_independent_no_traffic(self):
        t = self.hw.pair_traffic(BipartiteGraph.independent(32, 32))
        assert t.total == 0

    def test_fully_connected_single_request(self):
        t = self.hw.pair_traffic(BipartiteGraph.fully_connected(512, 512))
        assert t.total == 1

    def test_one_to_one_per_parent_requests(self):
        g = BipartiteGraph.explicit(32, 32, [[p] for p in range(32)])
        t = self.hw.pair_traffic(g)
        # 4B list per parent: one 128B line request each
        assert t.list_fetch_requests == 32
        assert t.counter_requests == 2  # 32 counters in one line, r+w

    def test_wide_lists_cost_more_lines(self):
        wide = BipartiteGraph.explicit(1, 256, [list(range(256))])
        t = self.hw.pair_traffic(wide)
        # fully-connected canonicalization may kick in; bypass via kind
        if wide.is_fully_connected:
            assert t.total == 1
        else:
            assert t.list_fetch_requests == 8  # 1024B / 128B

    def test_childless_parents_free(self):
        g = BipartiteGraph.explicit(4, 4, [[0], [], [], []])
        t = self.hw.pair_traffic(g)
        assert t.list_fetch_requests == 1

    def test_counter_requests_scale_with_children(self):
        many = BipartiteGraph.explicit(
            300, 300, [[p] for p in range(300)]
        )
        t = self.hw.pair_traffic(many)
        assert t.counter_requests == 2 * 3  # ceil(300/128) lines, r+w


class TestBufferModel:
    def test_dlb_entries_for_degree(self):
        hw = DependencyHardware()
        assert hw.dlb_entries_for(0) == 1
        assert hw.dlb_entries_for(4) == 1
        assert hw.dlb_entries_for(5) == 2
        assert hw.dlb_entries_for(9) == 3
