"""The extent-key grammar and placement resolution (repro.pfs.placement)."""

import pytest

from repro.pfs.filesystem import HybridPFS
from repro.pfs.layout import FixedLayout
from repro.pfs.placement import (
    Placement,
    extent_key,
    extent_namespace,
    parse_extent_key,
    parse_namespace,
)
from repro.simulate.engine import Simulator
from repro.util.units import KiB, MiB


class TestKeyGrammar:
    @pytest.mark.parametrize(
        "key, parsed",
        [
            ("f#g0", ("f#g0", 0, None)),
            ("f#g0~r1", ("f#g0", 1, None)),
            ("f#g3~r2~b5", ("f#g3", 2, 5)),
            ("f#g0~r0~b1", ("f#g0", 0, 1)),
            # A file name may itself look like a key.
            ("ckpt#g0~r1#g0", ("ckpt#g0~r1#g0", 0, None)),
            ("ckpt#g0~r1#g0~r1", ("ckpt#g0~r1#g0", 1, None)),
            ("a~r1~b2#g4~r1~b0", ("a~r1~b2#g4", 1, 0)),
        ],
    )
    def test_parse_inverts_format(self, key, parsed):
        assert parse_extent_key(key) == parsed
        assert extent_key(*parsed) == key

    def test_namespace_round_trip(self):
        assert extent_namespace("ckpt#g0~r1", 7) == "ckpt#g0~r1#g7"
        assert parse_namespace("ckpt#g0~r1#g7") == ("ckpt#g0~r1", 7)
        assert parse_namespace("scratch") is None

    def test_placement_is_its_override_key(self):
        overrides = {("f#g2", 1, 3, 1): 0}
        assert Placement("f#g2", 1, 3, 1) in overrides
        assert Placement("f#g2", 1, 3, 1) == ("f#g2", 1, 3, 1)


class TestResolution:
    def test_mirrors_land_on_the_other_class(self):
        pfs = HybridPFS.build(Simulator(), 2, 2, seed=0)
        home = pfs.placement.natural_home
        assert [home(s, 0) for s in range(4)] == [0, 1, 2, 3]
        assert [home(s, 1) for s in range(4)] == [2, 3, 0, 1]
        assert [home(s, 2) for s in range(4)] == [3, 2, 1, 0]

    def test_override_relocates_under_the_rebuilt_key(self):
        pfs = HybridPFS.build(Simulator(), 2, 2, seed=0)
        resolve = pfs.placement.resolve
        assert resolve("f#g0", 0, 0, 1) == (2, "f#g0~r1")
        pfs.placement.overrides[Placement("f#g0", 0, 0, 1)] = 3
        assert resolve("f#g0", 0, 0, 1) == (3, "f#g0~r1~b0")
        assert resolve("f#g0", 1, 0, 1) == (2, "f#g0~r1")


class TestFreeExtents:
    def _write(self, pfs, name):
        sim = pfs.sim
        handle = pfs.create_file(name, FixedLayout(2, 2, 64 * KiB, replicas=2))
        sim.run(sim.all_of([handle.write(i * 64 * KiB, 64 * KiB) for i in range(16)]))
        assert handle.bytes_written == 1 * MiB

    def test_releases_only_its_own_namespace(self):
        """A file named like another file's mirror key keeps its extents."""
        pfs = HybridPFS.build(Simulator(), 2, 2, seed=0)
        self._write(pfs, "ckpt")
        self._write(pfs, "ckpt#g0~r1")
        own = [key for key in pfs._extent_bases if key[0].startswith("ckpt#g0")]
        other = {
            key: base
            for key, base in pfs._extent_bases.items()
            if key[0].startswith("ckpt#g0~r1#g0")
        }
        assert other
        tags = {key: self._tags(pfs, key, base) for key, base in other.items()}
        assert all(tags.values())
        assert pfs.free_extents("ckpt#g0") == len(own) - len(other)
        assert pfs._extent_bases == other
        assert {key: self._tags(pfs, key, base) for key, base in other.items()} == tags

    @staticmethod
    def _tags(pfs, key, base):
        """Checksum-tagged blocks inside one extent's window."""
        checks = pfs.servers[key[2]].checksums
        return [
            block
            for block in checks.written_blocks()
            if base <= block * checks.block_size < base + pfs.EXTENT_SPACING
        ]


class TestRequestPathAnchor:
    """Which server a sub-request's copies >= 1 are addressed from."""

    def _write_one_unit(self, arm):
        sim = Simulator()
        pfs = HybridPFS.build(sim, 2, 2, seed=0)
        handle = pfs.create_file("f", FixedLayout(2, 2, 64 * KiB, replicas=2))
        arm(pfs)
        sim.run(handle.write(0, 64 * KiB))  # one stripe unit, config server 0
        return pfs, set(pfs._extent_bases)

    def test_without_overrides_copies_follow_the_routed_server(self):
        pfs, keys = self._write_one_unit(lambda pfs: pfs.fail_server(0))
        routed = pfs.health.route(0)
        assert routed != 0
        assert keys == {("f#g0", 0, routed), ("f#g0~r1", 0, pfs.placement.natural_home(routed, 1))}

    def test_with_an_override_copies_follow_the_config_server(self):
        def arm(pfs):
            pfs.placement.overrides[Placement("f#g0", 0, 0, 0)] = 1

        pfs, keys = self._write_one_unit(arm)
        assert keys == {("f#g0~r0~b0", 0, 1), ("f#g0~r1", 0, pfs.placement.natural_home(0, 1))}
        assert pfs.placement.natural_home(0, 1) != pfs.placement.natural_home(1, 1)
