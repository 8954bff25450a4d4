"""Crash-recovery properties of the metadata write-ahead journal.

The property (DESIGN.md §11): recovering from ANY byte prefix of the
journal — a crash at a record boundary, a torn write mid-record, or a
corrupted byte — yields the namespace exactly as it was after some clean
prefix of the journaled mutations. Never a state in between, never a
half-applied mutation, and migrations that began but never committed roll
back to the pre-migration layout.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rst import RegionStripeTable, RSTEntry
from repro.pfs.journal import MetadataJournal, canonical_spec, layout_from_spec, layout_to_spec
from repro.pfs.layout import HybridFixedLayout, RegionLevelLayout
from repro.pfs.mapping import StripingConfig
from repro.pfs.metadata import MetadataServer
from repro.pfs.tiered import MultiClassStripingConfig, TieredFixedLayout
from repro.util.units import KiB, MiB

_RST = RegionStripeTable(
    [
        RSTEntry(0, 0, 4 * MiB, StripingConfig(2, 2, 64 * KiB, 64 * KiB)),
        RSTEntry(1, 4 * MiB, None, StripingConfig(2, 2, 0, 128 * KiB)),
    ]
)

LAYOUTS = [
    HybridFixedLayout(2, 2, 64 * KiB, 64 * KiB),
    HybridFixedLayout(2, 2, 4 * KiB, 128 * KiB),
    HybridFixedLayout(2, 2, 64 * KiB, 64 * KiB, replicas=2),
    RegionLevelLayout(_RST),
    RegionLevelLayout(_RST, replicas={0: 2}),
]

NAMES = ["alpha", "beta", "gamma"]

_OPS = st.lists(
    st.tuples(
        st.sampled_from(["register", "unregister", "relayout", "begin", "commit", "abort"]),
        st.integers(min_value=0, max_value=len(NAMES) - 1),
        st.integers(min_value=0, max_value=len(LAYOUTS) - 1),
    ),
    min_size=1,
    max_size=24,
)


def _apply_sequence(ops):
    """Interpret an abstract op list on a journaled MDS, skipping invalid ops.

    Returns ``(journal, boundaries, states)`` where ``boundaries[i]`` is the
    journal byte length after the i-th applied record and ``states[i]`` the
    namespace snapshot at that moment (index 0 = empty journal).
    """
    mds = MetadataServer()
    journal = mds.enable_journal()
    boundaries = [0]
    states = [mds.namespace_state()]

    def checkpoint():
        boundaries.append(len(journal.data))
        states.append(mds.namespace_state())

    for kind, name_index, layout_index in ops:
        name = NAMES[name_index]
        layout = LAYOUTS[layout_index]
        present = name in mds
        pending = name in mds._pending_migrations
        if kind == "register" and not present:
            mds.register(name, layout)
        elif kind == "unregister" and present:
            mds.unregister(name)
        elif kind == "relayout" and present and not pending:
            # With a migration pending record_relayout is a documented
            # no-op (no journal record), which would make this checkpoint
            # a zero-length interval; treat it as a skipped op instead.
            mds.record_relayout(name, layout, mds.generation_of(name) + 1)
        elif kind == "begin" and present and not pending:
            mds.begin_migration(name, layout, mds.generation_of(name) + 1)
        elif kind == "commit" and pending:
            mds.commit_migration(name)
        elif kind == "abort" and pending:
            mds.abort_migration(name)
        else:
            continue
        checkpoint()
    return journal, boundaries, states


@given(_OPS)
@settings(max_examples=60, deadline=None)
def test_recovery_at_every_record_boundary_is_a_clean_prefix(ops):
    journal, boundaries, states = _apply_sequence(ops)
    for boundary, expected in zip(boundaries, states):
        recovered = MetadataServer.recover(journal.data[:boundary])
        assert recovered.namespace_state() == expected
        assert recovered.last_recovery.torn_bytes == 0


@given(_OPS, st.data())
@settings(max_examples=60, deadline=None)
def test_torn_tail_recovers_to_the_previous_boundary(ops, data):
    journal, boundaries, states = _apply_sequence(ops)
    if len(boundaries) < 2:
        return
    index = data.draw(st.integers(min_value=0, max_value=len(boundaries) - 2), label="record")
    start, end = boundaries[index], boundaries[index + 1]
    cut = data.draw(st.integers(min_value=start + 1, max_value=end - 1), label="cut")
    recovered = MetadataServer.recover(journal.data[:cut])
    assert recovered.namespace_state() == states[index]
    assert recovered.last_recovery.torn_bytes == cut - start


@given(_OPS, st.data())
@settings(max_examples=60, deadline=None)
def test_corrupted_byte_recovers_to_a_clean_prefix(ops, data):
    journal, boundaries, states = _apply_sequence(ops)
    payload = journal.data
    if not payload:
        return
    position = data.draw(st.integers(min_value=0, max_value=len(payload) - 1), label="byte")
    flip = data.draw(st.integers(min_value=1, max_value=255), label="xor")
    mutated = bytearray(payload)
    mutated[position] ^= flip
    recovered = MetadataServer.recover(bytes(mutated))
    # Decoding stops inside the record containing the flipped byte, so the
    # recovered namespace is exactly the state before that record.
    record = next(i for i in range(len(boundaries) - 1) if boundaries[i + 1] > position)
    assert recovered.namespace_state() == states[record]


@given(_OPS)
@settings(max_examples=40, deadline=None)
def test_full_journal_replay_matches_the_live_namespace(ops):
    journal, _, states = _apply_sequence(ops)
    recovered = MetadataServer.recover(journal)
    assert recovered.namespace_state() == states[-1]


class TestMigrationTwoPhase:
    def _mds(self):
        mds = MetadataServer()
        mds.enable_journal()
        mds.register("f", LAYOUTS[0])
        return mds

    def test_crash_between_begin_and_commit_rolls_back(self):
        mds = self._mds()
        before = mds.namespace_state()
        mds.begin_migration("f", LAYOUTS[1], 1)
        recovered = MetadataServer.recover(mds.journal)
        assert recovered.namespace_state() == before
        assert recovered.last_recovery.rolled_back == ["f"]

    def test_crash_after_commit_keeps_the_new_layout(self):
        mds = self._mds()
        mds.begin_migration("f", LAYOUTS[1], 1)
        mds.commit_migration("f")
        recovered = MetadataServer.recover(mds.journal)
        assert recovered.namespace_state() == mds.namespace_state()
        assert recovered.generation_of("f") == 1
        assert recovered.last_recovery.rolled_back == []

    def test_abort_recovers_to_old_layout(self):
        mds = self._mds()
        before = mds.namespace_state()
        mds.begin_migration("f", LAYOUTS[1], 1)
        mds.abort_migration("f")
        recovered = MetadataServer.recover(mds.journal)
        assert recovered.namespace_state() == before
        assert recovered.last_recovery.rolled_back == []

    def test_relayout_is_noop_while_migration_pending(self):
        mds = self._mds()
        mds.begin_migration("f", LAYOUTS[1], 1)
        mds.record_relayout("f", LAYOUTS[1], 1)
        assert mds.generation_of("f") == 0  # still the old generation
        mds.commit_migration("f")
        assert mds.generation_of("f") == 1


_CLUSTER_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["register", "unregister", "relayout", "begin", "commit", "abort", "crash"]
        ),
        st.integers(min_value=0, max_value=len(NAMES) - 1),
        st.integers(min_value=0, max_value=len(LAYOUTS) - 1),
    ),
    min_size=1,
    max_size=32,
)


@given(_CLUSTER_OPS)
@settings(max_examples=60, deadline=None)
def test_cluster_successor_replay_reconstructs_the_exact_namespace(ops):
    """DESIGN §14: after any register/relayout/migrate/crash interleaving,
    journal replay onto ring successors leaves ``namespace_state()`` equal
    to a plain-dict model of the committed mutations.

    A crash drops the victim shard's uncommitted migration intents (they
    roll back, exactly as single-MDS recovery) but never a committed entry.
    """
    from repro.pfs.mds_cluster import MetadataCluster

    cluster = MetadataCluster(4, seed=0)
    model: dict[str, tuple[int, str]] = {}
    pending: dict[str, tuple[int, object]] = {}
    pending_owner: dict[str, int] = {}
    alive = 4

    for kind, name_index, layout_index in ops:
        name = NAMES[name_index]
        layout = LAYOUTS[layout_index]
        if kind == "register" and name not in model:
            cluster.register(name, layout)
            model[name] = (0, canonical_spec(layout))
        elif kind == "unregister" and name in model:
            cluster.unregister(name)
            del model[name]
            pending.pop(name, None)
            pending_owner.pop(name, None)
        elif kind == "relayout" and name in model and name not in pending:
            generation = model[name][0] + 1
            cluster.record_relayout(name, layout, generation)
            model[name] = (generation, canonical_spec(layout))
        elif kind == "begin" and name in model and name not in pending:
            generation = model[name][0] + 1
            cluster.begin_migration(name, layout, generation)
            pending[name] = (generation, layout)
            pending_owner[name] = cluster.shard_of(name)
        elif kind == "commit" and name in pending:
            cluster.commit_migration(name)
            generation, target = pending.pop(name)
            pending_owner.pop(name, None)
            model[name] = (generation, canonical_spec(target))
        elif kind == "abort" and name in pending:
            cluster.abort_migration(name)
            pending.pop(name)
            pending_owner.pop(name, None)
        elif kind == "crash" and alive >= 2:
            victim = cluster.shard_of(name)
            cluster.crash_shard(victim)
            assert cluster.recover_shard(victim) is not None
            alive -= 1
            # Uncommitted intents at the victim rolled back with its
            # in-memory state; everything committed was replayed.
            for lost in [key for key, owner in pending_owner.items() if owner == victim]:
                pending.pop(lost, None)
                pending_owner.pop(lost, None)
        else:
            continue
        assert cluster.namespace_state() == model

    assert cluster.namespace_state() == model
    assert cluster.verify_namespace({key: gen for key, (gen, _) in model.items()}) == 0


class TestJournalFraming:
    def test_layout_specs_round_trip(self):
        for layout in LAYOUTS:
            spec = layout_to_spec(layout)
            assert canonical_spec(layout_from_spec(spec)) == canonical_spec(layout)

    def test_enable_journal_snapshots_existing_namespace(self):
        mds = MetadataServer()
        mds.register("pre", LAYOUTS[0])
        mds.enable_journal()
        recovered = MetadataServer.recover(mds.journal)
        assert recovered.namespace_state() == mds.namespace_state()

    def test_enable_journal_is_idempotent(self):
        mds = MetadataServer()
        journal = mds.enable_journal()
        assert mds.enable_journal() is journal

    def test_decode_rejects_garbage(self):
        records, clean = MetadataJournal.decode(b"\x00" * 64)
        assert records == []
        assert clean == 0

    def test_journal_counters(self):
        mds = MetadataServer()
        journal = mds.enable_journal()
        mds.register("f", LAYOUTS[0])
        counters = journal.counters()
        assert counters["appends"] == 1
        assert counters["bytes"] == len(journal.data)


class TestTieredLayouts:
    """Multi-class layouts journal and recover like the two-class ones."""

    THREE_TIER = MultiClassStripingConfig([(2, 128 * KiB), (2, 64 * KiB), (4, 16 * KiB)])

    def _layouts(self):
        three_class_rst = RegionStripeTable(
            [
                RSTEntry(0, 0, 4 * MiB, self.THREE_TIER),
                RSTEntry(
                    1, 4 * MiB, None, MultiClassStripingConfig([(2, 0), (2, 64 * KiB), (4, 32 * KiB)])
                ),
            ]
        )
        return {
            "tiered": TieredFixedLayout(self.THREE_TIER),
            "region3": RegionLevelLayout(three_class_rst),
        }

    def test_recover_round_trips_tiered_and_three_class_layouts(self):
        mds = MetadataServer()
        mds.enable_journal()
        for name, layout in self._layouts().items():
            mds.register(name, layout)
        recovered = MetadataServer.recover(mds.journal)
        assert recovered.namespace_state() == mds.namespace_state()
        tiered = recovered.lookup("tiered")
        assert isinstance(tiered, TieredFixedLayout)
        assert tiered.config == self.THREE_TIER
        assert recovered.lookup("region3").rst.entries[0].config == self.THREE_TIER

    def test_tiered_pfs_on_a_cluster_creates_tiered_files(self):
        # Every shard journals, so creating a multi-class file used to
        # raise TypeError("cannot journal layout type TieredFixedLayout").
        from repro.devices.ssd import SSDModel
        from repro.network.link import NetworkModel
        from repro.pfs.mds_cluster import MetadataCluster
        from repro.pfs.server import FileServer
        from repro.pfs.tiered import TieredPFS
        from repro.simulate.engine import Simulator

        sim = Simulator()
        net = NetworkModel()
        tiers = [
            [FileServer(sim, SSDModel(seed=c * 10 + i), net, name=f"t{c}.{i}") for i in range(n)]
            for c, n in enumerate(self.THREE_TIER.class_counts)
        ]
        pfs = TieredPFS(sim, tiers, net, mds=MetadataCluster(2))
        handle = pfs.create_file("f", TieredFixedLayout(self.THREE_TIER))
        sim.run(handle.write(0, 1 * MiB))
        assert handle.bytes_written == 1 * MiB
        assert "f" in pfs.mds
