import numpy as np
import pytest

from hubnet.archive import ArchiveEntry, GridArchive
from hubnet.fronts import dominates


def rng():
    return np.random.default_rng(0)


def add(archive, triple, r=None, tag=None):
    return archive.add(tuple(map(float, triple)), np.zeros(2), tag, r or rng())


def test_validation():
    with pytest.raises(ValueError):
        GridArchive(capacity=0)
    with pytest.raises(ValueError):
        GridArchive(capacity=5, divisions=0)


def test_add_rejects_dominated_and_duplicates():
    a = GridArchive(capacity=10)
    assert add(a, (1, 1, 1))
    assert not add(a, (1, 1, 1))          # duplicate
    assert not add(a, (2, 1, 1))          # dominated
    assert not add(a, (np.inf, 1, 1))     # nonfinite
    assert add(a, (0, 2, 2))              # incomparable
    assert len(a) == 2


def test_add_evicts_newly_dominated():
    a = GridArchive(capacity=10)
    add(a, (2, 2, 2))
    add(a, (3, 1, 3))
    assert add(a, (1, 1, 1))              # dominates both
    assert [e.objectives for e in a.entries] == [(1.0, 1.0, 1.0)]


def test_entries_keep_their_own_copies_of_what_was_offered():
    # the swarms offer views into population arrays they overwrite next
    # iteration; an entry must not change with them
    objs = np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 3.0], [3.0, 3.0, 3.0]])
    X = np.arange(6.0).reshape(3, 2)
    A = np.arange(9).reshape(3, 3)
    M = np.eye(3, dtype=bool)[None].repeat(3, axis=0)
    a = GridArchive(capacity=10)
    assert a.feed(objs, X, [(A[r], M[r]) for r in range(3)], rng()) == [True, True, False]
    X[...], A[...], M[...] = -1.0, -1, False
    assert [e.vector.tolist() for e in a.entries] == [[0.0, 1.0], [2.0, 3.0]]
    assert [e.payload[0].tolist() for e in a.entries] == [[0, 1, 2], [3, 4, 5]]
    assert all(np.array_equal(e.payload[1], np.eye(3, dtype=bool)) for e in a.entries)


def test_capacity_bound_holds():
    a = GridArchive(capacity=5, divisions=3)
    r = rng()
    for k in range(25):
        a.add((float(k), float(24 - k), 1.0), np.zeros(1), None, r)
        assert len(a) <= 5


def test_eviction_prefers_crowded_cell():
    # four points packed into one corner, one alone at the far end; the
    # loner must survive an eviction
    a = GridArchive(capacity=4, divisions=4)
    r = rng()
    a.add((0.0, 100.0, 0.0), np.zeros(1), "loner", r)
    for k in range(4):
        a.add((100.0 - k, float(k), 0.0), np.zeros(1), f"pack{k}", r)
    assert len(a) == 4
    assert any(e.payload == "loner" for e in a.entries)


def test_select_leader():
    a = GridArchive(capacity=8)
    assert a.select_leader(rng()) is None
    add(a, (1, 5, 1), tag="x")
    assert a.select_leader(rng()).payload == "x"
    add(a, (5, 1, 1), tag="y")
    seen = {a.select_leader(np.random.default_rng(s)).payload for s in range(20)}
    assert seen == {"x", "y"}


def test_leader_draws_are_reproducible():
    a = GridArchive(capacity=8)
    for k in range(5):
        add(a, (k, 4 - k, 0), tag=k)
    picks1 = [a.select_leader(np.random.default_rng(9)).payload for _ in range(1)]
    picks2 = [a.select_leader(np.random.default_rng(9)).payload for _ in range(1)]
    assert picks1 == picks2


def test_entries_given_at_construction_take_part():
    first = ArchiveEntry((1.0, 5.0, 1.0), np.zeros(2), "first")
    second = ArchiveEntry((5.0, 1.0, 1.0), np.zeros(2), "second")
    a = GridArchive(capacity=3, entries=[first, second])
    assert not add(a, (2, 6, 1))          # dominated by a given entry
    assert not add(a, (5, 1, 1))          # duplicate of a given entry
    assert add(a, (0, 5, 1), tag="third")  # dominates the first
    assert [e.payload for e in a.entries] == ["second", "third"]
    r = rng()
    assert {a.select_leader(r).payload for _ in range(30)} == {"second", "third"}
    assert add(a, (3, 3, 0), tag="fourth")
    assert add(a, (4, 2, 0.5), tag="fifth")  # one over capacity: an eviction
    assert len(a) == 3
    assert a.select_leader(r).payload in {e.payload for e in a.entries}


class ListArchive:
    """The archive as a plain list, one ``dominates`` call per entry and the
    leader roulette re-priced on every pick."""

    def __init__(self, capacity, divisions):
        self.capacity, self.divisions, self.entries = capacity, divisions, []
        self.evictions = 0

    def add(self, objectives, vector, payload, rng):
        if not all(np.isfinite(objectives)):
            return False
        for e in self.entries:
            if e.objectives == tuple(objectives) or dominates(e.objectives, objectives):
                return False
        self.entries = [e for e in self.entries if not dominates(objectives, e.objectives)]
        entry = ArchiveEntry(tuple(float(z) for z in objectives), np.array(vector), payload)
        self.entries.append(entry)
        if len(self.entries) > self.capacity:
            counts = self._cell_members()
            worst_key = min(counts, key=lambda k: (-len(counts[k]), k))
            members = counts[worst_key]
            del self.entries[members[int(rng.integers(len(members)))]]
            self.evictions += 1
            return any(e is entry for e in self.entries)
        return True

    def _cell_members(self):
        rows = np.array([e.objectives for e in self.entries])
        lo, hi = rows.min(axis=0), rows.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        idx = np.minimum(np.floor((rows - lo) / span * self.divisions).astype(int),
                         self.divisions - 1)
        members = {}
        for pos, row in enumerate(idx):
            members.setdefault(tuple(int(v) for v in row), []).append(pos)
        return members

    def select_leader(self, rng):
        if not self.entries:
            return None
        counts = self._cell_members()
        keys = sorted(counts)
        weights = np.array([1.0 / len(counts[k]) for k in keys])
        r = rng.random() * weights.sum()
        acc = 0.0
        chosen = keys[-1]
        for k, w in zip(keys, weights):
            acc += w
            if r < acc:
                chosen = k
                break
        members = counts[chosen]
        return self.entries[members[int(rng.integers(len(members)))]]


@pytest.mark.parametrize("capacity, divisions", [(6, 3), (12, 7), (40, 4)])
def test_archive_matches_the_list_reference(capacity, divisions):
    offers = np.random.default_rng(capacity)
    mine, ref = GridArchive(capacity, divisions), ListArchive(capacity, divisions)
    r_mine, r_ref = np.random.default_rng(5), np.random.default_rng(5)
    picks = accepted = 0
    for step in range(400):
        # coarse integer objectives on a tradeoff plane give duplicates, ties
        # on single objectives and many incomparable offers
        z1, z2 = offers.integers(0, 12, size=2)
        triple = (float(z1), float(z2), float(max(0, 20 - z1 - z2) + offers.integers(0, 3)))
        if step % 37 == 0:
            triple = (np.inf, 0.0, 0.0)
        got = mine.add(triple, np.zeros(1), step, r_mine)
        assert got == ref.add(triple, np.zeros(1), step, r_ref)
        accepted += got
        assert [(e.objectives, e.payload) for e in mine.entries] == \
            [(e.objectives, e.payload) for e in ref.entries]
        for _ in range(step % 4):
            assert mine.select_leader(r_mine).payload == ref.select_leader(r_ref).payload
            picks += 1
    assert r_mine.random() == r_ref.random()
    assert picks > 500 and accepted > 40 and ref.evictions > 20


@pytest.mark.parametrize("u", [0.5, 1.0])
def test_a_draw_on_a_running_sum_takes_the_next_cell(u):
    # two one-member cells: a draw of half the total lands exactly on the
    # first running sum, which the walk's strict ``r < acc`` passes by; one
    # of the whole total passes every sum and falls back to the last cell
    class Fixed:
        def random(self):
            return u

        def integers(self, k):
            return 0

    mine, ref = GridArchive(4), ListArchive(4, 7)
    for archive in (mine, ref):
        archive.add((0.0, 1.0, 0.0), np.zeros(1), "a", Fixed())
        archive.add((1.0, 0.0, 0.0), np.zeros(1), "b", Fixed())
    assert mine.select_leader(Fixed()).payload == ref.select_leader(Fixed()).payload == "b"


def _coarse_offers(gen, count):
    # integer objectives on a tradeoff plane: duplicates, ties on single
    # objectives and many incomparable offers; now and then an inf row
    z1, z2 = gen.integers(0, 12, size=(2, count))
    rows = np.stack([z1, z2, np.maximum(0, 20 - z1 - z2) + gen.integers(0, 3, size=count)],
                    axis=1).astype(float)
    rows[gen.random(count) < 0.08, gen.integers(0, 3)] = np.inf
    return rows


def _feed_both(mine, ref, rows, tags, r_mine, r_ref):
    vectors = np.zeros((len(rows), 1))
    calls = []
    add = mine.add

    def counted_add(*args):
        calls.append(args)
        return add(*args)

    mine.add = counted_add     # ``feed`` reaches ``add`` through the instance
    try:
        got = mine.feed(rows, vectors, tags, r_mine)
    finally:
        del mine.add
    want = [ref.add(tuple(row), v, tag, r_ref) for row, v, tag in zip(rows.tolist(), vectors, tags)]
    assert got == want
    assert [(e.objectives, e.payload) for e in mine.entries] == \
        [(e.objectives, e.payload) for e in ref.entries]
    return len(calls)


@pytest.mark.parametrize("capacity, divisions", [(6, 3), (12, 7), (40, 4)])
def test_a_feed_matches_one_add_per_offer(capacity, divisions):
    offers = np.random.default_rng(capacity)
    mine, ref = GridArchive(capacity, divisions), ListArchive(capacity, divisions)
    r_mine, r_ref = np.random.default_rng(5), np.random.default_rng(5)
    skipped = full_starts = evicting_fills = 0
    for feed in range(80):
        # every tenth feed the plane moves down past every entry, so that
        # feed's first finite offer clears the archive and the rest refill it
        rows = _coarse_offers(offers, int(offers.integers(1, 25))) - 30.0 * (feed // 10)
        if feed % 5 == 0:
            rows[1::2] = rows[::2][:len(rows) // 2]     # duplicate offers in one feed
        start, evictions = len(mine), ref.evictions
        calls = _feed_both(mine, ref, rows, [(feed, k) for k in range(len(rows))], r_mine, r_ref)
        skipped += len(rows) - calls
        full_starts += start == capacity
        evicting_fills += start < capacity and ref.evictions > evictions
        for _ in range(feed % 3):
            assert mine.select_leader(r_mine).payload == ref.select_leader(r_ref).payload
    assert r_mine.bit_generator.state == r_ref.bit_generator.state
    assert skipped > 0 and full_starts > 10 and evicting_fills > 3


def test_a_feed_stops_screening_once_an_offer_may_evict():
    # the archive is full; the first offer evicts the entry that covered
    # the second, a copy of it, which must then go through ``add``
    mine, ref = GridArchive(2), ListArchive(2, 7)
    r_mine, r_ref = np.random.default_rng(0), np.random.default_rng(0)
    start = np.array([[0.0, 10.0, 0.0], [10.0, 0.0, 0.0]])
    _feed_both(mine, ref, start, ["a", "b"], r_mine, r_ref)
    rows = np.array([[5.0, 5.0, 0.0], [0.0, 10.0, 0.0], [10.0, 0.0, 1.0]])
    assert _feed_both(mine, ref, rows, ["c", "a2", "b2"], r_mine, r_ref) == 3
    assert "a" not in {e.payload for e in mine.entries}
    assert r_mine.bit_generator.state == r_ref.bit_generator.state
