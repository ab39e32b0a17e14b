"""``ShardStore.merge`` is the newest-wins repair path of the directory.

Merging is by version ``(epoch, seq, stamped, token)``: a record replaces
the held one only when strictly newer.  Properties, over record sets
delivered in any order and with repeats:

* every name ends at its highest version, whatever the order;
* records that share a version but differ in content are kept in the
  generator: of those, the first one merged wins (so two orders agree
  exactly unless they deliver such a tie in different orders);
* re-merging anything already merged changes nothing.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.naming.replicated import ShardStore, VersionedRecord
from repro.naming.urn import URN

NAMES = [URN.parse(f"urn:agent:umn.edu/a{i}") for i in range(3)]

records = st.builds(
    VersionedRecord,
    name=st.sampled_from(NAMES),
    location=st.sampled_from(["urn:server:x/s0", "urn:server:x/s1"]),
    attributes=st.sampled_from([{}, {"k": 1}]),
    token=st.sampled_from(["t1", "t2"]),
    epoch=st.integers(min_value=1, max_value=2),
    seq=st.integers(min_value=1, max_value=3),
    tombstone=st.booleans(),
    stamped=st.sampled_from([0.0, 1.0]),
)


def deliveries(draw_records):
    """A record set plus an arbitrary delivery order with repeats."""
    return draw_records.flatmap(
        lambda rs: st.tuples(
            st.just(rs),
            st.lists(st.sampled_from(rs), max_size=len(rs)).flatmap(
                lambda extra: st.permutations(rs + extra)
            ),
        )
    )


def merged(order) -> ShardStore:
    store = ShardStore()
    for record in order:
        store.merge(record)
    return store


def table(store: ShardStore) -> dict:
    return {record.name: record.canonical() for record in store.records()}


@settings(max_examples=150, deadline=None)
@given(delivery=deliveries(st.lists(records, min_size=1, max_size=8)))
def test_merge_keeps_the_newest_whatever_the_order(delivery):
    rs, order = delivery
    store = merged(order)
    assert set(table(store)) == {r.name for r in rs}
    for name in {r.name for r in rs}:
        newest = max(r.version for r in rs if r.name == name)
        held = store.get(name)
        assert held.version == newest
        # Ties on the newest version: the first one delivered wins.
        first = next(r for r in order if r.name == name and r.version == newest)
        assert held is first


@settings(max_examples=150, deadline=None)
@given(
    one=deliveries(st.lists(records, min_size=1, max_size=8)),
    data=st.data(),
)
def test_two_orders_agree_unless_a_tie_is_reordered(one, data):
    rs, order = one
    other = data.draw(st.permutations(order))
    left, right = table(merged(order)), table(merged(other))
    for name in {r.name for r in rs}:
        newest = max(r.version for r in rs if r.name == name)
        tied = {r.canonical() for r in rs if r.name == name and r.version == newest}
        if len(tied) == 1:
            assert left[name] == right[name]
        else:
            assert left[name] in tied and right[name] in tied


@settings(max_examples=150, deadline=None)
@given(
    delivery=deliveries(st.lists(records, min_size=1, max_size=8)),
    data=st.data(),
)
def test_remerging_is_idempotent(delivery, data):
    rs, order = delivery
    store = merged(order)
    before = table(store)
    again = data.draw(st.permutations(rs))
    assert not any(store.merge(record) for record in again)
    assert table(store) == before
