"""``CheckpointStore.put`` keeps each agent's newest checkpoint.

Escrow checkpoints can arrive in any order (a slow push from an old hop
may land after a newer one).  Whatever the delivery order, with
repeats, the store holds the checkpoint with the highest ``seq`` for
each agent.  Checkpoints that share a ``seq`` but differ in content stay
in the generator: of those, the first one delivered wins.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server.journal import CheckpointStore

AGENTS = ["urn:agent:umn.edu/a0", "urn:agent:umn.edu/a1"]

# (agent, image, location, seq); the store never looks inside an image.
checkpoints = st.tuples(
    st.sampled_from(AGENTS),
    st.sampled_from(["image-a", "image-b"]),
    st.sampled_from(["urn:server:x/s0", "urn:server:x/s1"]),
    st.tuples(
        st.integers(min_value=0, max_value=3), st.sampled_from([0.0, 1.5])
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    sent=st.lists(checkpoints, min_size=1, max_size=8),
    data=st.data(),
)
def test_highest_seq_survives_any_delivery_order(sent, data):
    repeats = data.draw(st.lists(st.sampled_from(sent), max_size=len(sent)))
    order = data.draw(st.permutations(sent + repeats))
    store = CheckpointStore()
    for now, (agent, image, location, seq) in enumerate(order):
        store.put(agent, image, location, seq, float(now))
    assert len(store) == len({c[0] for c in sent})
    for agent in {c[0] for c in sent}:
        newest = max(c[3] for c in sent if c[0] == agent)
        first = next(c for c in order if c[0] == agent and c[3] == newest)
        held = store.get(agent)
        assert held.seq == newest
        assert (held.agent, held.image, held.location, held.seq) == first
