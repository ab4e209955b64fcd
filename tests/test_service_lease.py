"""The session-lease protocol (repro.service.lease) on its own.

Every daemon here is a :class:`SessionLeases` over its own state
directory, and the shard fleet is a dict behind ``put``/``fresh_get``:
no sockets, no compiles, no :class:`CompileService`.  The property
test drives claims from several daemons in a drawn order and checks
the fencing invariant — at most one daemon may keep building on a
session, and an epoch once published is never claimed again.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ServiceError
from repro.resilience.journal import journal_path
from repro.service.lease import SessionLeases

DAEMONS = ("daemon-a", "daemon-b", "daemon-c")


class DictFleet:
    """The two calls the protocol makes on a shard fleet, over a dict
    (values round-trip through JSON, as they do on the wire)."""

    def __init__(self):
        self.data = {}

    def put(self, key, value):
        self.data[key] = json.loads(json.dumps(value))

    def fresh_get(self, key):
        value = self.data.get(key)
        return None if value is None else json.loads(json.dumps(value))


def _passes(leases, lease) -> bool:
    try:
        leases.check(lease)
    except ServiceError as exc:
        assert exc.kind == "fenced"
        return False
    return True


def _daemons(root, fleet, notes=None):
    return {name: SessionLeases(Path(root) / name, fleet, name,
                                notes.append if notes is not None
                                else None)
            for name in DAEMONS}


@settings(max_examples=300, deadline=None)
@given(rounds=st.lists(
           st.tuples(st.lists(st.sampled_from(DAEMONS), min_size=1,
                              max_size=8),
                     st.sets(st.sampled_from(DAEMONS))),
           min_size=1, max_size=3),
       data=st.data())
def test_at_most_one_owner_per_session(rounds, data):
    """Each round, some daemons open the session — every claim reads
    the fleet before any is saved — then the claims are saved in a
    drawn order and some daemons release their latest lease."""
    with tempfile.TemporaryDirectory() as root:
        daemons = _daemons(root, DictFleet())
        latest = {}
        published_epochs = set()
        for opens, releasing in rounds:
            claims = [(name, daemons[name].open("dev")[0])
                      for name in opens]
            for _, lease in claims:
                assert lease.epoch not in published_epochs, \
                    f"epoch {lease.epoch} claimed again"
            latest.update(claims)
            for name, lease in data.draw(st.permutations(claims)):
                daemons[name].save(lease, "idle")
                published_epochs.add(lease.epoch)
            for name in sorted(releasing & set(latest)):
                daemons[name].release(latest.pop(name))
            owners = [name for name, lease in latest.items()
                      if _passes(daemons[name], lease)]
            assert len(owners) <= 1, owners


def test_equal_epochs_fence_all_but_the_last_publisher(tmp_path):
    daemons = _daemons(tmp_path, DictFleet())
    a, _ = daemons["daemon-a"].open("dev")
    b, _ = daemons["daemon-b"].open("dev")
    assert a.epoch == b.epoch == 1
    daemons["daemon-a"].save(a, "idle")
    daemons["daemon-b"].save(b, "idle")
    assert _passes(daemons["daemon-b"], b)
    with pytest.raises(ServiceError, match="adopted by daemon-b at epoch "
                                           r"1 \(ours: 1\); lease fenced"):
        daemons["daemon-a"].check(a)


def test_release_never_overwrites_a_later_claim(tmp_path):
    fleet = DictFleet()
    daemons = _daemons(tmp_path, fleet)
    a, _ = daemons["daemon-a"].open("dev")
    daemons["daemon-a"].save(a, "idle")
    b, _ = daemons["daemon-b"].open("dev")
    daemons["daemon-b"].save(b, "active")
    assert b.epoch == 2

    daemons["daemon-a"].release(a)
    local = json.loads((a.directory / "lease.json").read_text())
    assert (local["owner"], local["status"]) == ("daemon-a", "released")
    peer = daemons["daemon-c"].published("dev")["lease"]
    assert (peer["owner"], peer["epoch"], peer["status"]) == \
        ("daemon-b", 2, "active")
    c, _ = daemons["daemon-c"].open("dev")
    assert c.epoch == 3

    # The current owner's release is published, for a peer to adopt.
    daemons["daemon-b"].release(b)
    assert daemons["daemon-c"].published("dev")["lease"]["status"] == \
        "released"


def test_published_interrupted_journal_resumes_on_fresh_state_dir(
        tmp_path):
    notes = []
    daemons = _daemons(tmp_path, DictFleet(), notes)
    a, resume = daemons["daemon-a"].open("dev", tenant="alice")
    assert not resume
    daemons["daemon-a"].save(a, "active")
    # What a daemon killed mid-build leaves: a build-begin with no
    # build-end, published by the journal's append hook.
    journal_path(a.directory).write_text(
        json.dumps({"t": "build-begin"}) + "\n")
    daemons["daemon-a"].publish(a)

    b, resume = daemons["daemon-b"].open("dev", tenant="alice")
    assert resume
    assert b.epoch == 2
    assert journal_path(b.directory).read_text() == \
        journal_path(a.directory).read_text()
    assert "session 'dev': adopted from daemon-a (epoch 1)" in notes
    assert "session 'dev': resuming interrupted build from its " \
        "journal" in notes
    assert daemons["daemon-b"].interrupted() == ["dev"]


def test_no_fleet_means_nothing_is_published(tmp_path):
    leases = SessionLeases(tmp_path, None, "daemon-a")
    lease, resume = leases.open("dev", tenant="alice")
    assert not resume
    leases.save(lease, "idle")
    leases.check(lease)
    leases.release(lease)
    assert leases.published("dev") is None
    record = json.loads((tmp_path / "sessions" / "dev" /
                         "lease.json").read_text())
    assert (record["tenant"], record["status"], record["owner"],
            record["epoch"]) == ("alice", "released", "daemon-a", 1)

    # Without a state dir there is nothing to publish either.
    fleet = DictFleet()
    memory = SessionLeases(None, fleet, "daemon-a")
    lease, _ = memory.open("dev")
    assert lease.directory is None
    memory.save(lease, "active")
    memory.release(lease)
    assert fleet.data == {}
    assert memory.interrupted() == []
