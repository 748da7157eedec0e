"""Spill-order golden for the partition walk buffer.

No benchmark workload overflows a buffer entry, so the order in which
spilled walks leave and come back is pinned here.  Tiny entries
(``pwb_entry_walks`` of 2 and 4) on a four-partition run force a few
thousand spills; the digest covers the run's timing, hop count, every
counter and the completed walks in completion order, which depends on
the order each drain hands walks to the chip.  The digests were
computed before the buffer became a columnar pool and must not be
regenerated for a buffer change.  They were regenerated twice, each
time for one scheduler counter and with no other leaf moved: when the
host-side ``sched_score_cache_hits`` counter left the counters, and when
chips stopped asking for a block with no walks pending, which lowered
``sched_topn_refreshes``.
"""

import hashlib

import numpy as np
import pytest

from repro.common import FlashWalkerConfig, RngRegistry
from repro.core import FlashWalker
from repro.graph import rmat
from repro.walks import WalkSpec

GOLDEN = {
    2: "59c31d4445979c380ccfa6222dfc45ffc3c856c9622278e63c276ce589d6a022",
    4: "5c81f43536223d4ca6e468f3b66f7fae644768d1413570e3dbb70fb5f8e53ec2",
}


@pytest.fixture(scope="module")
def graph():
    return rmat(10, 8, RngRegistry(55).fresh("g"))


def run_digest(res) -> str:
    h = hashlib.sha256()
    head = (
        repr(res.elapsed),
        res.hops,
        tuple((k, repr(v)) for k, v in sorted(res.counters.items())),
    )
    h.update(repr(head).encode())
    for col in (res.finals.src, res.finals.cur, res.finals.hop):
        h.update(np.ascontiguousarray(col, dtype=np.int64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("entry_walks", sorted(GOLDEN))
def test_spill_order_matches_golden(graph, entry_walks):
    cfg = FlashWalkerConfig().replace(
        partition_subgraphs=4,
        board_hot_subgraphs=1,
        channel_hot_subgraphs=0,
        pwb_entry_walks=entry_walks,
    )
    res = FlashWalker(graph, cfg, seed=9).run(
        num_walks=800, spec=WalkSpec(length=5), record_finals=True
    )
    assert res.counters["spilled_walks"] > 2000
    assert len(res.finals) == 800
    assert run_digest(res) == GOLDEN[entry_walks]
