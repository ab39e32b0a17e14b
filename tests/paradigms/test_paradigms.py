"""Tests for RPC, REV and the three-way search workload."""

from __future__ import annotations

import pytest

from repro.credentials.rights import Rights
from repro.errors import NetworkError
from repro.paradigms.rev import RevClient, RevService
from repro.paradigms.rpc import RpcClient, RpcService
from repro.paradigms.workload import (
    STRATEGIES,
    build_search_world,
    run_search,
)
from repro.server.testbed import Testbed
from repro.sim.threads import SimThread


def run_client(bed, fn):
    thread = SimThread(bed.kernel, fn, "client", on_error="store")
    thread.start()
    bed.run()
    if thread.exception is not None:
        raise thread.exception
    return thread.result


class TestRpc:
    def test_call_roundtrip(self):
        bed = Testbed(2)
        service = RpcService(bed.servers[1])
        service.register("add", lambda a, b: a + b)
        client = RpcClient(bed.home)
        result = run_client(bed, lambda: client.call(bed.servers[1].name, "add", 2, 3))
        assert result == 5

    def test_unknown_procedure(self):
        bed = Testbed(2)
        RpcService(bed.servers[1])
        client = RpcClient(bed.home)
        with pytest.raises(NetworkError, match="no procedure"):
            run_client(bed, lambda: client.call(bed.servers[1].name, "ghost"))

    def test_procedure_exception_reported(self):
        bed = Testbed(2)
        service = RpcService(bed.servers[1])

        def explode():
            raise ValueError("boom")

        service.register("explode", explode)
        client = RpcClient(bed.home)
        with pytest.raises(NetworkError, match="boom"):
            run_client(bed, lambda: client.call(bed.servers[1].name, "explode"))

    def test_duplicate_registration(self):
        bed = Testbed(1)
        service = RpcService(bed.home)
        service.register("f", lambda: 1)
        with pytest.raises(NetworkError):
            service.register("f", lambda: 2)


class TestRev:
    SQUARE = "def compute(x):\n    return x * x\n"

    def test_evaluate_roundtrip(self):
        bed = Testbed(2)
        RevService(bed.servers[1], exports={})
        client = RevClient(bed.home)
        result = run_client(
            bed,
            lambda: client.evaluate(bed.servers[1].name, self.SQUARE, "compute", 7),
        )
        assert result == 49

    def test_exports_visible_to_shipped_code(self):
        bed = Testbed(2)
        RevService(bed.servers[1], exports={"lookup": {"a": 1}.get})
        client = RevClient(bed.home)
        src = "def fetch(k):\n    return lookup(k)\n"
        result = run_client(
            bed, lambda: client.evaluate(bed.servers[1].name, src, "fetch", "a")
        )
        assert result == 1

    def test_malicious_code_rejected(self):
        bed = Testbed(2)
        RevService(bed.servers[1], exports={})
        client = RevClient(bed.home)
        with pytest.raises(NetworkError, match="import of 'os'"):
            run_client(
                bed,
                lambda: client.evaluate(
                    bed.servers[1].name, "import os\ndef f():\n    pass\n", "f"
                ),
            )

    def test_shipped_code_exception_contained(self):
        bed = Testbed(2)
        RevService(bed.servers[1], exports={})
        client = RevClient(bed.home)
        src = "def f():\n    return 1 // 0\n"
        with pytest.raises(NetworkError, match="evaluation raised"):
            run_client(
                bed, lambda: client.evaluate(bed.servers[1].name, src, "f")
            )

    def test_repeated_source_verified_once_with_fresh_globals(self):
        bed = Testbed(2)
        service = RevService(bed.servers[1], exports={})
        client = RevClient(bed.home)
        src = "SEEN = []\ndef f(x):\n    SEEN.append(x)\n    return len(SEEN)\n"
        for arg in (1, 2, 3):
            result = run_client(
                bed, lambda a=arg: client.evaluate(bed.servers[1].name, src, "f", a)
            )
            assert result == 1  # each request runs in its own globals
        assert service.code_cache.stats() == {"hits": 2, "misses": 1, "size": 1}

    def test_each_evaluation_isolated(self):
        bed = Testbed(2)
        RevService(bed.servers[1], exports={})
        client = RevClient(bed.home)
        run_client(
            bed,
            lambda: client.evaluate(
                bed.servers[1].name, "STATE = 'left behind'\ndef f():\n    return STATE\n", "f"
            ),
        )
        with pytest.raises(NetworkError):
            run_client(
                bed,
                lambda: client.evaluate(
                    bed.servers[1].name, "def g():\n    return STATE\n", "g"
                ),
            )


class TestSearchWorkload:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_all_strategies_agree(self, strategy):
        result = run_search(
            strategy, n_servers=3, records_per_server=40,
            selectivity=0.25, blob_size=100, seed=11,
        )
        assert result.answer["count"] == 30
        assert result.answer["min_price"] > 0
        assert result.makespan > 0
        assert result.total_bytes > 0

    def test_expected_shape_agent_saves_client_bytes(self):
        """Harrison et al.'s claim, at a heavy-data operating point."""
        kw = dict(n_servers=5, records_per_server=100, selectivity=0.5,
                  blob_size=400, seed=3)
        rpc = run_search("rpc", **kw)
        agent = run_search("agent", **kw)
        assert agent.client_link_bytes < rpc.client_link_bytes
        assert agent.total_bytes < rpc.total_bytes

    def test_rpc_wins_when_data_is_tiny(self):
        """Crossover: almost nothing matches, records are tiny — shipping
        code (REV/agent) costs more than just asking."""
        kw = dict(n_servers=2, records_per_server=10, selectivity=0.1,
                  blob_size=4, seed=3)
        rpc = run_search("rpc", **kw)
        agent = run_search("agent", **kw)
        assert rpc.total_bytes < agent.total_bytes

    def test_ground_truth_matches_brute_force(self):
        world = build_search_world(
            n_servers=2, records_per_server=30, selectivity=0.2, blob_size=10
        )
        prices = []
        for server in world.data_servers:
            from repro.naming.urn import URN

            store = server.registry.lookup(URN.parse(world.stores[server.name]))
            prices += [v["price"] for _k, v in store.query("hot-*")]
        assert world.expected == {
            "min_price": min(prices),
            "count": len(prices),
        }
