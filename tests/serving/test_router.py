"""Property-based tests for the consistent-hash router.

The routing layer is only trustworthy if its lookup behaviour holds as an
invariant, not just on a happy path, so hypothesis drives the ring through
arbitrary shard sets, seeds and key populations:

* totality/determinism — every key maps to exactly one live shard, and the
  mapping is a pure function of (shards, virtual_nodes, seed);
* balance — with >= 64 virtual nodes per shard, no shard's slice of the
  hash space (and hence its expected key share) exceeds a constant factor
  of the fair share;
* minimal remapping — removing one shard remaps only the keys that shard
  owned; everyone else's assignment is untouched (the property that keeps
  the surviving shards' caches warm through a resize).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serving.fleet import ConsistentHashRouter

_SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

ring_params = st.fixed_dictionaries(
    {
        "num_shards": st.integers(min_value=2, max_value=8),
        "virtual_nodes": st.sampled_from([64, 96, 128]),
        "seed": st.integers(min_value=0, max_value=1000),
    }
)


def make_router(params) -> ConsistentHashRouter:
    return ConsistentHashRouter(
        range(params["num_shards"]),
        virtual_nodes=params["virtual_nodes"],
        seed=params["seed"],
    )


class TestTotality:
    @given(ring_params, st.lists(st.text(min_size=1), min_size=1, max_size=50))
    @settings(**_SETTINGS)
    def test_every_key_maps_to_exactly_one_live_shard(self, params, keys):
        router = make_router(params)
        live = set(router.shard_ids)
        for key in keys:
            shard = router.route(key)
            assert shard in live
            # Routing is deterministic: repeat calls and a freshly built
            # identical ring agree.
            assert router.route(key) == shard
            assert make_router(params).route(key) == shard

    def test_route_on_empty_ring_raises(self):
        router = ConsistentHashRouter([])
        with pytest.raises(ValueError, match="empty ring"):
            router.route("img0")

    def test_duplicate_and_unknown_shards_raise(self):
        router = ConsistentHashRouter([0, 1])
        with pytest.raises(ValueError, match="already on the ring"):
            router.add_shard(1)
        with pytest.raises(ValueError, match="not on the ring"):
            router.remove_shard(9)

    def test_invalid_virtual_nodes_raise(self):
        with pytest.raises(ValueError, match="virtual_nodes"):
            ConsistentHashRouter([0], virtual_nodes=0)


class TestBalance:
    @given(ring_params)
    @settings(**_SETTINGS)
    def test_shares_cover_the_whole_hash_space(self, params):
        router = make_router(params)
        shares = router.shard_shares()
        assert set(shares) == set(range(params["num_shards"]))
        assert sum(shares.values()) == pytest.approx(1.0)
        assert all(share > 0 for share in shares.values())

    @given(ring_params)
    @settings(**_SETTINGS)
    def test_ring_balance_is_bounded_with_64_plus_virtual_nodes(self, params):
        router = make_router(params)
        fair = 1.0 / params["num_shards"]
        for share in router.shard_shares().values():
            # With >= 64 vnodes per shard the arc-length concentration keeps
            # every shard within ~2x of fair in practice; 2.5x is the
            # enforced envelope.
            assert share <= 2.5 * fair
            assert share >= fair / 4.0


class TestMinimalRemapping:
    @given(
        ring_params,
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=7),
    )
    @settings(**_SETTINGS)
    def test_removing_one_shard_remaps_only_its_keys(self, params, key_seed, victim_index):
        router = make_router(params)
        victim = router.shard_ids[victim_index % router.num_shards]
        keys = [f"key-{key_seed}-{i}" for i in range(256)]
        before = {key: router.route(key) for key in keys}

        router.remove_shard(victim)
        after = {key: router.route(key) for key in keys}

        for key in keys:
            if before[key] == victim:
                assert after[key] != victim  # remapped somewhere live
            else:
                assert after[key] == before[key]  # untouched

    @given(ring_params)
    @settings(**_SETTINGS)
    def test_add_then_remove_restores_the_original_mapping(self, params):
        router = make_router(params)
        keys = [f"img{i}" for i in range(128)]
        before = {key: router.route(key) for key in keys}
        new_shard = params["num_shards"]  # an id not yet on the ring

        router.add_shard(new_shard)
        during = {key: router.route(key) for key in keys}
        # Adding a shard only steals keys for the new shard.
        for key in keys:
            assert during[key] == before[key] or during[key] == new_shard

        router.remove_shard(new_shard)
        assert {key: router.route(key) for key in keys} == before


replica_params = st.fixed_dictionaries(
    {
        "num_shards": st.integers(min_value=2, max_value=8),
        "replicas": st.integers(min_value=1, max_value=3),
        "virtual_nodes": st.sampled_from([64, 96]),
        "seed": st.integers(min_value=0, max_value=1000),
    }
)


def make_replica_router(params) -> ConsistentHashRouter:
    return ConsistentHashRouter(
        range(params["num_shards"]),
        replicas=params["replicas"],
        virtual_nodes=params["virtual_nodes"],
        seed=params["seed"],
    )


class TestReplicaRouter:
    @given(replica_params, st.lists(st.text(min_size=1), min_size=1, max_size=30))
    @settings(**_SETTINGS)
    def test_replica_sets_are_distinct_live_shards_led_by_the_primary(
        self, params, keys
    ):
        router = make_replica_router(params)
        live = set(router.shard_ids)
        expected_size = min(params["replicas"], params["num_shards"])
        for key in keys:
            group = router.replica_set(key)
            assert len(group) == expected_size
            assert len(set(group)) == len(group)  # distinct members
            assert set(group) <= live
            assert group[0] == router.route(key)  # primary == ring answer

    @given(
        replica_params,
        st.lists(st.text(min_size=1), min_size=1, max_size=20),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(**_SETTINGS)
    def test_route_request_is_a_deterministic_member_of_the_replica_set(
        self, params, keys, request_id
    ):
        router = make_replica_router(params)
        for key in keys:
            shard = router.route_request(key, request_id)
            assert shard in router.replica_set(key)
            assert router.route_request(key, request_id) == shard
            assert make_replica_router(params).route_request(key, request_id) == shard

    @given(replica_params)
    @settings(**_SETTINGS)
    def test_single_replica_degenerates_to_the_plain_ring(self, params):
        router = ConsistentHashRouter(
            range(params["num_shards"]),
            replicas=1,
            virtual_nodes=params["virtual_nodes"],
            seed=params["seed"],
        )
        ring = ConsistentHashRouter(
            range(params["num_shards"]),
            virtual_nodes=params["virtual_nodes"],
            seed=params["seed"],
        )
        for index in range(64):
            key = f"img{index}"
            assert router.route(key) == ring.route(key)
            assert router.route_request(key, index) == ring.route(key)
            assert router.replica_set(key) == [ring.route(key)]

    @given(replica_params, st.integers(min_value=0, max_value=7))
    @settings(**_SETTINGS)
    def test_removing_one_shard_only_disturbs_sets_that_held_it(
        self, params, victim_index
    ):
        router = make_replica_router(params)
        victim = router.shard_ids[victim_index % router.num_shards]
        keys = [f"key-{i}" for i in range(128)]
        before = {key: router.replica_set(key) for key in keys}

        router.remove_shard(victim)
        after = {key: router.replica_set(key) for key in keys}

        for key in keys:
            if victim in before[key]:
                assert victim not in after[key]
                # Surviving members keep their relative ring order.
                survivors = [shard for shard in before[key] if shard != victim]
                assert after[key][: len(survivors)] == survivors
            elif router.num_shards >= params["replicas"]:
                assert after[key] == before[key]  # untouched (minimal remap)

    def test_route_request_on_empty_ring_raises(self):
        router = ConsistentHashRouter([0], replicas=2)
        router.remove_shard(0)
        with pytest.raises(ValueError, match="empty ring"):
            router.route_request("img0", 1)

    def test_invalid_replicas_raise(self):
        with pytest.raises(ValueError, match="replicas"):
            ConsistentHashRouter([0, 1], replicas=0)
