"""Registry mechanics: registration, lookup, duplicate/unknown-name errors."""

import pytest

import repro.api.components  # noqa: F401  (populates the registries)
from repro.api.registry import (
    ARRIVALS,
    BACKBONES,
    CACHES,
    MACHINES,
    RESOLUTION_POLICIES,
    Registry,
    all_registries,
)


class TestRegistryMechanics:
    def test_decorator_registration_returns_the_component(self):
        registry = Registry("widget")

        @registry.register("gizmo")
        def make_gizmo(size: int = 1):
            return ("gizmo", size)

        assert registry.get("gizmo") is make_gizmo
        assert registry.build("gizmo", size=3) == ("gizmo", 3)

    def test_build_names_unknown_options_and_the_accepted_ones(self):
        registry = Registry("widget")
        registry.register("gizmo", lambda size=1, seed=0: ("gizmo", size))
        with pytest.raises(
            ValueError,
            match=r"widget 'gizmo': unknown option\(s\) sead, sise; accepted options: seed, size",
        ):
            registry.build("gizmo", sise=3, sead=1)

    def test_build_names_a_missing_required_option(self):
        registry = Registry("widget")
        registry.register("gizmo", lambda size: ("gizmo", size))
        with pytest.raises(ValueError, match="widget 'gizmo': missing a required argument: 'size'"):
            registry.build("gizmo")

    def test_direct_registration_of_preset_objects(self):
        registry = Registry("preset")
        preset = object()
        registry.register("p", preset)
        assert registry.get("p") is preset
        with pytest.raises(TypeError):
            registry.build("p")

    def test_duplicate_name_is_rejected(self):
        registry = Registry("widget")
        registry.register("x", object())
        with pytest.raises(ValueError, match="duplicate widget name 'x'"):
            registry.register("x", object())

    def test_unknown_name_error_lists_known_names(self):
        registry = Registry("widget")
        registry.register("alpha", object())
        registry.register("beta", object())
        with pytest.raises(KeyError, match="alpha, beta"):
            registry.get("gamma")

    def test_empty_name_is_rejected(self):
        registry = Registry("widget")
        with pytest.raises(ValueError):
            registry.register("", object())

    def test_introspection(self):
        registry = Registry("widget")
        registry.register("b", 1)
        registry.register("a", 2)
        assert registry.names() == ["a", "b"]
        assert "a" in registry and "c" not in registry
        assert len(registry) == 2
        assert list(registry) == ["a", "b"]


class TestPopulatedRegistries:
    """The component modules self-register under their stable names."""

    def test_backbones(self):
        for name in ("resnet18", "resnet50", "resnet-tiny", "mobilenetv2", "mobilenet-tiny"):
            assert name in BACKBONES

    def test_backbone_build_roundtrip(self):
        model = BACKBONES.build("resnet-tiny", num_classes=3, base_width=4, seed=0)
        assert model is not None

    def test_resolution_policies(self):
        for name in ("static", "dynamic", "oracle", "load-adaptive"):
            assert name in RESOLUTION_POLICIES

    def test_arrivals_caches_machines(self):
        assert {"poisson", "onoff", "closed-loop"} <= set(ARRIVALS.names())
        assert "scan-lru" in CACHES
        assert {"4790K", "2990WX"} <= set(MACHINES.names())

    def test_all_registries_are_nonempty(self):
        for key, registry in all_registries().items():
            assert len(registry) > 0, f"registry {key} is empty"
