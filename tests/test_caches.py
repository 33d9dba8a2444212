"""Module-level memos stay bounded: every lru_cache in slopekit has a finite
maxsize, and searches leave module-level containers at their size."""

import importlib
import pkgutil
import random

import slopekit
from slopekit.enumeration import mu_max, slope_filtration
from slopekit.harness import random_lattice


def _modules():
    return [
        importlib.import_module(f"slopekit.{info.name}")
        for info in pkgutil.iter_modules(slopekit.__path__)
    ]


def _members(mod):
    """Module-level objects of `mod`, and the attributes of its classes."""
    for value in vars(mod).values():
        yield value
        if isinstance(value, type) and value.__module__ == mod.__name__:
            yield from vars(value).values()


def _container_sizes():
    return {
        (mod.__name__, name): len(value)
        for mod in _modules()
        for name, value in vars(mod).items()
        if not name.startswith("__") and isinstance(value, (dict, list, set))
    }


def test_lru_caches_are_bounded():
    caches = {
        f"{mod.__name__}.{value.__qualname__}": value.cache_parameters()["maxsize"]
        for mod in _modules()
        for value in _members(mod)
        if hasattr(value, "cache_parameters")
    }
    assert "slopekit.enumeration.lll_reduce" in caches
    unbounded = [name for name, size in caches.items() if size is None]
    assert not unbounded


def test_searches_leave_module_containers_unchanged():
    before = _container_sizes()
    rng = random.Random(20261018)
    for rank in (2, 3, 4, 4):
        lat = random_lattice(rng, rank)
        mu_max(lat)
        slope_filtration(lat)
    assert _container_sizes() == before
