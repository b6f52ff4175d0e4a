"""Every ``__all__`` in ``repro`` names things that exist, once.

What catches a deletion that left a dangling export: a name listed in a
package's (or module's) ``__all__`` whose definition or import is gone
still imports fine — until someone does ``from repro.x import *`` or
reads the list as the public surface.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve_once(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    twice = sorted({n for n in exported if exported.count(n) > 1})
    assert not twice, f"{name}.__all__ lists a name twice: {twice}"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"



def test_serving_starts_no_process():
    """Serving has one multi-core mechanism, the raster forward's block
    threads: no render farm, raster-pool registry or shared-memory
    transport, and no ``workers`` knob on the service."""
    import inspect

    import repro.pool
    import repro.serve

    assert not [n for n in dir(repro.serve) if "Farm" in n]
    assert not [
        n for n in dir(repro.pool) if "raster_pool" in n or "shm" in n
    ]
    assert "workers" not in inspect.signature(
        repro.serve.RenderService
    ).parameters
