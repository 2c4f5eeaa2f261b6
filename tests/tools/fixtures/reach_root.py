"""Fixture: the entry point (virtually ``examples/reach_root.py``)."""

from repro.core.config import NetworkConfig
from repro.reach import Options, Service, used

CALLS = ("repro.reach.lib:Traced.hook",)


def drive(thing):
    config = NetworkConfig(seed=3, set_never_read=1)
    service = Service(config)
    print(used(), service, service.size, Options(depth=config.seed))
    return thing.by_name()
