"""Fixture: the entry point (virtually ``examples/reach_params_root.py``)."""

from repro.reach import params


def drive(thing, args, settings, on_event):
    params.by_keyword(1, c=3)
    params.by_position(1, 2, 3)
    params.by_star(1, *args)
    params.by_mapping(1, **settings)
    params.forwarder(1, c=3)
    params.planted(1)
    params.tested(1)
    on_event(params.callback)
    params.Child(depth=2)
    params.Widget(width=3)
    params.Factory.make()
    thing.scale(1, 3)
    params.Factory.rename(thing, "y")
    params.dead_default(1, scale=3)
    params.live_default(1, 3)
    params.Built(size=2)
    on_event(thing.timeout > 0)
    on_event(thing.expire)
    again = thing.retry
    again()
    return thing.resize(3)
