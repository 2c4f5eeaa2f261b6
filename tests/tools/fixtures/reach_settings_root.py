"""Fixture: the entry point (virtually ``examples/reach_settings_root.py``)."""

from repro.reach.settings import Letter, Loose, Planted, Point, Record, Span


def drive(bounds):
    planted = Planted(size=2)
    point = Point(1.0)
    span = Span.of(*bounds)
    letter = Letter("a", 0.0, note="hi")
    print(planted.size, planted.knob, point.x, point.y, span.start, span.end,
          letter.to, letter.note, letter.cache, Record(1, 2).value,
          Loose().depth)
