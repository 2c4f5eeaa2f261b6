"""Fixture: which defaulted parameters the entry point binds, and how."""


def by_keyword(a, b=1, c=2):
    """The root passes ``c=`` only: ``b`` has one value in use."""
    return a + b + c


def by_position(a, b=1, c=2):
    """The root fills all three positionally."""
    return a + b + c


def by_star(a, b=1, c=2):
    """The root spreads a ``*args``: every positional may be bound."""
    return a + b + c


def by_mapping(a, b=1, c=2):
    """The root passes a ``**mapping`` of unknown keys."""
    return a + b + c


def forwarded(a, b=1, c=2):
    """Reached only through :func:`forwarder`'s ``**options``."""
    return a + b + c


def forwarder(a, **options):
    return forwarded(a, **options)


def planted(reading, knob=5):
    """A knob nobody turns: the finding the baseline must answer."""
    return reading * knob


def tested(reading, knob=5):
    """Only ``tests/`` turn this knob."""
    return reading * knob


def callback(event, flag=False):
    """Handed to the root as a value: whoever calls it may pass ``flag``."""
    return event, flag


class Base:
    def __init__(self, size=1, colour="red"):
        self.size = size
        self.colour = colour


class Child(Base):
    def __init__(self, depth=0):
        super().__init__(4)        # size, positionally; never colour
        self.depth = depth


class Widget:
    def __init__(self, width=1, height=2):
        self.width = width
        self.height = height

    def resize(self, factor=2, snap=False):
        """Called through a receiver nothing resolves."""
        return self.width * factor, snap


class Factory:
    def __init__(self, size=1, tag=""):
        self.size = size
        self.tag = tag

    @classmethod
    def make(cls):
        return cls(2)              # size, positionally; never tag

    @staticmethod
    def scale(value, by=2, exact=False):
        """No ``self``: the root's two positionals are ``value``, ``by``."""
        return value * by if exact else round(value * by)

    def rename(self, tag="x", upper=False):
        """Called on the class, the instance passed explicitly: the root's
        two positionals are ``self``, ``tag``."""
        self.tag = tag.upper() if upper else tag


def dead_default(reading, scale=2):
    """Every call, the root's and the test's, passes ``scale``."""
    return reading * scale


def live_default(reading, scale=2):
    """The root passes ``scale``; a test leaves it to its default."""
    return reading * scale


class Built:
    def __init__(self, size=1):
        self.size = size
