"""``@frozen``: immutable value records, without ``dataclasses``.

The fields are the class's own annotations, in order, and a plain class
attribute of the same name is a field's default (a slot's member
descriptor is not).  The methods are closures over the field names, so
nothing is generated or compiled at import.  A method the class defines
itself is kept.
"""

from types import MemberDescriptorType


def frozen(cls):
    names = tuple(cls.__annotations__)
    defaults = {name: value for name, value in cls.__dict__.items()
                if name in names and not isinstance(value, MemberDescriptorType)}
    post_init = getattr(cls, "__post_init__", None)
    title = cls.__qualname__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            given = dict(zip(names, args), **kwargs)
            values = {**defaults, **given}
            if len(given) < len(args) + len(kwargs) or values.keys() != set(names):
                raise TypeError(f"{title}() takes the fields {', '.join(names)}, each once")
            args = [values[name] for name in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        if post_init is not None:
            post_init(self)

    def fields(self):
        return tuple(getattr(self, name) for name in names)

    def __eq__(self, other):
        return fields(self) == fields(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({inner})"

    def refuse(self, name, *value):
        raise AttributeError(f"{type(self).__qualname__} is frozen: cannot set or delete {name!r}")

    methods = {"__init__": __init__, "__eq__": __eq__, "__hash__": __hash__,
               "__repr__": __repr__, "__setattr__": refuse, "__delattr__": refuse}
    for key, method in methods.items():
        if key not in cls.__dict__:
            setattr(cls, key, method)
    return cls
