"""Config field kinds. Each config dataclass declares every field's Kind in KINDS, in the order
config text writes them, and checks them all with one check_fields call. A Kind is a value
``ok`` accepts, which ``want`` describes; ``parse`` reads one from text, ``render`` writes it.
"""

from __future__ import annotations

import numbers
import re
import sys
from collections import namedtuple
from dataclasses import fields

Kind = namedtuple("Kind", "want ok parse render", defaults=(str, str))
FLOAT_MAX = sys.float_info.max  # the largest float; Python compares a huge int with it exactly


def read_int(text: str) -> int:
    """The integer ``text`` writes in its one spelling, the text ``str(int(text))`` gives:
    no '+', '_', space, leading zero or non-ASCII digit, which ``int`` also reads."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"an integer is written {value}, not {text!r}")
    return value


def read_real(text: str) -> float:
    """The float ``text`` writes, with no '_' or non-ASCII character, which ``float`` also reads."""
    if "_" in text or not text.isascii():
        raise ValueError(f"a real is written with no '_' or non-ASCII character, got {text!r}")
    return float(text)


def count(least: int, other: str | None = None, most: float = float("inf")) -> Kind:
    """An int in [least, most] (of type int: no bool, numpy integer or enum), or the text ``other``."""
    span = f">= {least}" if most == float("inf") else f"in [{least}, {most!r}]"
    return Kind(f"{f'{other!r} or ' if other else ''}an integer {span}",
                lambda v: v == other if isinstance(v, str) else type(v) is int and least <= v <= most,
                lambda text: text if text == other else read_int(text))


def real(lo: float, hi: float | None = None, above: bool = False) -> Kind:
    """A real in [lo, hi], or (lo, hi] when ``above``, that a float holds (no NaN, inf or
    huge int): an int, a bool or a numpy float too, written as the float it equals."""
    want = (f"a real in {'(' if above else '['}{lo:g}, {hi:g}]" if hi is not None
            else f"a finite real {'>' if above else '>='} {lo:g}")
    top = FLOAT_MAX if hi is None else hi
    return Kind(want, lambda v: isinstance(v, numbers.Real) and (lo < v if above else lo <= v) and v <= top,
                read_real, lambda v: repr(float(v)))


def text(rule, want: str) -> Kind:
    return Kind(want, lambda v: isinstance(v, str) and bool(rule(v)))


def choice(*options: str) -> Kind:
    return text(options.__contains__, f"{', '.join(options[:-1])} or {options[-1]}")


def instance(want: str, *classes) -> Kind:  # config text writes one in a form of its own
    return Kind(want, lambda v: isinstance(v, classes), None, None)


def optional(kind: Kind, default) -> Kind:
    """``kind``, or ``default`` itself, which writes no line. A value of another type is no
    default even where it equals it: True, 1.0 and numpy's 1 are not the int 1."""
    def at_default(v):
        return type(v) is type(default) and v == default
    return kind._replace(ok=lambda v: at_default(v) or kind.ok(v),
                         render=lambda v: "" if at_default(v) else kind.render(v))


def call(kind: Kind, forms: dict, name_of) -> Kind:
    """``kind`` written ``name(a, b, ...)``, or ``name`` with no argument. ``forms`` maps each name
    to ``(build, args)``, where ``build(*values)`` makes the value from the {field: Kind} table
    ``args``, read and written in order; ``name_of(value)`` is the name a value is written under."""
    def written(name, args):
        return f"{name}({', '.join(args)})" if args else name

    def parse(text):
        match = re.fullmatch(r"(\w+)(?:\(([^)]*)\))?", text)
        name = match[1] if match else None
        args = [a.strip() for a in match[2].split(",")] if match and match[2] is not None else []
        if name not in forms or len(args) != len(forms[name][1]):
            raise ValueError(f"expected one of {', '.join(written(n, a) for n, (_, a) in forms.items())}")
        build, kinds = forms[name]
        return build(*[kind.parse(arg) for kind, arg in zip(kinds.values(), args)])

    def render(value):
        name = name_of(value)
        return written(name, [kind.render(getattr(value, arg)) for arg, kind in forms[name][1].items()])

    return kind._replace(parse=parse, render=render)


def check_fields(obj, section: str, **names: str) -> None:
    """The one check of config values: each field of the dataclass ``obj`` against its kind in
    ``obj.KINDS``. It raises ``ValueError("<section> <field> must be <want>, got <value!r>")``;
    ``names`` gives a field another name."""
    for field in fields(obj):
        kind, value = obj.KINDS[field.name], getattr(obj, field.name)
        if not kind.ok(value):
            raise ValueError(f"{names.get(field.name, f'{section} {field.name}')} must be {kind.want}, got {value!r}")
