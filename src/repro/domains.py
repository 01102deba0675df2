"""Field domains: every config knob declares its legal values once.

A field built with :func:`knob` stores a :class:`Domain` in its metadata; a
dataclass derived from :class:`Knobs` refuses an out-of-domain value at
construction, naming ``Class.field``, and the CLI takes each numeric flag's
argparse type from a domain (:func:`flag_type`).  NaN fails every bound,
and ``None`` is legal exactly where the field's default is ``None``.
"""

from __future__ import annotations

import typing
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

#: Metadata key under which :func:`knob` stores a field's domain.
DOMAIN = "domain"


@dataclass(frozen=True)
class Domain:
    """Legal values of one scalar: bounds (``ge``/``gt`` below, ``le``/``lt``
    above) or a closed set of ``choices``."""

    ge: Optional[float] = None
    gt: Optional[float] = None
    le: Optional[float] = None
    lt: Optional[float] = None
    choices: Optional[tuple] = None

    def __contains__(self, value) -> bool:
        if self.choices is not None:
            return value in self.choices
        try:  # each comparison is False for NaN
            return (
                (self.ge is None or value >= self.ge)
                and (self.gt is None or value > self.gt)
                and (self.le is None or value <= self.le)
                and (self.lt is None or value < self.lt)
            )
        except TypeError:  # None or a string against a numeric bound
            return False

    def __str__(self) -> str:
        if self.choices is not None:
            return f"one of {self.choices}"
        low = ("[", ">=", self.ge) if self.ge is not None else ("(", ">", self.gt)
        high = ("]", "<=", self.le) if self.le is not None else (")", "<", self.lt)
        if low[2] is None or high[2] is None:
            _, op, bound = high if low[2] is None else low
            return f"{op} {bound:g}"
        return f"in {low[0]}{low[2]:g}, {high[2]:g}{high[0]}"

    def argtype(self, cast):
        """argparse ``type=``: ``cast(text)`` inside this domain, else exit 2
        naming the flag."""
        import argparse  # only the CLI builds flag types

        def parse(text: str):
            value = cast(text)
            if value not in self:
                raise argparse.ArgumentTypeError(
                    f"expected {cast.__name__} {self}, got {text}"
                )
            return value

        parse.__name__ = cast.__name__  # argparse's "invalid <name> value"
        parse.domain = self
        return parse


def knob(default=MISSING, *, ge=None, gt=None, le=None, lt=None, choices=None):
    """A dataclass field whose legal values are the given :class:`Domain`."""
    domain = Domain(ge=ge, gt=gt, le=le, lt=lt, choices=choices)
    return field(default=default, metadata={DOMAIN: domain})


def check_domains(self) -> None:
    """Refuse any field value outside its domain, naming ``Class.field`` and
    the value."""
    for f in fields(self):
        value = getattr(self, f.name)
        if DOMAIN in f.metadata and not (value is None and f.default is None):
            if value not in f.metadata[DOMAIN]:
                raise ValueError(
                    f"{type(self).__name__}.{f.name} must be {f.metadata[DOMAIN]}, got {value!r}"
                )


class Knobs:
    """Base of every dataclass whose fields are knobs: construction runs
    :func:`check_domains`."""

    __post_init__ = check_domains


def domain_of(cls, name: str) -> Domain:
    """The :class:`Domain` that field ``name`` of dataclass ``cls`` declares."""
    return next(f for f in fields(cls) if f.name == name).metadata[DOMAIN]


def flag_type(cls, name: str):
    """argparse ``type=`` for a flag that sets ``cls.<name>``: the field's
    own domain and scalar type, so the flag cannot disagree with the field."""
    hint = typing.get_type_hints(cls)[name]
    cast = next((t for t in typing.get_args(hint) if t is not type(None)), hint)
    parse = domain_of(cls, name).argtype(cast)
    parse.field = (cls, name)
    return parse
