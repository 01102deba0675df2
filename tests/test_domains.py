"""Field domains, generated from the field metadata.

Every domained field of every knob class is sent a value just outside its
domain (plus NaN, and ``None`` where the default is not ``None``) through
the Python API, and every numeric CLI flag the same values through
argparse: the class refuses naming ``Class.field`` and the value, and the
parser exits 2 naming the flag.
"""

import argparse
import math
import re
import typing
from dataclasses import MISSING, fields

import pytest

from repro.cli import build_parser
from repro.core.config import (
    EncoderConfig,
    FinetuneConfig,
    MultiTaskConfig,
    OptimizerConfig,
    PretrainConfig,
)
from repro.domains import DOMAIN, Domain, Knobs, domain_of
from repro.screening import ScreenConfig
from repro.serving import AdmissionPolicy, AffineServiceModel, BatchPolicy, HedgePolicy
from repro.serving.resilience import (
    BreakerPolicy,
    DegradationPolicy,
    HealthPolicy,
    RetryPolicy,
)
from repro.tasks import TaskSpec
from repro.training import TrainerConfig

#: Every class whose fields are knobs, with the arguments it requires.
KNOB_CLASSES = {
    EncoderConfig: {},
    OptimizerConfig: {},
    PretrainConfig: {},
    FinetuneConfig: {},
    MultiTaskConfig: {},
    TrainerConfig: {},
    ScreenConfig: {},
    BatchPolicy: {},
    AdmissionPolicy: {},
    RetryPolicy: {},
    HedgePolicy: {},
    DegradationPolicy: {},
    BreakerPolicy: {},
    HealthPolicy: {},
    AffineServiceModel: {"base": 1e-3, "per_sample": 1e-4},
    TaskSpec: {"name": "t", "target": "y", "kind": "regression"},
}


def _scalar_type(cls, name):
    hint = typing.get_type_hints(cls)[name]
    return next((t for t in typing.get_args(hint) if t is not type(None)), hint)


def outside(domain: Domain, cast) -> list:
    """Values just outside ``domain`` for a ``cast`` scalar, plus NaN."""
    if domain.choices is not None:
        return ["bogus"]
    values = []
    if domain.ge is not None:
        values.append(domain.ge - 1 if cast is int else math.nextafter(domain.ge, -math.inf))
    if domain.gt is not None:
        values.append(cast(domain.gt))
    if domain.le is not None:
        values.append(domain.le + 1 if cast is int else math.nextafter(domain.le, math.inf))
    if domain.lt is not None:
        values.append(cast(domain.lt))
    return values + [math.nan]


def _field_cases():
    for cls, required in KNOB_CLASSES.items():
        for f in fields(cls):
            if DOMAIN not in f.metadata:
                continue
            values = outside(f.metadata[DOMAIN], _scalar_type(cls, f.name))
            if f.default is not None:
                values.append(None)
            for value in values:
                yield pytest.param(cls, required, f.name, value,
                                   id=f"{cls.__name__}.{f.name}={value!r}")


@pytest.mark.parametrize("cls, required, name, value", list(_field_cases()))
def test_field_refuses_value_outside_its_domain(cls, required, name, value):
    message = rf"^{cls.__name__}\.{name} must be .+, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        cls(**{**required, name: value})


@pytest.mark.parametrize("cls, required", KNOB_CLASSES.items(),
                         ids=[c.__name__ for c in KNOB_CLASSES])
def test_defaults_and_closed_bounds_are_legal(cls, required):
    """The defaults, each closed bound, and ``None`` where the default is
    ``None`` all construct; every default stays a class attribute."""
    cls(**required)
    for f in fields(cls):
        domain = f.metadata.get(DOMAIN)
        if domain is None:
            continue
        for edge in (domain.ge, domain.le):
            if edge is not None:
                cls(**{**required, f.name: _scalar_type(cls, f.name)(edge)})
        if f.default is None:
            cls(**{**required, f.name: None})
        if f.default is not MISSING:
            assert getattr(cls, f.name) == f.default


def test_every_knob_class_is_covered():
    """A class that derives from ``Knobs`` without joining this table would
    go untested."""
    assert set(Knobs.__subclasses__()) == set(KNOB_CLASSES)


def test_domain_describes_itself():
    assert str(Domain(ge=1)) == ">= 1"
    assert str(Domain(gt=0)) == "> 0"
    assert str(Domain(gt=0, le=1)) == "in (0, 1]"
    assert str(Domain(ge=0, lt=1)) == "in [0, 1)"
    assert str(Domain(gt=0, lt=math.inf)) == "in (0, inf)"
    assert str(Domain(choices=("a", "b"))) == "one of ('a', 'b')"


# --------------------------------------------------------------------------- #
# The CLI reads the same domains
# --------------------------------------------------------------------------- #
def _commands(parser, prefix=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _commands(sub, prefix + (name,))
    if prefix:
        yield prefix, parser


def _flag_cases():
    for command, parser in _commands(build_parser()):
        required = [
            arg for a in parser._actions if a.required and a.option_strings
            for arg in (a.option_strings[0], "/tmp/reg")
        ]
        for action in parser._actions:
            # --chaos-profile's type parses a fault spec, not a number.
            if not action.option_strings or action.type is None or (
                action.option_strings[0] == "--chaos-profile"
            ):
                continue
            yield pytest.param(command, required, action,
                               id=f"{' '.join(command)} {action.option_strings[0]}")


FLAG_CASES = list(_flag_cases())


@pytest.mark.parametrize("command, required, action", FLAG_CASES)
def test_numeric_flag_exits_2_outside_its_domain(command, required, action, capsys):
    """Every numeric flag's type is a domain; a flag that sets a field uses
    that field's domain object, and the field refuses the same values."""
    domain = action.type.domain
    cast = {"int": int, "float": float}[action.type.__name__]
    owner = getattr(action.type, "field", None)
    if owner is not None:
        assert domain is domain_of(*owner)
    flag = action.option_strings[0]
    for value in outside(domain, cast):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*command, *required, flag, *[str(value)] * (action.nargs or 1)])
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
        if owner is not None:
            cls, name = owner
            with pytest.raises(ValueError, match=rf"^{cls.__name__}\.{name} "):
                cls(**{**KNOB_CLASSES[cls], name: value})


def test_flags_bound_to_fields():
    """The flags that set a config field are the ones declared from it."""
    bound = {
        (" ".join(command), action.option_strings[0]): "{}.{}".format(
            action.type.field[0].__name__, action.type.field[1])
        for command, _, action in (p.values for p in FLAG_CASES)
        if hasattr(action.type, "field")
    }
    assert bound[("pretrain", "--batch-per-worker")] == "PretrainConfig.batch_per_worker"
    assert bound[("finetune", "--hidden-dim")] == "EncoderConfig.hidden_dim"
    assert bound[("serve", "--hedge-ms")] == "HedgePolicy.delay"
    assert bound[("screen", "--base-samples")] == "ScreenConfig.base_samples"
    assert len(bound) == 37
