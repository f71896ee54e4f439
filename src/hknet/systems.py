"""Instantiation: a schematic module plus a structure gives a system.

The schematic module stays untouched; the system pairs it with a
resolved copy of its inner net, the structure, and the initial marking
obtained by evaluating every place's initial inscription (``elm`` terms
contribute one token per element, plain terms one token).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ModelError
from .modules import Module
from .nets import (Marking, SchematicNet, fire, marking_violations, resolve_net,
                   successors)
from .signature import Structure, validate_structure
from .terms import Binding, inscription_tokens


@dataclass(frozen=True)
class System:
    """An executable instantiation of a schematic module."""

    name: str
    module: Module
    structure: Structure
    initial: Marking
    # resolved copy of module.inner; behavior operations run on this
    net: SchematicNet = field(compare=False, repr=False)

    def fire(self, marking: Marking, transition: str, binding: Binding) -> Marking:
        return fire(self.net, marking, transition, binding, self.structure)

    def successors(self, marking: Marking | None = None):
        return successors(self.net, self.initial if marking is None else marking,
                          self.structure)


def instantiate(module: Module, structure: Structure,
                name: str | None = None) -> System:
    """Build the executable system for one instantiation.

    Raises :class:`ModelError` when the structure does not model the
    signature, the module does not resolve against it, an initial
    inscription is not closed, or an initial token lies outside its
    place's sort.
    """
    if not isinstance(module.inner, SchematicNet):
        raise ModelError(f"module {module.name!r} is a run, not a schematic module")
    sig = structure.signature
    if module.sig and module.sig != sig.name:
        raise ModelError(
            f"module {module.name!r} is over signature {module.sig!r}, "
            f"but structure {structure.name!r} interprets {sig.name!r}")
    problems = validate_structure(sig, structure)
    if problems:
        raise ModelError(
            f"structure {structure.name!r} does not model {sig.name!r}: "
            + "; ".join(str(v) for v in problems))
    net, violations = resolve_net(module.inner, sig)
    if violations:
        raise ModelError(
            f"module {module.name!r} does not resolve against {sig.name!r}: "
            + "; ".join(str(v) for v in violations))

    # resolve_net has rejected open initial inscriptions
    initial = Marking({place.name: inscription_tokens(place.init, structure)
                       for place in net.places})
    violations = marking_violations(net, initial, structure)
    if violations:
        raise ModelError(
            f"initial marking of {module.name!r} under {structure.name!r}: "
            + "; ".join(str(v) for v in violations))

    return System(name or f"{module.name}_{structure.name}",
                  module, structure, initial, net)
