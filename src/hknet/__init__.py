"""hknet: a composable high-level Petri net modeling kernel.

Signatures with instantiating structures, schematic nets with term
inscriptions and guards, an associative module composition calculus,
distributed (partial-order) runs that are themselves modules, and
per-instantiation analysis: invariants and bounded reachability.
"""

from .errors import (CompositionError, EvalError, FiringError, ModelError,
                     ParseError, ScriptError, SortError, Violation)
from .values import Atom, Multiset, SetValue, TupleValue, Value, render_value
from .signature import (PowSort, Signature, Sort, SortName, Structure,
                        TupleSort, carrier_of, make_structure, render_sort,
                        validate_structure, value_in_sort)
from .terms import (App, Binding, ConstRef, Elm, Guard, GuardAtom, Ident,
                    SetTerm, SymbolRef, Term, TupleTerm, Var,
                    enumerate_bindings, eval_guard, evaluate,
                    inscription_tokens, render_binding, render_term)
from .nets import (Arc, Condition, Event, Marking, OccurrenceNet, Place,
                   SchematicNet, Transition, check_net, enabled_bindings,
                   fire, marking_violations, resolve_net, successors)
from .modules import (InterfaceElement, Module, canonical_equal, canonicalize,
                      compose, compose_all, empty_module, empty_run,
                      interface_of, interface_violations, rename_elements)
from .systems import System, instantiate
from .runs import (SchedulingPolicy, compose_runs, final_cut, find_event,
                   initial_cut, linearize, ordered, random_policy,
                   scripted_policy, simulate, validate_run)
from .analysis import (GroundedNet, ReachabilityGraph, explore,
                       explore_grounded, ground, in_span, nullspace,
                       place_invariants, transition_invariants)
from .parser import (ModelDocument, StructureDoc, SystemDoc, bind_structure,
                     parse, parse_predicate, parse_script)
from .printer import print_document, print_module, print_run, print_signature, \
    print_structure, print_system, structure_to_doc
from .dot import export_dot

__version__ = "0.1.0"
