"""Stable and partial stable models of ground disjunctive programs, computed
by unfolding partiality and disjunctions into normal-program search.

The package exports the entry points of the README's "Library entry points"
block and the types and exceptions they take or raise; everything else is
reached through its module."""

from .syntax import Atom, Literal, Program, Rule, render_program
from .parser import ParseError, parse_program
from .semantics import (
    CapExceededError,
    PartialInterpretation,
    UnknownAtomError,
    enumerate_partial_stable_models,
    enumerate_stable_models,
)
from .partiality import QueryLiterals, expand_psm, possibility_query, project_sm, unfold_partiality
from .gentest import gen_program, test_program
from .solver import Solver
from .gnt import GntConfig, SolveResult, solve_disjunctive
from .qbf import Qbf2E, QbfParseError, parse_qbf, qbf_to_program, qbf_valid_oracle, render_qbf
from .bench import gen_d3sat_instance, gen_random_qbf

__all__ = [
    "parse_program", "render_program", "Solver", "solve_disjunctive",
    "unfold_partiality", "project_sm", "expand_psm", "possibility_query",
    "gen_program", "test_program",
    "enumerate_stable_models", "enumerate_partial_stable_models",
    "parse_qbf", "render_qbf", "qbf_to_program", "qbf_valid_oracle",
    "gen_d3sat_instance", "gen_random_qbf",
    "Atom", "Literal", "Rule", "Program", "PartialInterpretation", "QueryLiterals",
    "GntConfig", "SolveResult", "Qbf2E",
    "ParseError", "QbfParseError", "CapExceededError", "UnknownAtomError",
]

__version__ = "0.1.0"
