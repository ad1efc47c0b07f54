"""Stable and partial stable models of ground disjunctive programs, computed
by unfolding partiality and disjunctions into normal-program search."""

from .syntax import (
    Atom,
    F_ATOM,
    Literal,
    Program,
    Rule,
    U_ATOM,
    complement,
    potential,
    render_program,
    support,
)
from .parser import ParseError, parse_literals, parse_program
from .semantics import (
    CapExceededError,
    Clause,
    PartialInterpretation,
    TruthValue,
    UnknownAtomError,
    enumerate_partial_stable_models,
    enumerate_stable_models,
    greatest_unfounded_set,
    is_partial_model,
    is_partial_stable_model,
    is_stable_model,
    is_total_model,
    is_unfounded_free,
    is_unfounded_set,
)
from .partiality import (
    QueryLiterals,
    expand_psm,
    possibility_query,
    project_sm,
    translate_query,
    tr2_program,
    tr2_query,
    unfold_partiality,
)
from .gentest import gen_basic, gen_naive, gen_program, support_program, test_program
from .solver import Solver, SolverStats
from .gnt import GntConfig, GntStats, SolveResult, minimal_test, solve_disjunctive
from .qbf import (
    Qbf2E,
    negate_dnf,
    parse_qbf,
    qbf_to_program,
    qbf_valid_oracle,
    qbf_witness,
    render_qbf,
)
from .bench import gen_d3sat_instance, gen_random_qbf, mm_encode

__version__ = "0.1.0"
