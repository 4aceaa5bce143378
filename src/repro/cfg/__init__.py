"""A mini-C front end and interprocedural control-flow graphs.

The model-checking experiments (Section 6, Table 1) operate on C
programs.  This subpackage provides the substrate: a single-pass regex
lexer and a parser for a C subset, recursive descent for statements and
precedence climbing for expressions (:mod:`repro.cfg.lexer`,
:mod:`repro.cfg.parser`), an AST (:mod:`repro.cfg.ast`), and a builder
producing interprocedural control-flow graphs with explicit
entry/exit nodes and call sites (:mod:`repro.cfg.builder`,
:mod:`repro.cfg.graph`).
"""

from repro.cfg.builder import build_cfg, build_program_cfg
from repro.cfg.graph import CFGNode, FunctionCFG, ProgramCFG, reverse_cfg
from repro.cfg.parser import parse_program

__all__ = [
    "CFGNode",
    "FunctionCFG",
    "ProgramCFG",
    "build_cfg",
    "build_program_cfg",
    "reverse_cfg",
    "parse_program",
]
