"""Hybrid digital-twin engine.

A library for building hybrid (mechanistic + neural) models of
continuous-time dynamical systems from trajectory data.  Models are
written in a small declarative DSL, evaluated with an explicit Euler
solver, fitted by mini-batch Adam with reverse-mode gradients, and
searched over by an LLM-driven propose/critique loop with a top-K
population.
"""

from hdtwin.dsl import (
    ComponentDef,
    Expr,
    MlpDecl,
    ModelSpec,
    ParamDecl,
    ParseError,
    SystemSchema,
    VarSpec,
    Violation,
    canonicalize,
    parse_model_spec,
    validate,
)
from hdtwin.engine import (
    Dataset,
    EvaluationFault,
    Evaluator,
    ParamVector,
    Trajectory,
    TransitionBatch,
    init_params,
    mlp_init,
    one_step_mse,
    per_component_mse,
    rollout_mse,
)
from hdtwin.optim import FitResult, OptimConfig, adam_update, fit

__all__ = [
    "ComponentDef",
    "Dataset",
    "EvaluationFault",
    "Evaluator",
    "Expr",
    "FitResult",
    "MlpDecl",
    "ModelSpec",
    "OptimConfig",
    "ParamDecl",
    "ParamVector",
    "ParseError",
    "SystemSchema",
    "Trajectory",
    "TransitionBatch",
    "VarSpec",
    "Violation",
    "adam_update",
    "canonicalize",
    "fit",
    "init_params",
    "mlp_init",
    "one_step_mse",
    "parse_model_spec",
    "per_component_mse",
    "rollout_mse",
    "validate",
]
