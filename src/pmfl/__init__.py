"""Deterministic federated-learning simulator.

Local training carries a model-contrastive term against a sliding buffer of
the node's own historical models; the server weights updates by each node's
mean participation interval and smooths the new global model with its recent
predecessors.  Ablation and baseline variants, heterogeneity generators,
participation patterns and a CLI harness round out the package.
"""
__version__ = "0.1.0"

import os

# BLAS reads its thread count when numpy is first imported, so this comes
# before any submodule imports numpy.  The matrices here are small: more
# threads only burn CPU.  A count the user set stays.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_THREAD_VARS:
    os.environ.setdefault(_name, "1")

from .config import ExperimentConfig, load_config, save_config
from .contrastive import LocalBuffer, combined_loss_and_grad
from .client import NodeState, local_train, nonparticipant_update
from .data import DatasetSpec, LabeledDataset, export_csv, ingest_csv, synth_dataset
from .harness import RunResult, build_environment, run_experiment, run_sweep, resume_run
from .harness import node_weights
from .heterogeneity import (
    FrequencyAssignment,
    assign_frequencies,
    dirichlet_partition,
)
from .metrics import RoundMetrics, evaluate, node_cdf, top5_mean, update_deviation
from .nn import (
    Layer,
    ModelParams,
    ModelSpec,
    cross_entropy_and_grad,
    flatten,
    forward_logits,
    forward_representation,
    init_params,
    param_delta,
    sgd_step,
    unflatten,
)
from .participation import ParticipationSchedule, markov_stationary
from .server import (
    AggregatorState,
    DivergenceError,
    aggregate,
    history_coefficient,
    update_weights,
)
