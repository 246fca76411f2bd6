"""Channel pruning for feedforward conv nets.

Pipeline: train a baseline, cluster feature-map channels to get a coarse
width vector, refine it with a particle swarm, retrain the winner from
scratch with a FLOPs-scaled epoch budget.

Importing prunekit sets the process's OpenBLAS to one thread (see
``nncore.layers``), so a result does not depend on the BLAS thread setting.
"""
from . import archspec, cluster, data, featstats, nncore, pipeline, report, swarm, util
from .errors import (
    BoundsError,
    DataFormatError,
    PruneKitError,
    StructureError,
    TrainingDiverged,
)

__version__ = "0.1.0"
