"""Missingness-aware multimodal classification: masked attention fusion over
modality encoders, a shared-modality patient graph with GraphSAGE message
passing, and a CE + similarity-alignment KL objective, all on a minimal
reverse-mode autodiff engine."""

from . import (datamodel, evalkit, fusion, gnn, graph, numerics, objective,
               params_io, trainer)

__all__ = ["datamodel", "evalkit", "fusion", "gnn", "graph", "numerics",
           "objective", "params_io", "trainer"]

__version__ = "0.1.0"
