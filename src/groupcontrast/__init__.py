"""Group-contrastive self-supervised learning engine for graphs."""

from .config import DataConfig, RunConfig
from .graphs import (Batch, Dataset, Graph, batch_graphs,
                     generate_planted_motif_dataset, load_dataset,
                     save_dataset)
from .trainer import ModelState, checkpoint_load, checkpoint_save, train
from .evaluation import (EmbeddingTable, ProbeResult, count_head_params,
                         extract_embeddings, linear_probe, query_cosine_matrix)

__all__ = [
    "Batch", "DataConfig", "Dataset", "EmbeddingTable", "Graph", "ModelState",
    "ProbeResult", "RunConfig", "batch_graphs", "checkpoint_load",
    "checkpoint_save", "count_head_params", "extract_embeddings",
    "generate_planted_motif_dataset", "linear_probe", "load_dataset",
    "query_cosine_matrix", "save_dataset", "train",
]
