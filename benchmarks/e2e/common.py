"""Set-up shared by the workloads: graphs, models, request streams, helpers."""

from __future__ import annotations

import gc
import resource
import time
from typing import Callable, Tuple

import numpy as np

from repro.compression import CompressionConfig
from repro.graph import load_dataset
from repro.models import create_model
from repro.serving import ServingConfig

from .estimator import quiet

HIDDEN = 128
BLOCK_SIZE = 8
BATCH = 64
WINDOW = 256
ZIPF_A = 1.1

#: name -> load_dataset arguments.  The real Reddit/Pubmed files are not in
#: the repository; these are the synthetic stand-ins with matching statistics.
GRAPHS = {
    "rd1": ("reddit", 0.01),   # 2 330 nodes, 70 k edges: offline_full
    "rd2": ("reddit", 0.02),   # 4 659 nodes, 175 k edges, avg degree 75: dense serving
    "pb": ("pubmed", 1.0),     # 19 717 nodes, 44 k edges, avg degree 4.5: sparse serving
}

clock = time.perf_counter


def load_graph(key: str):
    name, scale = GRAPHS[key]
    return load_dataset(name, scale=scale, seed=0, num_features=HIDDEN)


def build_model(name: str, graph, block_size: int = BLOCK_SIZE):
    """Untrained, seeded, in eval mode: speed does not depend on the weights."""
    model = create_model(
        name,
        in_features=graph.num_features,
        hidden_features=HIDDEN,
        num_classes=graph.num_classes,
        compression=CompressionConfig(block_size=block_size),
        seed=0,
    )
    model.eval()
    return model


def reference_predictions(model, graph) -> np.ndarray:
    """The offline answer every served prediction is compared with."""
    return model.full_forward(graph).data.argmax(axis=-1)


def serving_config(**overrides) -> ServingConfig:
    settings = dict(num_shards=2, max_batch_size=BATCH, halo_tier=True, seed=0)
    settings.update(overrides)
    return ServingConfig(**settings)


class ZipfStream:
    """Zipf(a) ranks over a fixed node permutation, bounded to the graph.

    The permutation is the same on every run (which nodes are hot decides how
    large the receptive fields of the misses are, and that would move the
    numbers between seeds); ``--seed`` drives the draws.
    """

    def __init__(self, num_nodes: int, rng: np.random.Generator) -> None:
        self.rng = rng
        self.permutation = np.random.default_rng(0).permutation(num_nodes)
        weights = np.arange(1, num_nodes + 1, dtype=np.float64) ** -ZIPF_A
        self.cdf = np.cumsum(weights / weights.sum())

    def draw(self, count: int) -> np.ndarray:
        ranks = np.searchsorted(self.cdf, self.rng.random(count), side="right")
        return self.permutation[np.minimum(ranks, len(self.permutation) - 1)]


def peak_rss_mb(include_children: bool = False) -> float:
    """``ru_maxrss`` (KiB on Linux) of this process, plus its reaped children."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def measure_setup(build: Callable[[], object], repeats: int, probe=None) -> Tuple[float, object]:
    """Cold construction up to the first answers, ``repeats`` times.

    Reports the quiet estimate, first construction discarded (it also pays
    imports and allocator growth no later construction pays), at the nominal
    host speed when a ``HostProbe`` is given: the probe is sampled before
    every construction.  Returns the last built object as well, so the caller
    does not build once more.
    """
    times = []
    built = None
    for _ in range(repeats):
        built = None
        gc.collect()
        if probe is not None:
            probe.sample(2)
        start = clock()
        built = build()
        times.append(clock() - start)
    seconds = quiet(times[1:] or times)
    return (seconds * probe.scale() if probe is not None else seconds), built
