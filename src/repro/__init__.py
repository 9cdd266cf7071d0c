"""repro — reproduction of "Spatio-Temporal Split Learning" (DSN 2021).

The package is organised bottom-up:

* :mod:`repro.backend` — the GEMM path behind the nn hot paths: a direct
  and a row-tiled product, both with fused bias/ReLU epilogues.
* :mod:`repro.nn` — NumPy deep-learning substrate (autograd, Conv2D,
  MaxPooling2D, Dense, losses, optimizers).
* :mod:`repro.data` — synthetic CIFAR-10-style datasets, loaders,
  normalization and multi-end-system partitioners.
* :mod:`repro.simnet` — discrete-event geo-distributed network simulation
  (latencies, links, topologies, transport).
* :mod:`repro.core` — the paper's contribution: split specification,
  end-systems, centralized server with its parameter-scheduling queue,
  the spatio-temporal trainer and the privacy (Fig. 4) analysis.
* :mod:`repro.cluster` — sharded multi-server deployments: server
  replicas, client-to-shard assignment and inter-server weight sync.
* :mod:`repro.baselines` — centralized, sequential split learning and
  FedAvg comparators.
* :mod:`repro.experiments` — one module per paper table/figure plus the
  ablations, with a CLI entry point (``repro-experiments``).
* :mod:`repro.api` — the versioned public surface: ``JobSpec`` (the
  JSON-serializable description of a whole training job), the runtime
  facade that materializes and runs it, and the ``RunClient`` SDK.
* :mod:`repro.server` — the long-lived run-server: a REST control plane
  (``python -m repro.server``) that starts, pauses, resumes, inspects
  and cancels jobs running in worker subprocesses.
"""

from . import api, backend, baselines, cluster, core, data, nn, server, simnet, utils
from .cluster import ClusterCoordinator, ServerShard
from .core import (
    CentralServer,
    CNNArchitecture,
    EndSystem,
    SpatioTemporalTrainer,
    SplitSpec,
    TrainingConfig,
    paper_cnn_architecture,
    tiny_cnn_architecture,
)
from .data import SyntheticCIFAR10, SyntheticMNIST

__version__ = "1.0.0"

__all__ = [
    "api",
    "backend",
    "nn",
    "data",
    "simnet",
    "core",
    "cluster",
    "baselines",
    "server",
    "utils",
    "ClusterCoordinator",
    "ServerShard",
    "SplitSpec",
    "TrainingConfig",
    "EndSystem",
    "CentralServer",
    "SpatioTemporalTrainer",
    "CNNArchitecture",
    "paper_cnn_architecture",
    "tiny_cnn_architecture",
    "SyntheticCIFAR10",
    "SyntheticMNIST",
    "__version__",
]
