"""Float32 paper-CNN pin behind ``fixtures/paper_float32_parent.json``.

The three parent goldens run the 8x8 tiny CNN under float64 and never reach
``BlockedBackend``'s tiled branch (M >= 4096).  This pins the path the paper's
experiments actually run — paper CNN, 4 end-systems, cut after block 1, batch
32, synchronous, per-message drain, float32 — bit for bit: the weights digest
and every epoch's loss after two epochs, as produced by the last commit whose
``repro.nn`` still gathered patches per kernel offset and moved activations
between NCHW and NHWC around every convolution.  This module is both the
recorder and the test (see ``fixtures/README.md``): run as a script with
*that* commit's ``src`` on ``PYTHONPATH`` it writes the fixture.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict

import numpy as np

from repro.api import runtime
from repro.api.jobspec import JobSpec, JobWorkload
from repro.core.config import TrainingConfig
from repro.nn.dtype import default_dtype

# Same digest as the PR 15 / PR 16 goldens.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "cluster"))
from fault_timeline_golden import weights_digest  # noqa: E402

GOLDEN = Path(__file__).parent / "fixtures" / "paper_float32_parent.json"

#: 240 training images over 4 end-systems: each epoch is a full batch of 32
#: and a remainder of 28 per client, so both batch shapes are pinned.
SPEC = JobSpec(
    name="paper_float32_pin",
    workload=JobWorkload(scale="paper", num_samples=300, num_end_systems=4,
                         client_blocks=1, seed=0),
    config=TrainingConfig(epochs=2, batch_size=32, mode="synchronous",
                          server_batching=False, seed=0),
    evaluate=False,
)


def capture() -> Dict[str, Any]:
    with default_dtype(np.float32):
        trainer = runtime.build_trainer(SPEC)
        history = trainer.train()
        return {
            "weights_sha256": weights_digest(trainer.state_dict()),
            "train_loss": [float(record.train_loss) for record in history.records],
            "server_steps": trainer.server.optimizer.step_count,
        }


def test_float32_paper_path_is_bit_identical_to_the_parent():
    assert capture() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
