"""``DataLoader.__iter__`` as it was before the transform-once rewrite, frozen.

Copied from ``repro.data.loader`` at commit ``2506a29`` (the parent of the
scheduler fast path): per-batch fancy indexing of the raw dataset arrays and
the transform applied to every batch, pure or not.  Only ``self`` became
explicit arguments.  ``test_loader_exact.py`` requires the current loader to
yield the same arrays, dtype included; do not "fix" or modernise this file.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np


def reference_epoch(dataset, batch_size: int, shuffle: bool, drop_last: bool,
                    transform, seed: Optional[int],
                    epoch: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    all_images, all_labels = dataset.arrays()
    indices = np.arange(len(dataset), dtype=np.intp)
    if shuffle:
        rng = np.random.default_rng(None if seed is None else seed + epoch)
        rng.shuffle(indices)
    limit = len(indices)
    if drop_last:
        limit = (limit // batch_size) * batch_size
    for start in range(0, limit, batch_size):
        batch_indices = indices[start:start + batch_size]
        if drop_last and len(batch_indices) < batch_size:
            break
        images = all_images[batch_indices]
        labels = all_labels[batch_indices]
        if transform is not None:
            images = transform(images)
        yield images, labels
