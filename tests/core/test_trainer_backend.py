"""``TrainingConfig.compute_backend`` is a backend scope around each trainer call.

``train``, ``evaluate`` and ``train_time_budget`` each run on the
configured backend and hand the process back on the backend it had
before, also when the call raises.  Batches of 32 16×16 images make the
first conv GEMM 32·16·16 = 8 192 rows, enough for ``blocked`` (2 048-row
tiles) to tile, so ``backend_gemm_blocked`` tells the two backends apart.
"""

from dataclasses import replace

import pytest

from repro.api import JobSpec, build_trainer, build_workload
from repro.backend import BlockedBackend, get_backend, use_backend
from repro.utils.perf import counters

SPEC = JobSpec.fast_debug(batch_size=32)

CALLS = {
    "train": lambda trainer, pieces: trainer.train(),
    "evaluate": lambda trainer, pieces: trainer.evaluate(pieces.test),
    "train_time_budget": lambda trainer, pieces: trainer.train_time_budget(0.05),
}

#: The backend active around each call: the one *not* configured, so a
#: call that ignored ``compute_backend`` would show in the counters.
OUTER = {"numpy": "blocked", "blocked": "numpy"}


@pytest.fixture(scope="module")
def pieces():
    return build_workload(SPEC.workload)


def make_trainer(pieces, compute_backend, call="train"):
    config = replace(SPEC.config, compute_backend=compute_backend)
    if call == "train_time_budget":  # asynchronous mode only
        config = replace(config, mode="asynchronous")
    return build_trainer(replace(SPEC, config=config), pieces=pieces)


def run_counted(call, trainer, pieces):
    """``(gemm_calls, backend_gemm_blocked)`` added by one trainer call."""
    gemms, tiled = counters.get("gemm_calls"), counters.get("backend_gemm_blocked")
    CALLS[call](trainer, pieces)
    return (counters.get("gemm_calls") - gemms,
            counters.get("backend_gemm_blocked") - tiled)


@pytest.mark.parametrize("call", list(CALLS))
@pytest.mark.parametrize("backend", ["numpy", "blocked"])
def test_call_runs_on_the_configured_backend(pieces, backend, call):
    trainer = make_trainer(pieces, backend, call)
    with use_backend(OUTER[backend]) as outer:
        gemms, tiled = run_counted(call, trainer, pieces)
        assert get_backend() is outer
    assert gemms > 0
    if backend == "numpy":
        assert tiled == 0
    else:
        assert tiled > 0


@pytest.mark.parametrize("call", list(CALLS))
def test_unset_backend_runs_on_the_active_one(pieces, call):
    trainer = make_trainer(pieces, None, call)
    with use_backend(BlockedBackend(block_rows=16)) as outer:
        gemms, tiled = run_counted(call, trainer, pieces)
        assert get_backend() is outer
    assert gemms > 0 and tiled > 0


def test_backend_restored_when_train_raises(pieces):
    trainer = make_trainer(pieces, "numpy")

    def failing_observer(record):
        raise RuntimeError("observer failed")

    with use_backend("blocked") as outer:
        with pytest.raises(RuntimeError, match="observer failed"):
            trainer.train(on_epoch_end=failing_observer)
        assert get_backend() is outer
