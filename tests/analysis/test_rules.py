"""Fixture-snippet tests: each rule fires on a known-bad snippet, stays
quiet on the known-good equivalent, and honours reasoned suppressions."""

from __future__ import annotations

import textwrap

from repro.analysis import analyze_source

# Virtual paths that place snippets inside (or outside) the repro package
# so module-scoped rules resolve their scope exactly like on disk.
CORE_PATH = "src/repro/core/example.py"
ENGINE_PATH = "src/repro/core/engine.py"
HOT_PATH = "src/repro/nn/functional.py"
COLD_PATH = "src/repro/core/privacy.py"
OUTSIDE_PATH = "scripts/example.py"


def lint(source: str, path: str = CORE_PATH):
    return analyze_source(textwrap.dedent(source), path)


def unsuppressed(source: str, path: str = CORE_PATH):
    return [f for f in lint(source, path) if not f.suppressed]


def rule_ids(findings):
    return [finding.rule_id for finding in findings]


# --------------------------------------------------------------------------- #
# RL001 dtype-policy
# --------------------------------------------------------------------------- #
class TestDtypePolicy:
    def test_fires_on_allocating_constructors(self):
        source = """
            import numpy as np
            a = np.zeros((4, 4))
            b = np.empty(8)
            c = np.ones(3)
            d = np.full(5, 0.1)
            e = np.arange(10)
        """
        findings = unsuppressed(source)
        assert rule_ids(findings) == ["RL001"] * 5

    def test_fires_on_literal_conversions(self):
        findings = unsuppressed("""
            import numpy as np
            weights = np.array([0.1, 0.2, 0.3])
            more = np.asarray((1.5, 2.5))
        """)
        assert rule_ids(findings) == ["RL001", "RL001"]

    def test_quiet_with_explicit_dtype(self):
        assert unsuppressed("""
            import numpy as np
            from repro.nn.dtype import get_default_dtype
            a = np.zeros((4, 4), dtype=get_default_dtype())
            b = np.arange(10, dtype=np.intp)
            c = np.array([0.1], dtype=np.float64)
        """) == []

    def test_quiet_on_dtype_preserving_passthrough(self):
        # asarray over an array-valued expression preserves its dtype;
        # forcing one would corrupt deliberate precision choices.
        assert unsuppressed("""
            import numpy as np
            def convert(value):
                return np.asarray(value)
        """) == []

    def test_quiet_outside_the_repro_package(self):
        assert unsuppressed("import numpy as np\nx = np.zeros(3)\n",
                            path=OUTSIDE_PATH) == []

    def test_finding_carries_location_and_hint(self):
        (finding,) = unsuppressed("import numpy as np\nx = np.zeros(3)\n")
        assert finding.line == 2
        assert finding.rule_id == "RL001"
        assert "dtype=" in finding.fix_hint
        assert finding.path == CORE_PATH

    def test_suppressed_with_reason(self):
        findings = lint("""
            import numpy as np
            x = np.zeros(3)  # repro-lint: ignore[RL001] -- float64 scratch for a numerics test
        """)
        assert [f.rule_id for f in findings] == ["RL001"]
        assert findings[0].suppressed
        assert "float64 scratch" in findings[0].suppress_reason
        assert unsuppressed("""
            import numpy as np
            x = np.zeros(3)  # repro-lint: ignore[RL001] -- float64 scratch for a numerics test
        """) == []


# --------------------------------------------------------------------------- #
# RL002 determinism
# --------------------------------------------------------------------------- #
class TestDeterminism:
    def test_fires_on_wall_clock_and_global_rngs(self):
        source = """
            import time, random
            import numpy as np
            from datetime import datetime
            start = time.time()
            stamp = datetime.now()
            pick = random.choice([1, 2])
            noise = np.random.randn(4)
            np.random.seed(0)
        """
        findings = unsuppressed(source)
        assert rule_ids(findings) == ["RL002"] * 5

    def test_quiet_on_seeded_generators_and_perf_counter(self):
        assert unsuppressed("""
            import time
            import numpy as np
            rng = np.random.default_rng(42)
            children = np.random.SeedSequence(7).spawn(3)
            noise = rng.standard_normal(4)
            elapsed = time.perf_counter()
        """) == []

    def test_suppressed_case(self):
        findings = lint("""
            import time
            now = time.time()  # repro-lint: ignore[RL002] -- wall-clock benchmark stamp, never simulated
        """)
        assert [f.rule_id for f in findings] == ["RL002"]
        assert findings[0].suppressed

    def test_fires_on_unseeded_generator_construction(self):
        findings = unsuppressed("""
            import numpy as np
            from numpy.random import default_rng
            a = np.random.default_rng()
            b = default_rng()
            c = np.random.Generator(np.random.PCG64())
            d = np.random.Generator()
            e = np.random.default_rng(None)
            f = default_rng(np.random.SeedSequence())
        """)
        assert rule_ids(findings) == ["RL002"] * 6
        assert all("seed" in f.fix_hint for f in findings)

    def test_quiet_on_seeded_generator_construction(self):
        assert unsuppressed("""
            import numpy as np
            from numpy.random import default_rng
            a = np.random.default_rng(7)
            b = default_rng(seed=3)
            c = np.random.Generator(np.random.PCG64(11))
            d = np.random.default_rng(np.random.SeedSequence(5))
            e = np.random.default_rng(np.random.SeedSequence(entropy=5))
        """) == []

    def test_fires_on_the_optional_seed_codec_shape(self):
        # The noise codec's shape before seeds became required: an
        # ``Optional[int] = None`` seed handed straight to default_rng.
        findings = unsuppressed("""
            from typing import Optional
            import numpy as np

            class GaussianNoisePerturbation:
                def __init__(self, noise_multiplier: float = 0.5, clip_norm: float = 1.0,
                             seed: Optional[int] = None) -> None:
                    self._rng = np.random.default_rng(seed)
        """)
        assert rule_ids(findings) == ["RL002"]
        assert "may be None" in findings[0].message

    def test_fires_on_a_conditional_with_a_none_branch(self):
        findings = unsuppressed("""
            import numpy as np

            def link_stream(seed: int, index: int):
                return np.random.default_rng(None if seed is None else seed + index)
        """)
        assert rule_ids(findings) == ["RL002"]

    def test_fires_on_an_optional_annotation_with_a_non_none_default(self):
        findings = unsuppressed("""
            from typing import Optional
            import numpy as np

            def shuffled(seed: Optional[int] = 0):
                return np.random.default_rng(seed)

            def wrapped(seed: int | None = 1):
                return np.random.Generator(np.random.PCG64(seed=seed))
        """)
        assert rule_ids(findings) == ["RL002", "RL002"]

    def test_quiet_on_a_required_int_seed(self):
        assert unsuppressed("""
            import numpy as np

            def stream(seed: int, offset: int = 0):
                return np.random.default_rng(seed + offset)

            def inner(seed: int):
                def shadow(seed=None):
                    return seed
                return np.random.default_rng(seed)

            def derived(seeds):
                return np.random.default_rng(seeds.next_seed())
        """) == []

    def test_quiet_on_named_seed_sequence_streams(self):
        assert unsuppressed("""
            from typing import Optional
            from repro.utils.rng import SeedSequence

            def client_stream(seed: int, name: Optional[str] = None):
                return SeedSequence(seed).generator(name)
        """) == []

    def test_unseeded_detection_ignores_unrelated_names(self):
        # A project-local helper that merely shares the name must not fire.
        assert unsuppressed("""
            from repro.utils.rng import make_generator as Generator
            g = mystream.Generator()
            h = factory.other.default_rng
        """) == []


# --------------------------------------------------------------------------- #
# RL003 drop-accounting
# --------------------------------------------------------------------------- #
class TestDropAccounting:
    BAD = """
        class Monitor:
            def purge(self, shard):
                shard.queue.clear()
                shard.arena.pop(0)
                self._pending = {}
    """

    def test_fires_outside_approved_modules(self):
        findings = unsuppressed(self.BAD, path="src/repro/cluster/coordinator.py")
        assert rule_ids(findings) == ["RL003"] * 3

    def test_quiet_inside_approved_modules(self):
        assert unsuppressed(self.BAD, path="src/repro/core/server.py") == []

    def test_engine_ledger_and_deferred_sends_are_protected(self):
        source = """
            def purge(engine, driver):
                del engine._outstanding[0, 1]
                driver.stranded.clear()
        """
        findings = unsuppressed(source, path="src/repro/core/trainer.py")
        assert rule_ids(findings) == ["RL003"] * 2
        assert unsuppressed(source, path="src/repro/core/engine.py") == []

    def test_quiet_for_reads_and_init(self):
        assert unsuppressed("""
            class Monitor:
                def __init__(self):
                    self._pending = {}
                def depth(self, shard):
                    return len(shard.queue)
        """, path="src/repro/cluster/coordinator.py") == []

    def test_suppressed_case(self):
        findings = lint("""
            def reset_sim(sim):
                # repro-lint: ignore[RL003] -- event heap, not a transport queue
                sim._queue.clear()
        """, path="src/repro/simnet/example.py")
        assert [f.rule_id for f in findings] == ["RL003"]
        assert findings[0].suppressed


# --------------------------------------------------------------------------- #
# RL004 generation-guard
# --------------------------------------------------------------------------- #
class TestGenerationGuard:
    def test_fires_on_unguarded_runtime_callback(self):
        findings = unsuppressed("""
            def drive(sim, runtime):
                def fire(fire_sim):
                    runtime.round_index += 1
                sim.schedule(1.0, fire)
        """, path=ENGINE_PATH)
        assert rule_ids(findings) == ["RL004"]
        assert "generation" in findings[0].message

    def test_fires_on_unguarded_lambda(self):
        findings = unsuppressed("""
            def drive(sim, runtime):
                sim.schedule(1.0, lambda s, rt=runtime: rt.advance())
        """, path=ENGINE_PATH)
        assert rule_ids(findings) == ["RL004"]

    def test_quiet_with_generation_check(self):
        assert unsuppressed("""
            def drive(sim, runtime):
                generation = runtime.generation
                def fire(fire_sim):
                    if runtime.generation != generation:
                        return
                    runtime.round_index += 1
                sim.schedule(1.0, fire)
        """, path=ENGINE_PATH) == []

    def test_quiet_with_health_check(self):
        assert unsuppressed("""
            def drive(sim, runtime):
                def fire(fire_sim, rt=runtime):
                    if not rt.shard.healthy:
                        return
                    rt.round_index += 1
                sim.schedule(1.0, fire)
        """, path=ENGINE_PATH) == []

    def test_quiet_via_one_level_call_through(self):
        # A forwarder lambda is fine when the handler it names checks.
        assert unsuppressed("""
            class Engine:
                def _on_transition(self, sim, runtime):
                    if not runtime.shard.healthy:
                        return
                    runtime.round_index += 1

                def drive(self, sim, runtime):
                    sim.schedule(1.0, lambda s, rt=runtime: self._on_transition(s, rt))
        """, path=ENGINE_PATH) == []

    def test_quiet_for_runtime_free_callbacks(self):
        # Client-side landings resolve staleness via per-message state.
        assert unsuppressed("""
            def drive(sim, end_system, message):
                sim.schedule(1.0, lambda s: end_system.notify_drop(message.batch_id))
        """, path=ENGINE_PATH) == []

    def test_quiet_outside_scoped_modules(self):
        assert unsuppressed("""
            def drive(sim, runtime):
                sim.schedule(1.0, lambda s, rt=runtime: rt.advance())
        """, path="src/repro/core/trainer.py") == []

    def test_suppressed_case(self):
        findings = lint("""
            def drive(sim, runtime):
                # repro-lint: ignore[RL004] -- runtime is immutable config here, not a shard chain
                sim.schedule(1.0, lambda s, rt=runtime: rt.log())
        """, path=ENGINE_PATH)
        assert [f.rule_id for f in findings] == ["RL004"]
        assert findings[0].suppressed


# --------------------------------------------------------------------------- #
# RL005 backend-bypass
# --------------------------------------------------------------------------- #
class TestBackendBypass:
    def test_fires_on_raw_gemm_in_hot_module(self):
        findings = unsuppressed("""
            import numpy as np
            def affine(x, w, b):
                return x @ w + b
            def product(a, b):
                return np.matmul(a, b)
            def contraction(a, b):
                return np.einsum("ij,jk->ik", a, b)
        """, path=HOT_PATH)
        assert rule_ids(findings) == ["RL005"] * 3
        assert all("get_backend().gemm" in finding.message
                   and "get_backend().gemm" in finding.fix_hint
                   for finding in findings)

    def test_quiet_when_routed_through_backend(self):
        assert unsuppressed("""
            from repro.backend import get_backend
            def affine(x, w, b):
                return get_backend().gemm(x, w, bias=b)
        """, path=HOT_PATH) == []

    def test_quiet_in_cold_modules(self):
        # privacy.py's closed-form attack is explicitly out of scope.
        assert unsuppressed("""
            import numpy as np
            def gram(x):
                return x.T @ x
        """, path=COLD_PATH) == []

    def test_suppressed_case(self):
        findings = lint("""
            import numpy as np
            def tiny(a, b):
                return a @ b  # repro-lint: ignore[RL005] -- 2x2 metadata product, never hot
        """, path=HOT_PATH)
        assert [f.rule_id for f in findings] == ["RL005"]
        assert findings[0].suppressed


# --------------------------------------------------------------------------- #
# RL900 suppression hygiene + RL999 parse errors
# --------------------------------------------------------------------------- #
class TestSuppressionHygiene:
    def test_reasonless_suppression_does_not_suppress(self):
        findings = lint("""
            import numpy as np
            x = np.zeros(3)  # repro-lint: ignore[RL001]
        """)
        ids = sorted(rule_ids(findings))
        assert ids == ["RL001", "RL900"]
        assert not any(f.suppressed for f in findings)

    def test_unknown_rule_id_is_reported(self):
        findings = lint("x = 1  # repro-lint: ignore[RL123] -- no such rule\n")
        assert rule_ids(findings) == ["RL900"]
        assert "unknown rule" in findings[0].message

    def test_unused_suppression_is_reported(self):
        findings = lint("""
            x = 1  # repro-lint: ignore[RL001] -- nothing here actually violates RL001
        """)
        assert rule_ids(findings) == ["RL900"]
        assert "unused" in findings[0].message

    def test_syntax_error_fails_the_gate(self):
        findings = unsuppressed("def broken(:\n")
        assert rule_ids(findings) == ["RL999"]
