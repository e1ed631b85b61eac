"""Tests for the deadline-aware resilience layer (:mod:`repro.resilience`).

Covers the PR's acceptance criteria end to end:

* budgets and cooperative cancellation produce anytime partial renders
  whose per-pixel envelopes still satisfy ``LB <= F <= UB`` against the
  brute-force exact density;
* injected worker crashes are retried until the render completes with an
  image bit-identical to the fault-free run;
* a worker with repeated consecutive failures is quarantined without
  losing its tile;
* checkpoint/resume reproduces the uninterrupted image bit-for-bit and
  rejects mismatched signatures;
* the CLI writes the partial image plus a ``.degraded.json`` sidecar.
"""

import json
import os
import threading

import numpy as np
import pytest

from repro.core.exact import exact_density
from repro.errors import CheckpointError
from repro.resilience import (
    STOP_CANCELLED,
    STOP_DEADLINE,
    STOP_KERNEL_BUDGET,
    Budget,
    CancellationToken,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    RetryPolicy,
    TileLedger,
    TransientTileError,
    is_transient,
    run_tiles,
)
from repro.visual.kdv import KDVRenderer
from repro.visual.request import RenderOptions, RenderRequest


def small_points(n=400, seed=11):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 2)) * [1.0, 0.6]


@pytest.fixture
def renderer():
    return KDVRenderer(small_points(), resolution=(40, 30))


class TestBudgetToken:
    def test_deadline_validation(self):
        with pytest.raises(Exception):
            Budget(deadline_s=-1.0)
        with pytest.raises(Exception):
            Budget(max_kernel_evals=0)

    def test_unlimited(self):
        assert Budget().unlimited
        assert not Budget(deadline_s=1.0).unlimited

    def test_from_deadline_ms(self):
        budget = Budget.from_deadline_ms(250.0)
        assert budget.deadline_s == pytest.approx(0.25)

    def test_kernel_budget_trips_and_latches(self):
        token = Budget(max_kernel_evals=100).token()
        token.start()
        token.charge(50)
        assert token.stop_reason() is None
        token.charge(51)
        assert token.stop_reason() == STOP_KERNEL_BUDGET
        # Latched: the first reason survives later checks.
        assert token.triggered
        assert token.reason == STOP_KERNEL_BUDGET

    def test_explicit_cancel_wins_first(self):
        token = CancellationToken()
        token.cancel()
        assert token.stop_reason() == STOP_CANCELLED
        token.cancel("other")
        assert token.reason == STOP_CANCELLED

    def test_deadline_trips(self):
        token = Budget(deadline_s=1e-9).token()
        token.start()
        assert token.stop_reason() == STOP_DEADLINE

    def test_memory_cap(self):
        token = Budget(max_memory_bytes=1000).token()
        token.start()
        assert token.stop_reason(memory_bytes=999) is None
        assert token.stop_reason(memory_bytes=1001) == "memory"


class TestFaultPlan:
    def test_parse_roundtrip(self):
        plan = FaultPlan.parse("worker_crash:0.05,slow_tile:0.1,seed:7,slow_ms:2")
        assert plan.rates == {"worker_crash": 0.05, "slow_tile": 0.1}
        assert plan.seed == 7
        assert plan.slow_ms == pytest.approx(2.0)

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(Exception):
            FaultPlan.parse("explode:0.5")

    def test_parse_rejects_bad_rate(self):
        with pytest.raises(Exception):
            FaultPlan.parse("worker_crash:1.5")

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "oom:0.25")
        plan = FaultPlan.from_env()
        assert plan is not None and plan.rates == {"oom": 0.25}
        monkeypatch.delenv("REPRO_FAULTS")
        assert FaultPlan.from_env() is None

    def test_injection_is_deterministic(self):
        plan = FaultPlan.parse("worker_crash:0.5,seed:3")
        first = FaultInjector(plan)
        second = FaultInjector(plan)
        outcomes_first = []
        outcomes_second = []
        for injector, outcomes in ((first, outcomes_first), (second, outcomes_second)):
            for tile in range(20):
                try:
                    injector.before(tile, 1)
                except InjectedFault:
                    outcomes.append(tile)
        assert outcomes_first == outcomes_second
        assert outcomes_first  # 50% over 20 tiles fires at least once

    def test_transient_taxonomy(self):
        assert is_transient(TransientTileError("x"))
        assert is_transient(ValueError("x"))
        assert not is_transient(CheckpointError("x"))
        assert not is_transient(KeyboardInterrupt())


class TestDeadlinePartialRender:
    def test_envelope_contains_exact_density(self, renderer):
        outcome = renderer.render_eps_anytime(
            0.05, tile_size=8, budget=Budget(max_kernel_evals=2500)
        )
        assert not outcome.complete
        degraded = outcome.degraded
        assert degraded.reason == STOP_KERNEL_BUDGET
        assert 0 <= degraded.pixels_resolved < degraded.pixels_total
        assert degraded.worst_gap > 0
        centers = renderer.grid.centers()
        exact = renderer.grid.to_image(
            exact_density(
                renderer.points, centers, renderer.kernel, renderer.gamma,
                renderer.weight,
            )
        )
        assert (outcome.lower <= exact + 1e-12).all()
        assert (exact <= outcome.upper + 1e-12).all()

    def test_degraded_sidecar_schema(self, renderer):
        outcome = renderer.render_eps_anytime(
            0.05, tile_size=8, budget=Budget(max_kernel_evals=2500)
        )
        payload = outcome.degraded.as_dict()
        encoded = json.loads(json.dumps(payload))
        assert encoded["reason"] == STOP_KERNEL_BUDGET
        assert 0.0 <= encoded["resolved_fraction"] <= 1.0
        assert encoded["budget"]["max_kernel_evals"] == 2500

    def test_tau_partial_is_conservatively_cold(self, renderer):
        mu, sigma = renderer.density_stats()
        tau = mu + 0.1 * sigma
        outcome = renderer.render_tau_anytime(
            tau, tile_size=8, budget=Budget(max_kernel_evals=2000)
        )
        reference = renderer.render(RenderRequest.for_tau(tau, options=RenderOptions(tile_size=8)))
        partial = outcome.image.astype(bool)
        # Undecided pixels render cold: no false positives vs the
        # complete reference mask.
        assert not (partial & ~reference).any()

    def test_anytime_complete_matches_strict_path(self, renderer):
        strict = renderer.render(RenderRequest.for_eps(0.05, options=RenderOptions(tile_size=8)))
        outcome = renderer.render_eps_anytime(0.05, tile_size=8)
        assert outcome.complete
        assert np.array_equal(outcome.image, strict)
        assert bool(np.asarray(outcome.resolved).all())


class TestFaultRecovery:
    def test_worker_crashes_recovered_bit_identical(self, renderer):
        reference = renderer.render(RenderRequest.for_eps(0.05, options=RenderOptions(tile_size=8)))
        outcome = renderer.render_eps_anytime(
            0.05, tile_size=8, workers=3,
            faults="worker_crash:0.05,nan_bounds:0.05,seed:3",
        )
        assert outcome.complete
        assert np.array_equal(outcome.image, reference)

    def test_fault_env_engages_tiled_render(self, renderer, monkeypatch):
        reference = renderer.render(RenderRequest.for_eps(0.05, options=RenderOptions(tile_size=8)))
        monkeypatch.setenv("REPRO_FAULTS", "worker_crash:0.1,seed:1")
        assert np.array_equal(
            renderer.render(RenderRequest.for_eps(0.05, options=RenderOptions(tile_size=8))),
            reference,
        )

    def test_exhausted_retries_surface_failed_tiles(self, renderer):
        outcome = renderer.render_eps_anytime(
            0.05, tile_size=8,
            faults="worker_crash:1.0,seed:0",
            retry=RetryPolicy(max_attempts=2, backoff_s=0.0001),
        )
        degraded = outcome.degraded
        assert degraded is not None
        assert degraded.reason == "tile-failures"
        assert degraded.tiles_failed
        # The strict facade raises instead of returning a partial image.
        with pytest.raises(TransientTileError):
            renderer.render(
                RenderRequest.for_eps(
                    0.05,
                    options=RenderOptions(
                        tile_size=8,
                        faults="worker_crash:1.0,seed:0",
                        retry=RetryPolicy(max_attempts=2, backoff_s=0.0001),
                    ),
                )
            )

    def test_quarantine_retires_bad_worker(self):
        tiles = [np.array([i], dtype=np.intp) for i in range(8)]
        lower = np.zeros(8)
        upper = np.zeros(8)
        bad_worker = []
        lock = threading.Lock()

        def make_engine(worker_id):
            return worker_id

        def evaluate(engine, pixels):
            with lock:
                if not bad_worker:
                    bad_worker.append(engine)
            if engine == bad_worker[0]:
                raise TransientTileError("injected persistent failure")
            values = pixels.astype(np.float64)
            return values, values + 1.0

        def store(index, pixels, lo, up):
            lower[pixels] = lo
            upper[pixels] = up

        report = run_tiles(
            tiles, evaluate, store, lambda lo, up: True, make_engine,
            token=CancellationToken(),
            retry=RetryPolicy(
                max_attempts=10, backoff_s=0.0001, quarantine_after=2
            ),
            workers=3,
        )
        assert report.all_completed
        assert bad_worker[0] in report.quarantined
        expected = np.arange(8, dtype=np.float64)
        assert np.array_equal(lower, expected)
        assert np.array_equal(upper, expected + 1.0)

    def test_fatal_error_propagates(self):
        tiles = [np.array([0], dtype=np.intp)]

        def evaluate(engine, pixels):
            raise CheckpointError("fatal, not transient")

        with pytest.raises(CheckpointError):
            run_tiles(
                tiles, evaluate, lambda *a: None, lambda lo, up: True,
                lambda worker_id: None, token=CancellationToken(),
            )


class TestCheckpointResume:
    def test_resume_bit_identical(self, renderer, tmp_path):
        reference = renderer.render(RenderRequest.for_eps(0.05, options=RenderOptions(tile_size=8)))
        ckpt = tmp_path / "render.npz"
        partial = renderer.render_eps_anytime(
            0.05, tile_size=8,
            budget=Budget(max_kernel_evals=4000), checkpoint=str(ckpt),
        )
        assert not partial.complete
        ledger = TileLedger.load(ckpt)
        resumed = renderer.render_eps_anytime(
            0.05, tile_size=8, resume_from=str(ckpt)
        )
        assert resumed.complete
        assert np.array_equal(resumed.image, reference)
        # Completed tiles were not recomputed: the resumed envelope for
        # those pixels equals the checkpointed one bit-for-bit.
        for tile in ledger.completed_tiles():
            pixels = list(renderer.grid.tiles(8))[tile]
            flat_lower = np.asarray(resumed.lower).ravel()
            assert np.array_equal(flat_lower[pixels], ledger.lower[pixels])

    def test_signature_mismatch_rejected(self, renderer, tmp_path):
        ckpt = tmp_path / "render.npz"
        renderer.render_eps_anytime(0.05, tile_size=8, checkpoint=str(ckpt))
        with pytest.raises(CheckpointError):
            renderer.render_eps_anytime(0.04, tile_size=8, resume_from=str(ckpt))
        with pytest.raises(CheckpointError):
            renderer.render_tau_anytime(0.01, tile_size=8, resume_from=str(ckpt))

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "corrupt.npz"
        path.write_bytes(b"not an npz file")
        with pytest.raises(CheckpointError):
            TileLedger.load(path)

    def test_checkpoint_written_on_fault_giveup(self, renderer, tmp_path):
        ckpt = tmp_path / "render.npz"
        outcome = renderer.render_eps_anytime(
            0.05, tile_size=8, checkpoint=str(ckpt),
            faults="worker_crash:0.4,seed:5",
            retry=RetryPolicy(max_attempts=2, backoff_s=0.0001),
        )
        assert ckpt.exists()
        ledger = TileLedger.load(ckpt)
        completed = ledger.completed_tiles()
        assert len(completed) == outcome.degraded.tiles_completed
        # Resume finishes the failed tiles and converges to the
        # fault-free image.
        resumed = renderer.render_eps_anytime(
            0.05, tile_size=8, resume_from=str(ckpt)
        )
        assert resumed.complete
        assert np.array_equal(
            resumed.image,
            renderer.render(RenderRequest.for_eps(0.05, options=RenderOptions(tile_size=8))),
        )


class TestProgressiveResilience:
    def test_budget_stops_with_reason(self):
        from repro.visual.progressive import ProgressiveRenderer

        progressive = ProgressiveRenderer(
            small_points(), resolution=(24, 18), eps=0.05
        )
        result = progressive.run(budget=Budget(max_kernel_evals=3000))
        assert not result.complete
        assert result.stop_reason == STOP_KERNEL_BUDGET

    def test_complete_run_has_no_reason(self):
        from repro.visual.progressive import ProgressiveRenderer

        progressive = ProgressiveRenderer(
            small_points(), resolution=(12, 10), eps=0.05
        )
        result = progressive.run()
        assert result.complete
        assert result.stop_reason is None

    def test_max_pixels_reason(self):
        from repro.visual.progressive import ProgressiveRenderer

        progressive = ProgressiveRenderer(
            small_points(), resolution=(24, 18), eps=0.05
        )
        result = progressive.run(max_pixels=40)
        assert result.stop_reason == "max-pixels"


class TestCliSidecar:
    def test_deadline_writes_sidecar(self, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        out = tmp_path / "render.png"
        code = main(
            [
                "render", "--dataset", "crime", "--n", "800",
                "--width", "32", "--height", "24", "--eps", "0.05",
                "--tile-size", "8", "--deadline-ms", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        sidecar = tmp_path / "render.png.degraded.json"
        assert sidecar.exists()
        payload = json.loads(sidecar.read_text())
        assert payload["reason"] == STOP_DEADLINE
        assert payload["pixels_total"] == 32 * 24

    def test_complete_render_writes_no_sidecar(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "render.png"
        code = main(
            [
                "render", "--dataset", "crime", "--n", "500",
                "--width", "24", "--height", "16", "--eps", "0.05",
                "--tile-size", "8", "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        assert not (tmp_path / "render.png.degraded.json").exists()


class TestExperimentBatchResilience:
    def test_keep_going_yields_error_and_continues(self):
        from repro.errors import ReproError
        from repro.experiments.runner import run_experiments

        outcomes = list(
            run_experiments(["no-such-experiment", "fig18"], keep_going=True)
        )
        assert [name for name, _ in outcomes] == ["no-such-experiment", "fig18"]
        assert isinstance(outcomes[0][1], ReproError)
        assert not isinstance(outcomes[1][1], ReproError)

    def test_default_aborts_on_first_failure(self):
        from repro.errors import ReproError
        from repro.experiments.runner import run_experiments

        with pytest.raises(ReproError):
            list(run_experiments(["no-such-experiment", "fig18"]))
