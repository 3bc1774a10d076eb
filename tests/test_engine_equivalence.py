"""The refactored training core is behaviorally identical to its ancestors.

The engine/strategy/driver refactor replaced ``ShmCaffeWorker`` and
``HybridWorker``'s welded-in loops with one ``TrainingEngine`` and
pluggable exchange strategies.  These tests pin the refactor down:

* **golden equivalence** — seeded runs must reproduce, bit for bit, the
  per-iteration loss trajectories captured from the pre-refactor classes
  for ShmCaffe-A (overlap on/off), ShmCaffe-H, and the stale-read
  ablation;
* **lr canonicalization** — every platform records the learning rate
  actually applied at that step (``HybridWorker`` used to derive it
  separately);
* **validation** — misconfigurations that used to be silently ignored now
  raise;
* **seams** — the ``smb_asgd`` strategy end to end, HSGD root overlap on
  the update-thread telemetry track, and the single-call-site rule for
  the eqs. (5)-(7) math.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from repro import telemetry
from repro.caffe import SolverConfig, SyntheticImageDataset
from repro.core import (
    DistributedTrainingManager,
    OverlapDriver,
    SEASGDExchange,
    ShmCaffeConfig,
    SMBAsgdExchange,
    TerminationCriterion,
)
from repro.smb import RetryPolicy, SMBClient, SMBServer
from repro.smb.faults import FaultPlan

from .helpers import build_engine
from .test_netspec import small_spec

#: Per-iteration losses captured from the pre-refactor ShmCaffeWorker /
#: HybridWorker classes (commit 8034117) under the exact seeded setup of
#: ``run_job`` below.  The refactored engine must reproduce them exactly.
#: Re-captured once, at PR 27, when ``Convolution.backward`` moved onto
#: two GEMMs (its sums run in another order: a few losses moved by an ulp
#: or two); through PR 26 they equalled the pre-refactor classes' bits.
GOLDEN_LOSSES = {
    "a": [[1.9139208793640137, 1.4326462745666504, 1.5501585006713867,
           1.278092861175537, 1.4465742111206055, 1.3167545795440674]],
    "hybrid": [[1.3550125360488892, 1.5377461910247803, 1.5437177419662476,
                1.4608427286148071, 1.5365021228790283],
               [1.3739042282104492, 1.3872113227844238, 1.4314541816711426,
                1.4363481998443604, 1.569166660308838]],
}
GOLDEN_HYBRID_LRS = [[0.05] * 5, [0.05] * 5]


def golden_dataset():
    return SyntheticImageDataset(
        num_classes=4, image_size=8, train_per_class=40, test_per_class=8,
        noise=0.7, seed=11,
    )


def run_job(
    num_workers=1,
    group_size=1,
    iterations=6,
    overlap=True,
    stale=False,
    algorithm="seasgd",
    solver=None,
    telemetry_session=None,
    retry_policy=None,
    fault_plan=None,
    criterion=TerminationCriterion.MASTER_STOP,
):
    """The seeded job the goldens were captured from (and variations)."""
    config = ShmCaffeConfig(
        solver=solver if solver is not None else SolverConfig(
            base_lr=0.05, momentum=0.9
        ),
        moving_rate=0.2,
        update_interval=1,
        max_iterations=iterations,
        termination=criterion,
        overlap_updates=overlap,
        stale_global_read=stale,
        algorithm=algorithm,
    )
    manager = DistributedTrainingManager(
        spec_factory=lambda: small_spec(batch=4),
        config=config,
        dataset=golden_dataset(),
        batch_size=4,
        num_workers=num_workers,
        group_size=group_size,
        seed=3,
        telemetry=telemetry_session,
        retry_policy=retry_policy,
        fault_plan=fault_plan,
    )
    return manager.run(timeout=300)


class TestGoldenEquivalence:
    """Refactored engine == pre-refactor workers, bit for bit."""

    def test_shmcaffe_a_sync_matches_prerefactor(self):
        result = run_job(overlap=False)
        assert [h.losses for h in result.histories] == GOLDEN_LOSSES["a"]

    def test_shmcaffe_a_overlap_matches_prerefactor(self):
        result = run_job(overlap=True)
        assert [h.losses for h in result.histories] == GOLDEN_LOSSES["a"]

    def test_stale_read_matches_prerefactor(self, monkeypatch):
        # The stale ablation is inherently racy; force the deferred
        # exchange inline (exactly how the pre-refactor golden was
        # captured) so the trajectory is deterministic.
        monkeypatch.setattr(
            OverlapDriver, "submit", lambda self, thunk: thunk()
        )
        result = run_job(stale=True)
        assert [h.losses for h in result.histories] == GOLDEN_LOSSES["a"]

    @pytest.mark.parametrize("overlap", [False, True])
    def test_hybrid_matches_prerefactor(self, overlap):
        # The pre-refactor HybridWorker always exchanged synchronously;
        # with a single group the overlapped root is provably identical
        # (the flush is awaited before the only reader's next read), so
        # one golden pins both modes.
        result = run_job(
            num_workers=2, group_size=2, iterations=5, overlap=overlap
        )
        assert [h.losses for h in result.histories] == GOLDEN_LOSSES[
            "hybrid"
        ]
        assert [
            [r.learning_rate for r in h.records] for h in result.histories
        ] == GOLDEN_HYBRID_LRS


class TestLearningRateCanonicalization:
    """Every platform records the lr actually applied at that step."""

    STEP_SOLVER = SolverConfig(
        base_lr=0.05, momentum=0.9, lr_policy="step", gamma=0.5, stepsize=2
    )

    def check_records(self, histories):
        for history in histories:
            assert history.records, "no iterations recorded"
            for record in history.records:
                # Iteration i in the history was trained with the solver
                # clock at i-1; the canonical lr is the one applied then.
                assert record.learning_rate == pytest.approx(
                    self.STEP_SOLVER.learning_rate(record.iteration - 1)
                )

    def test_seasgd_records_applied_lr(self):
        result = run_job(iterations=5, solver=self.STEP_SOLVER)
        self.check_records(result.histories)

    def test_hybrid_records_applied_lr(self):
        # The pre-refactor HybridWorker derived this value through a
        # separate formula; the engine now records the strategy's
        # stats["lr"] everywhere.
        result = run_job(
            num_workers=2, group_size=2, iterations=5,
            solver=self.STEP_SOLVER,
        )
        self.check_records(result.histories)

    def test_smb_asgd_records_applied_lr(self):
        result = run_job(
            iterations=5, algorithm="smb_asgd", solver=self.STEP_SOLVER
        )
        self.check_records(result.histories)


class TestValidation:
    """Misconfigurations fail loudly instead of silently degrading."""

    def test_update_interval_below_one_rejected(self):
        with pytest.raises(ValueError, match="update_interval"):
            ShmCaffeConfig(update_interval=0)

    def test_stale_read_with_non_seasgd_algorithm_rejected(self):
        with pytest.raises(ValueError, match="stale_global_read"):
            ShmCaffeConfig(stale_global_read=True, algorithm="smb_asgd")

    def test_stale_read_with_groups_rejected(self):
        # HybridWorker used to drop the ablation on the floor.
        with pytest.raises(ValueError, match="stale_global_read"):
            DistributedTrainingManager(
                spec_factory=lambda: small_spec(batch=4),
                config=ShmCaffeConfig(stale_global_read=True),
                dataset=golden_dataset(),
                batch_size=4,
                num_workers=2,
                group_size=2,
            )

    def test_non_seasgd_algorithm_with_groups_rejected(self):
        with pytest.raises(ValueError, match="smb_asgd"):
            DistributedTrainingManager(
                spec_factory=lambda: small_spec(batch=4),
                config=ShmCaffeConfig(algorithm="smb_asgd"),
                dataset=golden_dataset(),
                batch_size=4,
                num_workers=2,
                group_size=2,
            )

    def test_unknown_algorithm_rejected_at_worker_build(self):
        from repro.caffe import Net

        server = SMBServer(capacity=1 << 22)
        client = SMBClient.in_process(server)
        net = Net(small_spec(batch=4), seed=0)
        from repro.caffe.params import FlatParams

        count = FlatParams(net).count
        global_array = client.create_array("W_g", count)
        with pytest.raises(ValueError, match="unknown exchange algorithm"):
            build_engine(
                rank=0,
                net=net,
                config=ShmCaffeConfig(algorithm="definitely_not_real"),
                global_weights=global_array,
                batches=iter([]),
            )


class TestHsgdRootOverlap:
    """HSGD roots now hide their write side on the Fig.-6 update thread."""

    def test_root_wwi_ugw_land_on_update_thread_track(self):
        with telemetry.session("trace") as tel:
            result = run_job(
                num_workers=2, group_size=2, iterations=4, overlap=True,
                telemetry_session=tel,
            )
            assert all(h.completed_iterations == 4 for h in result.histories)
            events = tel.trace.events()
        spans = {
            (e["pid"], e["tid"], e["name"])
            for e in events if e.get("ph") == "X"
        }
        # Root = rank 0: its flushes run on the update-thread lane (tid 1),
        # one ugw span each (dW_x rides in the accumulate: no wwi).
        assert (0, 1, "ugw") in spans
        assert not any(name == "wwi" for _, _, name in spans)
        # The read side stays deliberately synchronous on the main lane.
        assert (0, 0, "rgw") in spans
        assert (0, 0, "block") in spans
        # The non-root member (rank 1) never touches SMB.
        assert not any(
            pid == 1 and name in ("wwi", "ugw", "rgw") for pid, _, name in spans
        )

    def test_root_sync_mode_keeps_flushes_on_main_track(self):
        with telemetry.session("trace") as tel:
            run_job(
                num_workers=2, group_size=2, iterations=3, overlap=False,
                telemetry_session=tel,
            )
            events = tel.trace.events()
        spans = {
            (e["pid"], e["tid"], e["name"])
            for e in events if e.get("ph") == "X"
        }
        assert (0, 0, "ugw") in spans
        assert not any(name == "wwi" for _, _, name in spans)
        assert not any(tid == 1 for _, tid, _ in spans)


class TestSmbAsgdExchange:
    """The Downpour-over-SMB strategy runs end to end through the stack."""

    @pytest.mark.parametrize("overlap", [False, True])
    def test_two_worker_run_completes(self, overlap):
        result = run_job(
            num_workers=2, iterations=5, algorithm="smb_asgd",
            overlap=overlap,
        )
        # MASTER_STOP: the master runs its full budget; the other worker
        # winds down as soon as the master is done.
        assert result.histories[0].completed_iterations == 5
        assert all(
            h.completed_iterations >= 1 for h in result.histories
        )
        assert all(
            np.isfinite(h.losses).all() for h in result.histories
        )
        assert np.isfinite(result.final_global_weights).all()

    def test_pushes_reach_the_global_weights(self):
        # The server-side W_g must move: every iteration accumulates
        # -lr * gradient into it (apply-on-arrival, no elastic pull).
        from repro.caffe import Net
        from repro.caffe.params import FlatParams

        initial = FlatParams(Net(small_spec(batch=4), seed=3)).get_vector()
        result = run_job(iterations=4, algorithm="smb_asgd", overlap=False)
        assert not np.allclose(result.final_global_weights, initial)

    def test_registered_in_exchange_registry(self):
        from repro.core import make_exchange

        client = SMBClient.in_process(SMBServer(capacity=1 << 20))
        global_weights = client.create_array("a", 8)
        for algorithm, strategy in (
            ("seasgd", SEASGDExchange), ("smb_asgd", SMBAsgdExchange),
        ):
            built = make_exchange(
                ShmCaffeConfig(algorithm=algorithm), global_weights
            )
            assert type(built) is strategy


class TestSingleExchangeImplementation:
    """Grep-level acceptance: eqs. (5)-(7) math has one call site."""

    @staticmethod
    def _callers(function: str) -> set:
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        pattern = re.compile(rf"(?<!def )\b{function}\(")
        return {
            path.relative_to(src).as_posix()
            for path in src.rglob("*.py")
            if pattern.search(path.read_text(encoding="utf-8"))
        }

    def test_elastic_pull_has_one_call_site(self):
        # The only *training-stack* call site of the in-place kernel is
        # the strategy layer; the allocating pure functions it replaced
        # there are composed only inside the pure-math module (they stay
        # as the oracle the kernel is tested against).
        assert self._callers("elastic_pull_") == {"core/exchange.py"}
        assert self._callers("weight_increment") == {"core/seasgd.py"}
        assert self._callers("apply_increment_local") == {"core/seasgd.py"}


@pytest.mark.chaos
class TestEngineDegradation:
    """Kill-1-rank graceful degradation works through the engine path."""

    FAST_RETRY = RetryPolicy(
        max_attempts=6, base_backoff=0.001, max_backoff=0.01,
        request_timeout=10.0, seed=7,
    )

    def test_seasgd_kill_one_rank_survivors_complete(self):
        result = run_job(
            num_workers=4, iterations=6,
            criterion=TerminationCriterion.AVERAGE_ITERATIONS,
            retry_policy=self.FAST_RETRY,
            fault_plan=FaultPlan(
                seed=77, error_rate=0.05, kill_rank=2, kill_after=15
            ),
        )
        assert result.failed_ranks == [2]
        assert sorted(result.surviving_ranks) == [0, 1, 3]
        assert result.histories[2].failed and result.histories[2].failure
        survivor_iters = [
            h.completed_iterations
            for h in result.histories if not h.failed
        ]
        assert np.mean(survivor_iters) >= 6
        assert np.isfinite(result.final_global_weights).all()

    @pytest.mark.parametrize("overlap", [False, True])
    def test_hsgd_root_loss_winds_its_group_down(self, overlap):
        # Rank 2 roots the second group of two.  Its SMB path dies, so it
        # stops exchanging with W_g, keeps the broadcasts its member is
        # blocked on, and stops the group in lockstep; the other group
        # trains on.
        with telemetry.session("metrics") as tel:
            result = run_job(
                num_workers=4, group_size=2, iterations=8, overlap=overlap,
                criterion=TerminationCriterion.AVERAGE_ITERATIONS,
                retry_policy=self.FAST_RETRY,
                fault_plan=FaultPlan(kill_rank=2, kill_after=12),
                telemetry_session=tel,
            )
            fatal = tel.registry.counter("worker2/faults/fatal").value
        histories = result.histories
        assert result.failed_ranks == [2]
        assert not histories[3].failed
        assert (
            histories[3].completed_iterations
            == histories[2].completed_iterations
        )
        assert histories[2].failure.startswith("TransportClosedError")
        assert fatal == 1
        assert np.isfinite(result.final_global_weights).all()

    def test_smb_asgd_kill_one_rank_survivors_complete(self):
        # The degradation path is strategy-agnostic: the new Downpour
        # strategy inherits it from the engine untouched.
        result = run_job(
            num_workers=4, iterations=6, algorithm="smb_asgd",
            criterion=TerminationCriterion.AVERAGE_ITERATIONS,
            retry_policy=self.FAST_RETRY,
            fault_plan=FaultPlan(seed=21, kill_rank=1, kill_after=12),
        )
        assert result.failed_ranks == [1]
        survivors = [h for h in result.histories if not h.failed]
        assert len(survivors) == 3
        assert all(h.completed_iterations >= 1 for h in survivors)
        assert np.isfinite(result.final_global_weights).all()
