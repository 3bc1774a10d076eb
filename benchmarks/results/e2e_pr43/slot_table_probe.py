"""Slot-table probe: does a joiner find a free slot when the membership
registry and the control block disagree?

Two scenarios, each an elastic run of 2 launch workers with room for 4
(AVERAGE_ITERATIONS, in-process server, 60 iterations):

* ``finished`` — a joiner is spawned once ``rank1`` has left the
  registry after finishing (its slot keeps its final progress);
* ``dropped`` — once ``rank1`` has 2 heartbeats its record is removed
  with ``registry.leave`` while it trains (what a lapsed lease does),
  then a joiner is spawned.

A third, ``autoscale_off``, runs ``shmcaffe.train(autoscale=True)``
under ``telemetry.session("off")`` and reports the supervisor's
decisions and how many joiners it spawned.

Prints one JSON line per run: the joiner's error, slot, generation and
iterations, or the decision counts.  Run against a tree with

    PYTHONPATH=<tree>/src python3 slot_table_probe.py [--runs 3]
"""

import argparse
import collections
import json
import tempfile
import threading
import time

from repro import telemetry
from repro.caffe import SolverConfig, SyntheticImageDataset
from repro.core import (
    DistributedTrainingManager,
    ShmCaffeConfig,
    TerminationCriterion,
)
from repro.experiments.recovery import drill_spec
from repro.platforms import shmcaffe
from repro.smb import SMBServer


def dataset(seed=5, per_class=40):
    return SyntheticImageDataset(
        num_classes=4, image_size=8, train_per_class=per_class,
        test_per_class=8, noise=0.7, seed=seed,
    )


def joiner_run(scenario, workdir):
    manager = DistributedTrainingManager(
        spec_factory=lambda: drill_spec(4),
        config=ShmCaffeConfig(
            solver=SolverConfig(base_lr=0.05, momentum=0.9),
            moving_rate=0.2,
            max_iterations=60,
            termination=TerminationCriterion.AVERAGE_ITERATIONS,
        ),
        dataset=dataset(),
        batch_size=4,
        num_workers=2,
        server=SMBServer(capacity=1 << 22),
        seed=5,
        registry_dir=f"{workdir}/registry",
        elastic=True,
        max_workers=4,
    )
    registry = manager.registry

    def ready(view):
        if scenario == "finished":
            # Publication + both launch joins make epoch 3.
            return view.epoch >= 3 and "rank1" not in view.entry().members
        record = view.entry().members.get("rank1")
        if record is None or record.heartbeats < 2:
            return False
        registry.leave("rank1")
        return True

    spawned = []

    def spawner():
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if ready(registry.read()):
                spawned.append(manager.spawn_worker(timeout=60.0))
                return
            time.sleep(0.002)

    thread = threading.Thread(target=spawner, daemon=True)
    thread.start()
    result = manager.run(timeout=120)
    thread.join(60.0)
    if not spawned:
        return {"scenario": scenario, "error": "never spawned"}
    joiner = spawned[0]
    joiner.join(120.0)
    return {
        "scenario": scenario,
        "launch_failed": result.failed_ranks,
        "joiner_error": joiner.error,
        "joiner_slot": joiner.slot,
        "joiner_generation": joiner.generation,
        "joiner_iterations": (
            None if joiner.history is None
            else joiner.history.completed_iterations
        ),
    }


def autoscale_off_run(workdir):
    supervisors = []
    real = shmcaffe.AutoscaleSupervisor

    def keep(manager, controller):
        supervisor = real(manager, controller, interval=0.05)
        supervisors.append(supervisor)
        return supervisor

    shmcaffe.AutoscaleSupervisor = keep
    try:
        with telemetry.session("off"):
            started = time.perf_counter()
            result = shmcaffe.train(
                lambda: drill_spec(4), dataset(seed=1, per_class=30),
                SolverConfig(base_lr=0.05, momentum=0.9),
                batch_size=4, iterations=150, num_workers=2,
                elastic=True, max_workers=4,
                registry_dir=f"{workdir}/registry", autoscale=True,
            )
            seconds = time.perf_counter() - started
    finally:
        shmcaffe.AutoscaleSupervisor = real
    decisions = supervisors[0].decisions
    return {
        "scenario": "autoscale_off",
        "seconds": round(seconds, 2),
        "decisions": dict(collections.Counter(d.action for d in decisions)),
        "first_reason": decisions[0].reason if decisions else None,
        "final_accuracy": round(result.final_accuracy, 3),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args()
    for scenario in ("finished", "dropped", "autoscale_off"):
        for _ in range(args.runs):
            with tempfile.TemporaryDirectory() as workdir:
                if scenario == "autoscale_off":
                    line = autoscale_off_run(workdir)
                else:
                    line = joiner_run(scenario, workdir)
            print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
