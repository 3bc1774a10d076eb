"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``reproduce``   — regenerate the paper's tables/figures
  (``--analytic`` for the model-only ones, ``--full`` for full-length
  training).
* ``train``       — run one platform on the synthetic task.
* ``smb serve``   — start a standalone TCP Soft Memory Box server,
  optionally durable (``--journal-dir``).
* ``smb chaos``   — replay a seeded fault-injection scenario against a
  small SEASGD job (retry/worker-loss drill; see
  ``docs/fault_tolerance.md``).
* ``smb drill``   — the server-loss drill: kill a journaled server
  mid-run, restart it from its journal, verify every worker re-attaches.
* ``checkpoint``  — ``inspect`` / ``resume`` a coordinated-checkpoint
  directory; ``save`` forces a durable server snapshot.
* ``bandwidth``   — run the Fig. 7 measurement against a server.
* ``telemetry``   — inspect telemetry artifacts saved by a run
  (``telemetry report <metrics.json>``).

Global flags (before the command): ``--log-level`` picks the logging
verbosity, ``--telemetry {off,metrics,trace}`` turns on the telemetry
subsystem for the whole process, and ``--telemetry-out DIR`` saves the
collected metrics (and trace, in trace mode) when the command finishes.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from .telemetry import LOG_LEVELS, MODES, configure, current, setup_logging


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from .experiments import runner

    print(
        runner.run_all(
            quick=not args.full, include_training=not args.analytic
        )
    )
    return 0


def _telemetry_meta(args: argparse.Namespace) -> dict:
    """Run context stored next to saved metrics for offline reporting."""
    return {
        "platform": args.platform,
        "model": args.model,
        "workers": args.workers,
        "group_size": args.group_size,
        "update_interval": args.update_interval,
    }


def _finish_telemetry(args: argparse.Namespace, meta: dict) -> None:
    """Print (and optionally save) what the current session collected."""
    tel = current()
    if not tel.enabled:
        return
    from .telemetry.report import report_from_session

    print()
    print(report_from_session(tel, meta))
    if args.telemetry_out:
        paths = tel.save(args.telemetry_out, meta)
        for kind, path in sorted(paths.items()):
            print(f"telemetry {kind} written to {path}")


def _cmd_train(args: argparse.Namespace) -> int:
    import tempfile

    from .experiments.convergence import ConvergenceSetup, run_platform

    setup = ConvergenceSetup(
        model=args.model,
        epochs=args.epochs,
        train_per_class=args.samples_per_class,
        noise=args.noise,
        batch_size=args.batch_size,
        base_lr=args.lr,
        moving_rate=args.moving_rate,
        update_interval=args.update_interval,
    )
    registry_dir = args.registry_dir or None
    if args.elastic and registry_dir is None:
        registry_dir = tempfile.mkdtemp(prefix="repro-registry-")
        print(f"elastic: membership registry in {registry_dir}")
    result = run_platform(
        setup, args.platform, workers=args.workers,
        group_size=args.group_size,
        elastic=args.elastic,
        max_workers=args.max_workers,
        registry_dir=registry_dir,
        autoscale=args.elastic,
    )
    print(f"platform:   {result.platform}")
    print(f"workers:    {result.num_workers}")
    print(f"final acc:  {result.final_accuracy:.3f}")
    print(f"final loss: {result.final_loss:.3f}")
    _finish_telemetry(args, _telemetry_meta(args))
    return 0


def _cmd_smb_members(args: argparse.Namespace) -> int:
    """Inspect an elastic run's membership registry."""
    import json as json_mod
    import os

    from .smb import MembershipRegistry

    if not os.path.isdir(args.registry):
        print(f"error: no registry directory at {args.registry}",
              file=sys.stderr)
        return 1
    registry = MembershipRegistry(args.registry)
    view = registry.read()
    if not view.job:
        print(f"error: no job published in {args.registry}",
              file=sys.stderr)
        return 1
    if args.json:
        print(json_mod.dumps(view.to_doc(), indent=2, sort_keys=True))
        return 0
    print(f"registry:  {args.registry}")
    print(f"version:   {view.version}   epoch: {view.epoch}   "
          f"capacity: {view.job.get('capacity')}")
    mode = view.server.get("mode", "?")
    if mode == "tcp":
        print(f"server:    tcp {view.server.get('host')}:"
              f"{view.server.get('port')}")
    else:
        print(f"server:    {mode}")
    print(f"job:       namespace={view.job.get('namespace', '')!r} "
          f"count={view.job.get('count')} "
          f"algorithm={view.job.get('algorithm')}")
    members = view.live_members()
    print(f"members:   {len(members)} live")
    for member in members:
        print(f"  {member.member_id:>12s}  slot {member.slot}  "
              f"gen {member.generation}  {member.status:>8s}  "
              f"{member.heartbeats} heartbeat(s)")
    return 0


def _cmd_smb_tenants(args: argparse.Namespace) -> int:
    """Per-namespace usage, quotas and op counters of a live server."""
    import json as json_mod

    from .smb import SMBClient, errors

    try:
        with SMBClient.connect(_parse_address(args.address)) as client:
            stats = client.tenant_stats()
    except errors.SMBError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json_mod.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"{'tenant':<16s} {'quota':>14s} {'used':>14s} "
          f"{'segments':>8s} {'ops':>10s} {'denied':>7s}")
    for name in sorted(stats):
        entry = stats[name]
        counters = entry.get("counters", {})
        quota = entry.get("quota")
        print(f"{name:<16s} "
              f"{'unlimited' if quota is None else str(quota):>14s} "
              f"{entry.get('used', 0):>14d} "
              f"{entry.get('segments', 0):>8d} "
              f"{counters.get('ops', 0):>10d} "
              f"{counters.get('quota_denials', 0):>7d}")
    return 0


def _cmd_smb_elastic_drill(args: argparse.Namespace) -> int:
    """The ``--scenario elastic`` branch of ``smb chaos``."""
    import inspect
    import tempfile

    from .experiments.elastic import run_elastic_drill

    # The chaos flags default per scenario: the drill gets only what was
    # set and keeps its own defaults otherwise.
    flags = (("num_workers", args.workers), ("iterations", args.iterations))
    overrides = {name: value for name, value in flags if value is not None}
    drill_defaults = inspect.signature(run_elastic_drill).parameters
    workers = overrides.get("num_workers", drill_defaults["num_workers"].default)
    if workers >= args.max_workers:
        print(f"error: {workers} launch workers leave the joiner no slot under "
              f"--max-workers {args.max_workers}", file=sys.stderr)
        return 2
    workdir = args.workdir or tempfile.mkdtemp(prefix="elastic-drill-")
    print(f"elastic drill: {workers} launch workers, "
          f"ceiling {args.max_workers}, seed {args.seed}")
    print(f"  join after {args.join_at} heartbeat(s), retire after "
          f"{args.retire_after}; workdir {workdir}")
    report = run_elastic_drill(
        workdir,
        **overrides,
        max_workers=args.max_workers,
        join_at=args.join_at,
        retire_after=args.retire_after,
        seed=args.seed,
        batch_size=args.batch_size,
        timeout=args.timeout,
    )
    print()
    for event in report.events:
        print(f"  {event}")
    print()
    for history in report.result.histories:
        status = ("LOST" if history.failed
                  else "retired" if history.retired else "ok")
        print(f"  worker {history.rank}: {status:>7s}  "
              f"{history.completed_iterations:3d} iterations")
    print()
    print(f"  membership epoch: {report.final_epoch}")
    for name in sorted(report.membership_counters):
        print(f"  {name}: {report.membership_counters[name]}")
    joiner, replacement = report.joiner, report.replacement
    if joiner is not None:
        print(f"  joiner:      {joiner.member_id} slot={joiner.slot} "
              f"gen={joiner.generation} retired={report.joiner_retired}")
    if replacement is not None:
        print(f"  replacement: {replacement.member_id} "
              f"slot={replacement.slot} gen={replacement.generation} "
              f"reclaimed={report.slot_reclaimed}")
    if not report.completed:
        print("  outcome: drill FAILED")
        return 1
    print("  outcome: join, retire and slot reclaim all completed")
    return 0


def _cmd_telemetry_report(args: argparse.Namespace) -> int:
    from .telemetry.report import format_report, load

    try:
        payload = load(args.metrics)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(format_report(payload))
    return 0


def _cmd_smb_serve(args: argparse.Namespace) -> int:
    from .smb import TcpSMBServer

    server = TcpSMBServer(
        host=args.host, port=args.port,
        capacity=int(args.capacity_mb * 1e6),
        journal_dir=args.journal_dir or None,
        snapshot_interval=args.snapshot_interval,
        journal_ops=not args.no_journal_ops,
    ).start()
    print(f"SMB server listening on {server.address[0]}:{server.address[1]} "
          f"(capacity {args.capacity_mb:.0f} MB); Ctrl-C to stop")
    if args.journal_dir:
        mode = "snapshots only" if args.no_journal_ops else "snapshots + ops"
        print(f"durable: journal dir {args.journal_dir} ({mode}, "
              f"snapshot every {args.snapshot_interval:.0f}s, "
              f"epoch {server.core.epoch})")
    try:
        import time

        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        server.stop()
        print("stopped")
    return 0


def _cmd_smb_chaos(args: argparse.Namespace) -> int:
    """Replay one seeded fault-injection scenario locally.

    Runs a small SEASGD job on a tiny synthetic task with the requested
    fault plan and retry policy, then reports per-worker outcomes and the
    fault/retry counters — the CLI face of the ``pytest -m chaos`` suite,
    for reproducing a scenario from its seed.  ``--scenario elastic``
    runs the membership churn drill instead (join / retire / reclaim).
    """
    if args.scenario == "elastic":
        return _cmd_smb_elastic_drill(args)
    workers = 4 if args.workers is None else args.workers
    iterations = 6 if args.iterations is None else args.iterations
    from .caffe import SolverConfig, SyntheticImageDataset
    from .core import (
        DistributedTrainingManager,
        ShmCaffeConfig,
        TerminationCriterion,
    )
    from .experiments.recovery import drill_spec
    from .smb import FaultPlan, RetryPolicy
    from .telemetry import session as telemetry_session

    def spec_factory():
        return drill_spec(args.batch_size)

    dataset = SyntheticImageDataset(
        num_classes=4, image_size=8, train_per_class=40,
        test_per_class=8, noise=0.7, seed=args.seed,
    )
    plan = FaultPlan(
        seed=args.seed,
        error_rate=args.error_rate,
        delay_rate=args.delay_rate,
        delay_seconds=args.delay,
        disconnect_rate=args.disconnect_rate,
        kill_rank=args.kill_rank,
        kill_after=args.kill_after,
    )
    policy = RetryPolicy(
        max_attempts=args.retries + 1,
        base_backoff=args.backoff,
        seed=args.seed,
    )
    config = ShmCaffeConfig(
        solver=SolverConfig(base_lr=0.05, momentum=0.9),
        moving_rate=0.2,
        max_iterations=iterations,
        termination=TerminationCriterion.AVERAGE_ITERATIONS,
    )
    print(f"chaos drill: {workers} workers x {iterations} iters, "
          f"seed {args.seed}")
    print(f"  plan:   error={plan.error_rate:.0%} delay={plan.delay_rate:.0%} "
          f"disconnect={plan.disconnect_rate:.0%} "
          f"kill_rank={plan.kill_rank} kill_after={plan.kill_after}")
    print(f"  policy: {policy.max_attempts} attempts, "
          f"base backoff {policy.base_backoff * 1e3:.1f} ms")
    with telemetry_session("metrics") as tel:
        manager = DistributedTrainingManager(
            spec_factory=spec_factory,
            config=config,
            dataset=dataset,
            batch_size=args.batch_size,
            num_workers=workers,
            seed=args.seed,
            telemetry=tel,
            retry_policy=policy,
            fault_plan=plan,
        )
        result = manager.run(timeout=args.timeout)
        snapshot = tel.registry.snapshot()

    def counter(name: str) -> int:
        entry = snapshot.get(name)
        return int(entry["value"]) if entry else 0

    print()
    for history in result.histories:
        status = "LOST" if history.failed else "ok"
        line = (f"  worker {history.rank}: {status:>4s}  "
                f"{history.completed_iterations:3d} iterations")
        if history.failed:
            line += f"  ({history.failure})"
        print(line)
    print()
    print(f"  injected faults: "
          + " ".join(f"{kind}={counter(f'smb/faults/{kind}')}"
                     for kind in ("error", "delay", "disconnect", "kill")))
    print(f"  client retries:  {counter('smb/client/retries')}")
    print(f"  workers lost:    {len(result.failed_ranks)} "
          f"{result.failed_ranks if result.failed_ranks else ''}")
    survivors = result.surviving_ranks
    if not survivors:
        print("  outcome: every worker died")
        return 1
    print(f"  outcome: {len(survivors)}/{workers} workers completed "
          f"training")
    return 0


def _cmd_smb_drill(args: argparse.Namespace) -> int:
    """Kill the SMB server mid-run and restart it from its journal.

    The server-loss companion to ``smb chaos``: instead of flaky
    requests, the whole parameter box dies (``kill -9`` semantics) once
    the fleet has sealed a checkpoint, and a replacement recovers from
    the journal directory on a fresh port.  Success means every worker
    re-attached within its grace window and the run completed with no
    lost ranks.
    """
    import tempfile

    from .experiments.recovery import run_server_loss_drill

    workdir = args.workdir or tempfile.mkdtemp(prefix="smb-drill-")
    print(f"server-loss drill: {args.workers} workers x {args.iterations} "
          f"iters, seed {args.seed}, workdir {workdir}")
    print(f"  kill after checkpoint at iteration {args.kill_at}, "
          f"outage {args.outage:.1f}s, grace {args.grace:.0f}s")
    report = run_server_loss_drill(
        workdir,
        num_workers=args.workers,
        iterations=args.iterations,
        checkpoint_every=args.checkpoint_every,
        kill_at_iteration=args.kill_at,
        outage=args.outage,
        grace=args.grace,
        seed=args.seed,
        batch_size=args.batch_size,
        timeout=args.timeout,
    )
    print()
    for history in report.result.histories:
        status = "LOST" if history.failed else "ok"
        print(f"  worker {history.rank}: {status:>4s}  "
              f"{history.completed_iterations:3d} iterations")
    print()
    print(f"  server: {report.old_address[1]} -> {report.new_address[1]} "
          f"(epoch {report.recovered_epoch}, "
          f"{report.recoveries} recovery)")
    print(f"  client re-attachments: {report.reattachments}")
    print(f"  final loss: {report.result.histories[0].losses[-1]:.4f}")
    if not report.completed:
        print(f"  outcome: FAILED — lost ranks {report.result.failed_ranks}")
        return 1
    print(f"  outcome: all {args.workers} workers survived the server loss")
    return 0


def _parse_address(value: str) -> Tuple[str, int]:
    """``host:port`` as a socket address."""
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit() or not 0 < int(port) < 1 << 16:
        raise ValueError(f"expected host:port, got {value!r}")
    return host, int(port)


def _endpoint(value: str) -> str:
    """argparse ``type`` of every ``host:port`` flag: a malformed value
    is a usage error (exit 2); the flag keeps the string."""
    if value:
        try:
            _parse_address(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _resolve_primary(args: argparse.Namespace):
    """Primary endpoint from --rendezvous or --connect (serve gateway,
    checkpoint save)."""
    from .smb import read_rendezvous

    if args.rendezvous:
        address = read_rendezvous(args.rendezvous)
        if address is None:
            print(f"error: no readable rendezvous at {args.rendezvous}",
                  file=sys.stderr)
            return None
        return address
    if args.connect:
        return _parse_address(args.connect)
    print("error: one of --connect or --rendezvous is required",
          file=sys.stderr)
    return None


def _serve_loop(stop) -> int:
    try:
        import time

        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        stop()
        print("stopped")
    return 0


def _cmd_serve_gateway(args: argparse.Namespace) -> int:
    from .serve import ModelGateway
    from .smb import ReplicaServer, SMBClient

    address = _resolve_primary(args)
    if address is None:
        return 1
    segments = [name for name in args.segments.split(",") if name]
    if not segments:
        print("error: --segments needs at least one name", file=sys.stderr)
        return 1

    def connect() -> "SMBClient":
        return SMBClient.connect(address, tenant=args.tenant)

    replicas = [
        ReplicaServer(
            connect, segments, tenant=args.tenant,
            ring_depth=args.ring_depth,
            name=f"replica-{rank}",
        ).start()
        for rank in range(args.replicas)
    ]
    for replica in replicas:
        if not replica.wait_ready(timeout=args.sync_timeout):
            print(f"error: {replica.name} did not sync within "
                  f"{args.sync_timeout:.0f}s", file=sys.stderr)
            for other in replicas:
                other.stop()
            return 1
    gateway = ModelGateway(
        replicas, host=args.host, port=args.port
    ).start()
    print(f"model gateway over {len(replicas)} replica(s) of "
          f"{address[0]}:{address[1]}")
    print(f"serving HTTP on {gateway.url} "
          f"(GET /v1/models/{args.tenant}/<name>[?version=N]); "
          f"Ctrl-C to stop")

    def stop() -> None:
        gateway.stop()
        for replica in replicas:
            replica.stop()

    return _serve_loop(stop)


def _cmd_checkpoint_inspect(args: argparse.Namespace) -> int:
    import json

    from .core import inspect_checkpoint

    print(json.dumps(inspect_checkpoint(args.directory), indent=2))
    return 0


def _cmd_checkpoint_save(args: argparse.Namespace) -> int:
    """Force a journaled SMB server to write a durable snapshot now."""
    from .smb import SMBClient, errors

    address = _resolve_primary(args)
    if address is None:
        return 1
    try:
        with SMBClient.connect(address) as client:
            seq, epoch = client.request_snapshot()
    except errors.SMBError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"snapshot seq {seq} written (server epoch {epoch})")
    return 0


def _cmd_checkpoint_resume(args: argparse.Namespace) -> int:
    """Continue a run from its latest checkpoint, rebuilt from metadata."""
    from .core import latest_checkpoint
    from .experiments.recovery import build_manager

    info = latest_checkpoint(args.directory)
    if info is None:
        print(f"error: no complete checkpoint under {args.directory}",
              file=sys.stderr)
        return 1
    print(f"resuming from {info.directory} "
          f"(iteration {info.iteration}, {info.num_workers} workers)")
    try:
        manager = build_manager(
            info.metadata,
            resume=args.directory,
            max_iterations=args.iterations or None,
            server_address=(
                _parse_address(args.connect) if args.connect else None
            ),
            rendezvous=args.rendezvous or None,
            server_down_grace=args.grace,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = manager.run(timeout=args.timeout)
    print()
    for history in result.histories:
        status = "LOST" if history.failed else "ok"
        final = f"{history.losses[-1]:.4f}" if history.records else "n/a"
        print(f"  worker {history.rank}: {status:>4s}  "
              f"{history.completed_iterations:3d} iterations, "
              f"final loss {final}")
    return 1 if result.failed_ranks else 0


def _cmd_bandwidth(args: argparse.Namespace) -> int:
    from .perfmodel import measure_smb_bandwidth, modeled_bandwidth_gbs

    address = _parse_address(args.connect) if args.connect else None
    print(f"{'procs':>6s} {'modeled GB/s':>13s} {'measured GB/s':>14s}")
    for processes in (2, 4, 8, 16, 32):
        sample = measure_smb_bandwidth(
            processes, buffer_mb=args.buffer_mb,
            operations=args.operations, address=address,
        )
        print(
            f"{processes:6d} {modeled_bandwidth_gbs(processes):13.2f} "
            f"{sample.gbs:14.2f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--log-level", default="warning", choices=LOG_LEVELS,
        help="logging verbosity for the whole process",
    )
    parser.add_argument(
        "--telemetry", default="off", choices=MODES,
        help="record metrics, or metrics plus a Chrome trace",
    )
    parser.add_argument(
        "--telemetry-out", default="", metavar="DIR",
        help="directory to save metrics.json (and trace.json) into",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    reproduce = commands.add_parser(
        "reproduce", help="regenerate the paper's tables and figures"
    )
    reproduce.add_argument("--analytic", action="store_true",
                           help="model-only experiments (seconds)")
    reproduce.add_argument("--full", action="store_true",
                           help="full-length training experiments")
    reproduce.set_defaults(entry=_cmd_reproduce)

    train = commands.add_parser(
        "train", help="train one platform on the synthetic task"
    )
    train.add_argument("--platform", default="shmcaffe_a",
                       choices=["caffe", "caffe_mpi", "mpi_caffe",
                                "shmcaffe_a", "shmcaffe_h", "smb_asgd"])
    train.add_argument("--model", default="inception_v1",
                       choices=["inception_v1", "resnet_50",
                                "inception_resnet_v2", "vgg16"])
    train.add_argument("--workers", type=int, default=4)
    train.add_argument("--group-size", type=int, default=1)
    train.add_argument("--epochs", type=int, default=8)
    train.add_argument("--batch-size", type=int, default=10)
    train.add_argument("--samples-per-class", type=int, default=200)
    train.add_argument("--noise", type=float, default=0.9)
    train.add_argument("--lr", type=float, default=0.05)
    train.add_argument("--moving-rate", type=float, default=0.2)
    train.add_argument("--update-interval", type=int, default=1)
    train.add_argument("--elastic", action="store_true",
                       help="elastic membership: workers claim slots "
                            "dynamically and an autoscaler may grow or "
                            "shrink the fleet (shmcaffe_a only)")
    train.add_argument("--max-workers", type=int, default=None,
                       help="slot ceiling for --elastic (default: "
                            "--workers, i.e. churn without growth)")
    train.add_argument("--registry-dir", default="",
                       help="membership registry directory for --elastic "
                            "(default: a fresh temp dir); inspect it "
                            "live with `repro smb members`")
    train.set_defaults(entry=_cmd_train)

    smb_tools = commands.add_parser(
        "smb", help="SMB utilities (server, fault-injection replay)"
    )
    smb_sub = smb_tools.add_subparsers(dest="smb_command", required=True)
    serve = smb_sub.add_parser(
        "serve", help="run a standalone TCP Soft Memory Box server"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0)
    serve.add_argument("--capacity-mb", type=float, default=1024.0)
    serve.add_argument(
        "--journal-dir", default="",
        help="make the server durable: snapshots + op journal + "
             "rendezvous file go here; restarting with the same "
             "directory recovers every segment",
    )
    serve.add_argument(
        "--snapshot-interval", type=float, default=30.0,
        help="seconds between periodic durable snapshots",
    )
    serve.add_argument(
        "--no-journal-ops", action="store_true",
        help="snapshot-only durability (bounded lost-delta window "
             "instead of per-op journaling)",
    )
    serve.set_defaults(entry=_cmd_smb_serve)
    chaos = smb_sub.add_parser(
        "chaos",
        help="replay a seeded fault-injection scenario against a small "
             "SEASGD job (or an elastic membership churn drill)",
    )
    chaos.add_argument("--scenario", default="faults",
                       choices=["faults", "elastic"],
                       help="faults: seeded fault injection; elastic: "
                            "join a worker mid-run, retire one, reclaim "
                            "its slot")
    chaos.add_argument("--workers", type=int, default=None,
                       help="default: 4 for faults, the drill's own for elastic")
    chaos.add_argument("--iterations", type=int, default=None,
                       help="default: 6 for faults, the drill's own for elastic")
    chaos.add_argument("--batch-size", type=int, default=4)
    chaos.add_argument("--seed", type=int, default=0,
                       help="seed for data, faults, and retry jitter")
    chaos.add_argument("--error-rate", type=float, default=0.05,
                       help="per-request injected transport-error rate")
    chaos.add_argument("--delay-rate", type=float, default=0.0)
    chaos.add_argument("--delay", type=float, default=0.005,
                       help="seconds per injected delay")
    chaos.add_argument("--disconnect-rate", type=float, default=0.0)
    chaos.add_argument("--kill-rank", type=int, default=None,
                       help="rank whose transport dies permanently")
    chaos.add_argument("--kill-after", type=int, default=15,
                       help="requests the killed rank may complete first")
    chaos.add_argument("--retries", type=int, default=5,
                       help="retry attempts after a transient failure")
    chaos.add_argument("--backoff", type=float, default=0.001,
                       help="base retry backoff, seconds")
    chaos.add_argument("--timeout", type=float, default=300.0,
                       help="overall drill deadline, seconds")
    chaos.add_argument("--max-workers", type=int, default=4,
                       help="[elastic] control-block slot ceiling")
    chaos.add_argument("--join-at", type=int, default=5,
                       help="[elastic] spawn the joiner once rank0 has "
                            "this many registry heartbeats")
    chaos.add_argument("--retire-after", type=int, default=3,
                       help="[elastic] retire the joiner after this many "
                            "of its heartbeats")
    chaos.add_argument("--workdir", default="",
                       help="[elastic] registry root (default: a fresh "
                            "temp dir)")
    chaos.set_defaults(entry=_cmd_smb_chaos)

    members = smb_sub.add_parser(
        "members",
        help="inspect an elastic run's membership registry (job, live "
             "members, leases)",
    )
    members.add_argument("--registry", required=True,
                         help="registry directory of the run")
    members.add_argument("--json", action="store_true",
                         help="dump the raw registry document")
    members.set_defaults(entry=_cmd_smb_members)

    tenants = smb_sub.add_parser(
        "tenants",
        help="per-namespace usage, quotas and op counters of a live "
             "TCP server",
    )
    tenants.add_argument("--address", required=True, type=_endpoint,
                         help="server endpoint as host:port")
    tenants.add_argument("--json", action="store_true",
                         help="dump the raw tenant-stats document")
    tenants.set_defaults(entry=_cmd_smb_tenants)

    drill = smb_sub.add_parser(
        "drill",
        help="server-loss drill: kill a journaled server mid-run, "
             "restart it from the journal, verify workers re-attach",
    )
    drill.add_argument("--workers", type=int, default=2)
    drill.add_argument("--iterations", type=int, default=10)
    drill.add_argument("--batch-size", type=int, default=4)
    drill.add_argument("--seed", type=int, default=0,
                       help="seed for data, weights, and retry jitter")
    drill.add_argument("--checkpoint-every", type=int, default=2)
    drill.add_argument("--kill-at", type=int, default=4,
                       help="kill once a checkpoint at this iteration "
                            "is sealed")
    drill.add_argument("--outage", type=float, default=0.3,
                       help="seconds the server stays dead")
    drill.add_argument("--grace", type=float, default=30.0,
                       help="per-client server-down reconnect window, "
                            "seconds")
    drill.add_argument("--workdir", default="",
                       help="journal + checkpoint root (default: a "
                            "fresh temp dir)")
    drill.add_argument("--timeout", type=float, default=300.0)
    drill.set_defaults(entry=_cmd_smb_drill)

    serving = commands.add_parser(
        "serve",
        help="parameter-serving read tier: the HTTP model gateway over "
             "in-process read replicas",
    )
    serving_sub = serving.add_subparsers(dest="serve_command", required=True)

    gateway = serving_sub.add_parser(
        "gateway",
        help="HTTP/REST front end over an in-process replica fleet "
             "(GET /v1/models/<tenant>/<name>?version=N)",
    )
    gateway.add_argument("--connect", default="", type=_endpoint,
                         help="host:port of the primary SMB server")
    gateway.add_argument("--rendezvous", default="",
                         help="primary's endpoint.json (alternative "
                              "to --connect)")
    gateway.add_argument("--segments", required=True,
                         help="comma-separated segment names to mirror "
                              "(e.g. W_g)")
    gateway.add_argument("--tenant", default="default",
                         help="namespace the segments live in")
    gateway.add_argument("--ring-depth", type=int, default=8,
                         help="snapshot versions retained per segment "
                              "for pinned reads")
    gateway.add_argument("--sync-timeout", type=float, default=30.0,
                         help="seconds to wait for the initial mirror")
    gateway.add_argument("--host", default="127.0.0.1")
    gateway.add_argument("--port", type=int, default=0)
    gateway.add_argument("--replicas", type=int, default=2,
                         help="replica fleet size behind the gateway")
    gateway.set_defaults(entry=_cmd_serve_gateway)

    checkpoint = commands.add_parser(
        "checkpoint",
        help="coordinated checkpoints: inspect/resume a checkpoint "
             "directory, force a server snapshot",
    )
    ckpt_sub = checkpoint.add_subparsers(
        dest="checkpoint_command", required=True
    )
    ckpt_inspect = ckpt_sub.add_parser(
        "inspect", help="summarize a checkpoint directory as JSON"
    )
    ckpt_inspect.add_argument("directory")
    ckpt_inspect.set_defaults(entry=_cmd_checkpoint_inspect)
    ckpt_save = ckpt_sub.add_parser(
        "save",
        help="ask a journaled SMB server to write a durable snapshot now",
    )
    ckpt_save.add_argument("--connect", default="", type=_endpoint,
                           help="host:port of the server")
    ckpt_save.add_argument("--rendezvous", default="",
                           help="endpoint.json written by a journaled "
                                "server (alternative to --connect)")
    ckpt_save.set_defaults(entry=_cmd_checkpoint_save)
    ckpt_resume = ckpt_sub.add_parser(
        "resume",
        help="rebuild a run from its checkpoint metadata and continue it",
    )
    ckpt_resume.add_argument("directory")
    ckpt_resume.add_argument("--iterations", type=int, default=0,
                             help="override the stored iteration target")
    ckpt_resume.add_argument("--connect", default="", type=_endpoint,
                             help="host:port of an SMB server to resume "
                                  "against (default: fresh in-process)")
    ckpt_resume.add_argument("--rendezvous", default="",
                             help="journaled server's endpoint.json, "
                                  "re-resolved on reconnects")
    ckpt_resume.add_argument("--grace", type=float, default=0.0,
                             help="server-down reconnect window, seconds")
    ckpt_resume.add_argument("--timeout", type=float, default=300.0)
    ckpt_resume.set_defaults(entry=_cmd_checkpoint_resume)

    bandwidth = commands.add_parser(
        "bandwidth", help="Fig. 7 bandwidth sweep against an SMB server"
    )
    bandwidth.add_argument(
        "--connect", default="", type=_endpoint,
        help="host:port of a running server (default: in-process)",
    )
    bandwidth.add_argument("--buffer-mb", type=float, default=2.0)
    bandwidth.add_argument("--operations", type=int, default=10)
    bandwidth.set_defaults(entry=_cmd_bandwidth)

    tele = commands.add_parser(
        "telemetry", help="inspect telemetry artifacts saved by a run"
    )
    tele_sub = tele.add_subparsers(dest="telemetry_command", required=True)
    tele_report = tele_sub.add_parser(
        "report",
        help="summarize a saved metrics.json (phase histograms, SMB ops, "
             "perf-model cross-validation)",
    )
    tele_report.add_argument("metrics", help="path to a saved metrics.json")
    tele_report.set_defaults(entry=_cmd_telemetry_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    setup_logging(args.log_level)
    if args.telemetry != "off":
        configure(args.telemetry)
    return args.entry(args)


if __name__ == "__main__":
    sys.exit(main())
