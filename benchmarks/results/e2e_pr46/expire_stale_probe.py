"""Probe: does ``expire_stale()`` count only the records it evicted?

Two registry handles on one directory.  Member ``x``'s lease lapsed and
``y`` is live.  Handle B's ``leave("y")`` runs just before handle A takes
the lock inside ``expire_stale()``; B's own critical section evicts ``x``
too, so A evicts nothing.  Prints what A's call returned and what A's
``lease_expiries`` counter reads.

Run against a tree with ``PYTHONPATH=<tree>/src python3 expire_stale_probe.py``.
It works with either signature of ``publish_job`` (with or without the
``capacity`` argument).
"""

import inspect
import tempfile
from pathlib import Path

from repro.smb import MembershipRegistry
from repro.smb.client import SlotClaim
from repro.telemetry import TelemetrySession


class Clock:
    now = 1000.0

    def __call__(self):
        return self.now


def main():
    clock = Clock()
    session = TelemetrySession("metrics")
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "registry"
        a = MembershipRegistry(directory, lease=10.0, telemetry=session, clock=clock)
        b = MembershipRegistry(directory, lease=10.0, telemetry=TelemetrySession("off"), clock=clock)
        args = [{"mode": "inproc"}, {"count": 8, "capacity": 2}]
        if "capacity" in inspect.signature(a.publish_job).parameters:
            args.append(2)
        a.publish_job(*args)
        a.join("x", lambda: SlotClaim(0, 1))
        clock.now += 6.0
        a.join("y", lambda: SlotClaim(1, 1))
        clock.now += 6.0
        acquire = a._acquire_lock
        done = []

        def b_mutates_then_acquire():
            if not done:
                done.append(b.leave("y"))
            acquire()

        a._acquire_lock = b_mutates_then_acquire
        returned = a.expire_stale()
        counter = session.registry.counter("smb/membership/lease_expiries").value
        print(f"b.leave('y')={done[0]} a.expire_stale()={returned} "
              f"a lease_expiries={counter}")


if __name__ == "__main__":
    main()
