"""Shared fixtures: the three SMB doorways behind one handle."""

import threading

import pytest

from repro.smb import (
    InProcTransport,
    ShmSMBServer,
    ShmTransport,
    SMBClient,
    SMBServer,
    TcpSMBServer,
    TcpTransport,
)

CAPACITY = 1 << 24


class Doorway:
    """One running server and the ways to reach it.

    ``transport()`` opens a bare transport (``tenant=`` names its
    namespace), ``connect()`` a client on one; everything opened is
    closed at teardown.  ``restart()`` stops the server and starts a
    fresh one on the same endpoint (there is no endpoint to come back on
    in-process, so ``restartable`` is false there).  ``core`` is the
    running :class:`SMBServer`, whatever fronts it.  With
    ``journal_dir`` the core journals there.  ``server_threads()`` names
    the live threads its servers started.
    """

    def __init__(self, kind, tmp_path, journal_dir=None):
        self.kind = kind
        self.restartable = kind != "inproc"
        self.journal_dir = journal_dir
        self._path = tmp_path / "smb.sock"
        self._clients = []
        self._foreign_threads = set(threading.enumerate())
        self._start(port=0)

    def _start(self, port):
        core = self.core = SMBServer(
            capacity=CAPACITY, journal_dir=self.journal_dir
        )
        if self.kind == "tcp":
            self.server = TcpSMBServer(port=port, core=core).start()
        elif self.kind == "shm":
            self.server = ShmSMBServer(self._path, core=core).start()
        else:
            self.server = core

    def transport(self, **kwargs):
        if self.kind == "tcp":
            return TcpTransport(self.server.address, **kwargs)
        if self.kind == "shm":
            return ShmTransport(self.server.path, **kwargs)
        return InProcTransport(self.server, **kwargs)

    def connect(self, retry_policy=None, **transport_kwargs):
        client = SMBClient(
            self.transport(**transport_kwargs), retry_policy=retry_policy
        )
        self._clients.append(client)
        return client

    def server_threads(self):
        return sorted(
            thread.name for thread in threading.enumerate()
            if thread not in self._foreign_threads
            and thread.name.startswith(("smb-shm", "smb-loop", "smb-worker"))
        )

    def restart(self):
        assert self.restartable
        port = self.server.address[1] if self.kind == "tcp" else 0
        self.server.stop()
        self._start(port)

    def close(self):
        for client in self._clients:
            client.close()
        if self.restartable:
            self.server.stop()
        elif self.journal_dir is not None:
            self.server.close()  # releases the journal file


@pytest.fixture(params=["inproc", "tcp", "shm"])
def doorway(request, tmp_path):
    door = Doorway(request.param, tmp_path)
    yield door
    door.close()


@pytest.fixture(params=["inproc", "tcp", "shm"])
def journaled_doorway(request, tmp_path):
    """A :class:`Doorway` whose core journals into ``tmp_path/journal``."""
    door = Doorway(request.param, tmp_path, journal_dir=tmp_path / "journal")
    yield door
    door.close()
