"""Server-side file sessions: staging, coalescing, and commit.

The daemon does not grow a second write path.  Every open file is one
:class:`repro.api.file.File` behind the scenes, and client requests are
*staged* into it exactly as local facade callers would stage them —
``create_dataset``, ``ds[region] = block``, ``append_step``.  Commit
(an explicit ``flush``, the closing of a file, or the shutdown drain)
then calls the facade's own :meth:`~repro.api.file.File.flush`, whose
``(group, shape, partitioning, strategy, config, nranks)``
batching is the daemon's coalescing rule: blocks from *different
clients* that tile compatible datasets land together as one collective
multi-field ``RealDriver.write``, cross-field Algorithm-1 reordering included.
A batch the codec rejects is split by the handles that staged into it and
each part re-runs alone, so one client's bad block costs only the clients
that staged into the failing dataset.

Sessions are shared: two clients opening the same path attach to the
same session (reference-counted); the last release closes the engine
file.  A client that disconnects mid-stream releases its references
with ``drop_incomplete=True`` — staged-but-untiled datasets are
discarded rather than wedging the file open forever.

Everything here runs on the daemon's single writer thread; the only
cross-thread surface is :meth:`stats`, guarded by a lock.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.api.file import File as FacadeFile
from repro.api.settings import DatasetSettings
from repro.core.config import PipelineConfig
from repro.errors import ReproError
from repro.serve.protocol import RemoteOpError, ServeError

#: PipelineConfig fields clients may set over the wire.
CONFIG_FIELDS = ("extra_space_ratio",)

def config_from_wire(spec: "dict | None") -> "PipelineConfig | None":
    """Rebuild a :class:`PipelineConfig` from its wire dict (None passes
    through, unknown keys are rejected so typos fail loudly)."""
    if spec is None:
        return None
    unknown = sorted(set(spec) - set(CONFIG_FIELDS))
    if unknown:
        raise ServeError(
            f"unsupported config field(s) {unknown} over the wire; "
            f"supported: {list(CONFIG_FIELDS)}"
        )
    return PipelineConfig(**spec)


def config_to_wire(config: "PipelineConfig | None") -> "dict | None":
    """The wire dict for a config (only non-default fields, so the server
    reconstructs exactly what the client resolved)."""
    if config is None:
        return None
    default = PipelineConfig()
    return {
        name: getattr(config, name)
        for name in CONFIG_FIELDS
        if getattr(config, name) != getattr(default, name)
    }


@dataclass
class FileSession:
    """One open facade file, shared by every client that opened its path."""

    path: str
    file: FacadeFile
    refcount: int = 1
    #: ingest ops enqueued for this session but not yet executed; commits
    #: defer until this drains so a flush never splits a client's batch.
    pending_ingest: int = 0
    #: fid -> execution errors not yet reported to that handle (per-batch
    #: error accounting: async staged writes are acked at enqueue, so
    #: their failures, and a rejected dataset's, surface at the handle's
    #: next commit point).
    errors: "dict[str, list[str]]" = field(default_factory=dict)
    staged_blocks: int = 0
    steps_written: int = 0
    #: fid -> dataset names that handle staged blocks into; a disconnect
    #: release drops *its own* incomplete datasets without touching the
    #: in-progress staging of other clients on the shared session.
    touched: "dict[str, set[str]]" = field(default_factory=dict)

    def record_error(self, fid: str, op: str, exc: Exception) -> None:
        errors = self.errors.setdefault(fid, [])
        if len(errors) < 100:  # bounded: a runaway client can't OOM us
            errors.append(f"{op}: {type(exc).__name__}: {exc}")

    def take_errors(self, fid: str) -> "list[str]":
        return self.errors.pop(fid, [])

    def owners(self, paths) -> "set[str]":
        """The open handles that staged blocks into any of ``paths``."""
        leaves = {p.lstrip("/") for p in paths}
        return {fid for fid, names in self.touched.items() if names & leaves}


class Coalescer:
    """The daemon's registry of open file sessions (writer-thread only)."""

    def __init__(
        self,
        config: "PipelineConfig | None" = None,
        nranks: int = 4,
        strategy: str = "reorder",
        machine: str = "bebop",
    ) -> None:
        self._default_config = config
        self._default_nranks = nranks
        self._default_strategy = strategy
        self._default_machine = machine
        self._sessions: dict[str, FileSession] = {}  # abspath -> session
        self._fids: dict[str, FileSession] = {}  # fid -> session
        self._next_fid = 0
        self._lock = threading.Lock()  # guards counters read by stats()
        self._datasets_landed = 0
        self._flushes = 0
        self._dropped_incomplete = 0

    # -- session lifecycle ---------------------------------------------------

    def open(
        self,
        path: str,
        mode: str = "w",
        *,
        strategy: "str | None" = None,
        nranks: "int | None" = None,
        machine: "str | None" = None,
        config: "dict | None" = None,
    ) -> str:
        """Open (or attach to) the session for ``path``; returns a fid."""
        if mode not in ("w", "r+"):
            raise ServeError(
                f"the ingest daemon serves writes; open mode {mode!r} "
                "locally with repro.open instead"
            )
        key = os.path.abspath(path)
        session = self._sessions.get(key)
        if session is None:
            file = FacadeFile(
                key,
                mode,
                config=config_from_wire(config) or self._default_config,
                nranks=nranks or self._default_nranks,
                strategy=strategy or self._default_strategy,
                machine=machine or self._default_machine,
            )
            session = self._sessions[key] = FileSession(path=key, file=file)
        else:
            session.refcount += 1
        fid = f"f{self._next_fid}"
        self._next_fid += 1
        self._fids[fid] = session
        return fid

    def session(self, fid: str) -> FileSession:
        session = self._fids.get(fid)
        if session is None:
            raise RemoteOpError("UnknownFile", f"no open file handle {fid!r}")
        return session

    # -- staging (acked at enqueue, errors surface at commit) ----------------

    def create_dataset(
        self,
        fid: str,
        name: str,
        shape: "tuple[int, ...]",
        dtype: str,
        *,
        time_axis: bool = False,
        **settings,
    ) -> None:
        supported = list(DatasetSettings.__dataclass_fields__)
        unknown = sorted(set(settings) - set(supported))
        if unknown:
            raise ServeError(
                f"unsupported dataset setting(s) {unknown}; "
                f"supported: {supported}"
            )
        session = self.session(fid)
        shape = tuple(int(s) for s in shape)
        maxshape = (None, *shape) if time_axis else None
        session.file.create_dataset(
            name, shape, np.dtype(dtype), maxshape=maxshape, **settings
        )

    def lookup(self, fid: str, name: str) -> dict:
        """Resolve a dataset another client created on the shared session
        (shape/dtype/time-axis metadata for a remote write handle)."""
        session = self.session(fid)
        try:
            ds = session.file[name]
        except ReproError as exc:
            raise RemoteOpError("UnknownDataset", f"{name!r}: {exc}") from None
        return {
            "name": name,
            "shape": list(ds._base_shape),
            "dtype": ds._dtype.str,
            "time_axis": bool(ds.time_axis),
        }

    def stage_block(
        self, fid: str, name: str, regions: "list[list[int]]", block: np.ndarray
    ) -> None:
        """Stage one client block: ``ds[region] = block`` on the facade."""
        session = self.session(fid)
        ds = session.file[name]
        key = tuple(slice(int(a), int(b)) for a, b in regions)
        ds[key] = block
        session.staged_blocks += 1
        session.touched.setdefault(fid, set()).add(ds._path.lstrip("/"))

    def append_step(self, fid: str, fields: "dict[str, np.ndarray]") -> None:
        """Stream one timestep through the shared file's ``append_step``."""
        session = self.session(fid)
        session.file.append_step(fields)
        session.steps_written += 1

    # -- commit points -------------------------------------------------------

    def flush(self, fid: str) -> dict:
        """Coalescing commit: every complete staged dataset lands now.

        Compatible datasets — same group, shape, partitioning, strategy,
        config, nranks, *whichever clients staged them* — flush as one
        collective multi-field ``RealDriver.write`` (the facade's own
        batching).  Returns what landed plus this handle's accumulated
        errors.
        """
        session = self.session(fid)
        landed = self._commit(session, fid)
        with self._lock:
            self._flushes += 1
        return {"landed": landed, "errors": session.take_errors(fid)}

    def _commit(self, session: FileSession, fid: str) -> "list[str]":
        """Flush the session's file; returns the dataset paths that landed.

        A rejected batch leaves staging whole (the facade's rule), so one
        tenant's bad block would take every coalesced tenant's data with
        it.  Instead the rejected datasets are split by the set of handles
        that staged into them and each part re-runs alone: healthy parts
        land, and a part rejected again (or a batch that cannot be split)
        is dropped with its error recorded for those handles — for the
        committing handle when none of them is still open.
        """
        file = session.file
        before = {p for p, ds in file._datasets.items() if ds.written}
        retry: list[dict] = []
        while True:
            staged = {p: ds for p, ds in file._datasets.items() if not ds.written}
            try:
                file.flush()
                break
            except Exception as exc:
                rejected = {p: ds for p, ds in staged.items() if p not in file._datasets}
                if not rejected:
                    raise
                parts: dict[frozenset, dict] = {}
                for p, ds in rejected.items():
                    parts.setdefault(frozenset(session.owners([p])), {})[p] = ds
                if len(parts) > 1:
                    retry.extend(parts.values())
                else:
                    self._reject(session, fid, rejected, exc)
        for part in retry:
            file._datasets.update(part)
            try:
                file.flush()
            except Exception as exc:
                self._reject(session, fid, part, exc)
        landed = sorted(p for p, ds in file._datasets.items() if ds.written and p not in before)
        with self._lock:
            self._datasets_landed += len(landed)
        return landed

    @staticmethod
    def _reject(session: FileSession, fid: str, paths, exc: Exception) -> None:
        for owner in session.owners(paths) or {fid}:
            session.record_error(owner, "flush", exc)

    def close(self, fid: str, drop_incomplete: bool = False) -> dict:
        """Release one handle; the last release flushes and closes the file.

        The response's errors name every dataset this handle staged that
        was rejected, so a close never returns normally over lost data.
        While other handles keep the file open, this handle's complete
        staged datasets stay staged and land at their next commit.
        """
        session = self._fids.pop(fid, None)
        if session is None:
            raise RemoteOpError("UnknownFile", f"no open file handle {fid!r}")
        session.refcount -= 1
        out = {"closed": False, "dropped": []}
        if session.refcount > 0:
            if drop_incomplete:
                # The handle is gone but the session lives on: drop the
                # incomplete datasets only *this* handle staged into, so
                # the shared file can still close cleanly later without
                # disturbing other clients' in-progress staging.
                mine = session.touched.get(fid, set())
                others: set[str] = set().union(
                    *(names for h, names in session.touched.items() if h != fid)
                )
                out["dropped"] = session.file.discard_incomplete(only=mine - others)
        else:
            del self._sessions[session.path]
            if drop_incomplete:
                out["dropped"] = session.file.discard_incomplete()
            self._commit(session, fid)
            session.file.close()
            out["closed"] = True
        with self._lock:
            self._dropped_incomplete += len(out["dropped"])
        dropped = {p.lstrip("/") for p in out["dropped"]}
        lost = sorted(
            n for n in session.touched.pop(fid, set())
            if f"/{n}" not in session.file._datasets and n not in dropped
        )
        out["errors"] = session.take_errors(fid) + [
            f"close: /{n} was rejected and did not land" for n in lost
        ]
        return out

    def release_all(self, fids: "list[str]") -> None:
        """Disconnect cleanup: release every handle a connection owned,
        dropping incomplete staged data instead of wedging the session."""
        for fid in fids:
            if fid not in self._fids:
                continue
            try:
                self.close(fid, drop_incomplete=True)
            except ReproError as exc:
                # A torn-down client must not take the daemon with it; the
                # failure is recorded where later clients will see it.
                session = self._fids.get(fid)
                if session is not None:
                    session.record_error(fid, "release", exc)

    def close_all(self) -> "list[str]":
        """Shutdown drain: flush what is complete, drop what is not, close
        every session.  Returns error strings for the shutdown log."""
        errors: list[str] = []
        for fid in list(self._fids):
            try:
                result = self.close(fid, drop_incomplete=True)
                errors.extend(result["errors"])
            except ReproError as exc:
                errors.append(f"close_all {fid}: {type(exc).__name__}: {exc}")
        return errors

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "open_files": len(self._sessions),
                "open_handles": len(self._fids),
                "flushes": self._flushes,
                "datasets_landed": self._datasets_landed,
                "dropped_incomplete": self._dropped_incomplete,
            }
