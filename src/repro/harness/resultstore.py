"""Content-addressed experiment result store (``repro.harness.resultstore``).

Every experiment point is a pure function of its spec: the workload is
regenerated from per-benchmark seeds, the machine is built fresh from a
frozen config, and execution is deterministic. That purity makes results
*content-addressable*: the store keys each :class:`BenchmarkResult` by a
digest of everything the result depends on —

* the point spec (benchmark, machine label, machine kind, the full
  frozen config ``repr``, the resolved workload scale, telemetry mode),
* and a fingerprint of the ``repro`` package source itself, so editing
  any simulator code silently invalidates every cached result (a stale
  cache would be worse than no cache).

An interrupted or re-run campaign therefore recomputes only the points
whose keys are missing — ``--resume`` on the CLI and ``resume=True`` on
every experiment runner. The store is a plain directory of pickle files
(``<root>/<key[:2]>/<key>.pkl``), written atomically via rename so a
killed writer never leaves a truncated entry, and safe to share between
concurrent campaigns (last-writer-wins on identical content). Only
results are stored: a quarantined point leaves no entry, so a resumed
campaign retries it from scratch, and its failure notes live in the
campaign's report and event stream.

The root resolves from the explicit argument, else the
``REPRO_RESULT_STORE`` environment variable, else ``.repro-results`` in
the working directory.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from typing import Optional

#: Environment variable overriding the default store location.
STORE_ENV = "REPRO_RESULT_STORE"

#: Default store directory (relative to the working directory).
DEFAULT_ROOT = ".repro-results"

_CODE_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """Digest of every ``repro`` source file (path + contents).

    Computed once per process: the package cannot change under a running
    interpreter, and hashing ~70 files costs milliseconds.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        import repro

        package_root = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256()
        for dirpath, dirnames, filenames in sorted(os.walk(package_root)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, package_root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT


def point_key(spec) -> str:
    """Content address of one :class:`~repro.harness.parallel.PointSpec`.

    The resolved scale is baked in (an explicit ``scale=None`` means
    "whatever ``REPRO_SCALE`` says right now", and two campaigns under
    different env scales must never share results). Frozen-dataclass
    ``repr`` covers every config field, including nested geometry.
    """
    from repro.workloads.spec95 import scale_factor
    from repro.workloads.traceprog import is_trace_workload, trace_digest, trace_path

    scale = spec.scale if spec.scale is not None else scale_factor()
    # SPEC95 points regenerate from seeds baked into the code (covered by
    # the code fingerprint); a trace point's workload lives in a file the
    # fingerprint cannot see, so its content digest joins the key.
    workload = (
        trace_digest(trace_path(spec.benchmark))
        if is_trace_workload(spec.benchmark)
        else ""
    )
    payload = "\x00".join(
        (
            spec.benchmark,
            spec.machine,
            spec.kind,
            repr(spec.config),
            repr(float(scale)),
            repr(spec.telemetry),
            workload,
            code_fingerprint(),
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def resolve_store_root(root: Optional[str] = None) -> str:
    """Effective store root: argument, else ``REPRO_RESULT_STORE``,
    else ``.repro-results``."""
    if root:
        return root
    return os.environ.get(STORE_ENV) or DEFAULT_ROOT


class ResultStore:
    """Directory-backed content-addressed store of point results.

    A campaign counts the store's traffic itself: the supervisor's
    ``cache_hits`` and ``recomputed`` counters.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = resolve_store_root(root)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.pkl")

    def get(self, key: str):
        """The stored result for ``key``, or ``None`` (a miss).

        A corrupt or unreadable entry counts as a miss and is left for
        the subsequent ``put`` to overwrite — the store is a cache, never
        a source of truth.
        """
        try:
            with open(self._path(key), "rb") as handle:
                return pickle.load(handle)
        except (OSError, pickle.PickleError, EOFError, AttributeError):
            return None

    def put(self, key: str, value) -> None:
        """Store ``value`` under ``key`` atomically (write temp, rename)."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, temp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".tmp-", suffix=".pkl"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle)
            os.replace(temp, path)
        except BaseException:
            try:
                os.unlink(temp)
            except OSError:
                pass
            raise

    def contains(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def discard(self, key: str) -> bool:
        """Drop one entry (used by tests to simulate a lost point)."""
        try:
            os.unlink(self._path(key))
            return True
        except OSError:
            return False


__all__ = [
    "DEFAULT_ROOT",
    "STORE_ENV",
    "ResultStore",
    "code_fingerprint",
    "point_key",
    "resolve_store_root",
]
