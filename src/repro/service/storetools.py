"""Offline store maintenance: inspect and compact store files.

These are the read-side/maintenance tools behind ``repro cache``: they
open a plan-store or checkpoint-store file through the same
:func:`~repro.service.backends.open_backend` machinery the service uses,
but never run inside a serving process, so the backend module stays
about the storage engines themselves.
"""

from __future__ import annotations

import time

from repro.service.backends import open_backend


def inspect_store(path, clock=None) -> dict:
    """Structured summary of one store file (``repro cache`` backs this).

    Classifies every entry as a plan-cache entry (``entry_format``), a
    job checkpoint (``checkpoint_format``), a job's plan row (``kind``
    ``plan``, counted by its entry's format and age) or unknown, and
    reports per-kind counts, format-version histograms, age statistics
    (from the ``written_at`` stamps) and job statuses.  Read-only.
    """
    now = (clock or time.time)()
    backend = open_backend(path)
    try:
        entries = backend.load()
        report = {
            "path": str(path),
            "backend": backend.name,
            "entries": len(entries),
            "plans": {"count": 0, "formats": {}, "ages_s": []},
            "jobs": {"count": 0, "formats": {}, "ages_s": [], "statuses": {}},
            "job_plans": {"count": 0, "formats": {}, "ages_s": []},
            "unknown": 0,
        }
        for payload in entries.values():
            kind = "plans"
            if isinstance(payload, dict) and payload.get("kind") == "plan":
                kind, payload = "job_plans", payload.get("plan_entry")
            if not isinstance(payload, dict):
                report["unknown"] += 1
                continue
            if "entry_format" in payload:
                bucket = report[kind]
                fmt = payload.get("entry_format")
            elif "checkpoint_format" in payload:
                bucket = report["jobs"]
                fmt = payload.get("checkpoint_format")
                status = str(payload.get("status"))
                bucket["statuses"][status] = (
                    bucket["statuses"].get(status, 0) + 1
                )
            else:
                report["unknown"] += 1
                continue
            bucket["count"] += 1
            bucket["formats"][str(fmt)] = bucket["formats"].get(str(fmt), 0) + 1
            written = payload.get("written_at")
            if isinstance(written, (int, float)):
                bucket["ages_s"].append(max(0.0, now - float(written)))
        return report
    finally:
        backend.close()


def compact_store(path, ttl_s=None, drop_done_jobs=False, clock=None) -> dict:
    """Rewrite a store keeping only the entries worth keeping.

    Dropped: entries that fail to decode under the current formats
    (undecodable leftovers of old versions would never be served, only
    re-skipped on every load), plan entries older than ``ttl_s`` (when
    given), and -- with ``drop_done_jobs`` -- checkpoints of jobs that
    already finished.  A job's plan row goes with its checkpoint and
    never ages on its own.  Runs as one atomic whole-store RMW
    (:meth:`CacheBackend.mutate_all`), so compacting a *live* store
    cannot discard checkpoints or leases a concurrent writer lands
    mid-compaction.  Returns ``{"kept": n, "dropped": n}``.
    """
    from repro.service.checkpoint import PLAN_PREFIX, JobCheckpoint
    from repro.service.serialize import PlanStoreError, entry_from_dict

    now = (clock or time.time)()
    counts = {}

    def keep_worthy(entries) -> dict:
        kept, plan_rows = {}, {}
        for key, payload in entries.items():
            if not isinstance(payload, dict):
                continue
            if payload.get("kind") == "plan":
                plan_rows[key] = payload
                continue
            if "checkpoint_format" in payload:
                try:
                    checkpoint = JobCheckpoint.from_dict(payload)
                except PlanStoreError:
                    continue
                if drop_done_jobs and checkpoint.status == "done":
                    continue
            else:
                try:
                    _, _, _, written_at = entry_from_dict(payload)
                except PlanStoreError:
                    continue
                if (
                    ttl_s is not None
                    and written_at is not None
                    and now - written_at > ttl_s
                ):
                    continue
            kept[key] = payload
        for key, payload in plan_rows.items():
            job = kept.get(key.replace(PLAN_PREFIX, "", 1), {})
            if "checkpoint_format" not in job:
                continue  # its job is gone
            try:
                entry_from_dict(payload.get("plan_entry"))
            except PlanStoreError:
                continue
            kept[key] = payload
        counts["kept"] = len(kept)
        counts["dropped"] = len(entries) - len(kept)
        return kept

    backend = open_backend(path)
    try:
        backend.mutate_all(keep_worthy)
        return dict(counts)
    finally:
        backend.close()
