"""Online cost-model calibration from execution traces.

The optimizer's estimates err in two separable ways:

* the **cost model** can mis-price an algorithm's per-iteration work on
  the actual hardware (Figure 7 bounds this at ~17% on the paper's
  cluster, but a drifted spec or a deliberately perturbed model can be
  off by integer factors), and
* the **iterations estimator** can mis-extrapolate T(epsilon) from a
  speculative sample.

The :class:`CalibrationStore` learns a multiplicative correction for
each, from observed :class:`~repro.runtime.trace.ExecutionTrace`
segments -- the Delta-style feedback loop (PAPERS.md) that closes the
gap between predicted and observed cost.  Keys are **two-level**:
every observation feeds an ``(algorithm, cluster)`` aggregate, and --
when the observer names the workload -- a ``(workload, algorithm,
cluster)`` specialisation that takes over once enough traces back it.
Corrections are exponentially-weighted moving averages, clamped to a
sane range, versioned (so plan caches can detect staleness) and
persisted as JSON so a restarted service starts calibrated.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import threading

from repro.errors import ReproError
from repro.gd.state import known_fields

#: Per-observation EWMA weight: new_factor = (1-a)*old + a*observed.
DEFAULT_ALPHA = 0.4
#: Correction factors are clamped to [1/MAX_FACTOR, MAX_FACTOR].
MAX_FACTOR = 100.0
#: A workload-level correction is preferred over the algorithm-level
#: fallback once this many observations back it (a single trace is too
#: noisy to override the cross-workload aggregate).
MIN_WORKLOAD_OBSERVATIONS = 3


def _compute_signature(spec) -> str:
    if dataclasses.is_dataclass(spec) and not isinstance(spec, type):
        payload = sorted(dataclasses.asdict(spec).items())
    else:  # pragma: no cover - ClusterSpec is a dataclass
        payload = sorted(vars(spec).items())
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


@functools.lru_cache(maxsize=128)
def _cached_signature(spec) -> str:
    return _compute_signature(spec)


def cluster_signature(spec) -> str:
    """Short stable digest identifying one cluster configuration.

    Memoized (ClusterSpec is a hashable frozen dataclass): the store is
    consulted per algorithm on every optimize call, and hashing the
    whole spec each time is pure overhead on the cache-recost hot path.
    """
    try:
        return _cached_signature(spec)
    except TypeError:  # pragma: no cover - unhashable custom spec
        return _compute_signature(spec)


def workload_signature(stats) -> str:
    """Short stable digest identifying one workload (dataset statistics).

    Two datasets with identical Table 1 statistics are the same workload
    to the cost model, so they share calibration: the digest covers the
    :class:`~repro.cluster.storage.DatasetStats` fields, nothing else.
    Used as the first level of the store's two-level (workload ->
    algorithm) correction keys.
    """
    try:
        return _cached_signature(stats)
    except TypeError:  # pragma: no cover - custom unhashable stats
        return _compute_signature(stats)


def _local_file(path):
    """``path``, unless it names a ``tcp://`` store: calibration state
    is one local JSON file, never a remote backend."""
    if path and str(path).startswith("tcp://"):
        raise ReproError(
            f"calibration store {path!r}: calibration persists to a local "
            "JSON file; tcp://host:port/namespace works for --cache and "
            "--checkpoint only"
        )
    return path


def _clamp(value) -> float:
    return float(min(max(value, 1.0 / MAX_FACTOR), MAX_FACTOR))


@dataclasses.dataclass
class Correction:
    """Learned corrections for one (algorithm, cluster) pair.

    ``cost_factor`` multiplies the cost model's per-iteration seconds;
    ``iterations_factor`` multiplies the speculative T(epsilon) estimate.
    Identity (1.0 / 1.0) until observations arrive.  Each factor tracks
    its own observation count: a segment that never converged observes
    cost but says nothing about iterations.
    """

    cost_factor: float = 1.0
    iterations_factor: float = 1.0
    cost_observations: int = 0
    iterations_observations: int = 0

    @property
    def observations(self) -> int:
        return self.cost_observations + self.iterations_observations

    @property
    def is_identity(self) -> bool:
        return self.observations == 0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload) -> "Correction":
        # Tolerate additive fields (same forward-compatibility rule as
        # PlanSegment.from_dict): a calibration file written by a newer
        # build must stay readable here, not TypeError at construction.
        return cls(**known_fields(cls, payload))


class CalibrationStore:
    """Thread-safe store of learned cost/iteration corrections.

    Corrections live under **two-level keys**:

    * ``algorithm@cluster`` -- the aggregate over every workload, always
      updated; and
    * ``workload|algorithm@cluster`` -- workload-specific, updated when
      the observer can name the workload.

    Lookups prefer the workload-level correction once it has accumulated
    :data:`MIN_WORKLOAD_OBSERVATIONS` observations and fall back to the
    algorithm-level aggregate until then -- a fresh workload starts from
    what *other* workloads taught about the algorithm instead of from
    identity.

    ``version`` increments on every update;
    :meth:`state_digest` fingerprints the served correction state
    itself.  Cache layers stamp their entries with the digest to notice
    when calibrated estimates changed under them (see
    :class:`~repro.service.OptimizerService` -- a stale stamp triggers a
    re-cost from cached speculation, never a blind reuse; the digest,
    unlike the counter, stays comparable across restarts and across
    processes sharing one persisted store).

    ``path`` (optional) enables persistence: :meth:`save` writes the
    store as JSON and :meth:`open` restores it, so a restarted
    ``repro serve`` starts calibrated.  It is a local file path; both
    refuse a ``tcp://`` store URL with a :class:`~repro.errors.ReproError`.
    """

    def __init__(self, path=None, alpha=DEFAULT_ALPHA):
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        self.path = path
        self.alpha = float(alpha)
        self.version = 0
        self._digest = None
        self._corrections = {}
        self._lock = threading.Lock()

    # -- lookup ----------------------------------------------------------
    @staticmethod
    def _key(algorithm, signature, workload=None) -> str:
        base = f"{algorithm}@{signature}"
        return f"{workload}|{base}" if workload else base

    def correction(self, algorithm, spec, workload=None) -> Correction:
        """The learned correction (identity when nothing was observed).

        With ``workload`` (a :func:`workload_signature` digest) the
        workload-specific correction is returned once it has enough
        observations; otherwise the algorithm-level aggregate.
        """
        signature = cluster_signature(spec)
        with self._lock:
            if workload:
                found = self._corrections.get(
                    self._key(algorithm, signature, workload)
                )
                if found is not None and (
                    found.observations >= MIN_WORKLOAD_OBSERVATIONS
                ):
                    return dataclasses.replace(found)
            found = self._corrections.get(self._key(algorithm, signature))
            return dataclasses.replace(found) if found else Correction()

    def corrections_for(self, spec) -> dict:
        """{algorithm: Correction} aggregates for one cluster
        (workload-level keys are not included)."""
        suffix = "@" + cluster_signature(spec)
        with self._lock:
            return {
                key[: -len(suffix)]: dataclasses.replace(value)
                for key, value in self._corrections.items()
                if key.endswith(suffix) and "|" not in key
            }

    @property
    def observations(self) -> int:
        with self._lock:
            return sum(c.observations for c in self._corrections.values())

    def state_digest(self) -> str:
        """Content digest of the correction state being served.

        Two stores with equal digests serve identical factors --
        whatever their histories.  This is what cache layers should
        stamp entries with: unlike the ``version`` counter it is
        comparable across store lifetimes and across processes (every
        pristine store digests the same),
        so a persisted plan priced under state X is recognised as
        current exactly when the live store still serves X.  The
        workload threshold stays in the digested payload so stamps
        written by earlier builds, which made it configurable, still
        match.  Cached and invalidated on update, so the hot cache-hit
        path pays a dict lookup, not a hash.
        """
        with self._lock:
            if self._digest is None:
                payload = (
                    MIN_WORKLOAD_OBSERVATIONS,
                    sorted(
                        (key, c.cost_factor, c.iterations_factor,
                         c.cost_observations, c.iterations_observations)
                        for key, c in self._corrections.items()
                    ),
                )
                self._digest = hashlib.sha256(
                    repr(payload).encode()
                ).hexdigest()[:16]
            return self._digest

    # -- learning --------------------------------------------------------
    def observe(self, algorithm, spec, cost_ratio=None,
                iterations_ratio=None, workload=None) -> Correction:
        """Fold one observed/predicted ratio pair into the store.

        Either ratio may be None (unobservable for this trace -- e.g.
        the iterations ratio of a segment that never converged).  With
        ``workload`` the observation feeds both the workload-specific
        key and the algorithm-level aggregate (one version bump).
        Returns the updated workload-level correction when a workload
        was named, the aggregate otherwise.
        """
        if cost_ratio is None and iterations_ratio is None:
            return self.correction(algorithm, spec, workload=workload)
        signature = cluster_signature(spec)
        a = self.alpha

        def fold(factor, count, ratio):
            if ratio is None or ratio <= 0:
                return factor, count
            ratio = _clamp(ratio)
            if count == 0:
                # The identity start is a zero-evidence prior; the first
                # real observation replaces it outright, otherwise a
                # single large mis-estimate takes 1/alpha traces to
                # surface in the corrected costs.
                return ratio, 1
            return _clamp((1 - a) * factor + a * ratio), count + 1

        def folded(current) -> Correction:
            cost, cost_n = fold(
                current.cost_factor, current.cost_observations, cost_ratio
            )
            iters, iters_n = fold(
                current.iterations_factor, current.iterations_observations,
                iterations_ratio,
            )
            return Correction(
                cost_factor=cost,
                iterations_factor=iters,
                cost_observations=cost_n,
                iterations_observations=iters_n,
            )

        keys = [self._key(algorithm, signature)]
        if workload:
            keys.append(self._key(algorithm, signature, workload))
        with self._lock:
            changed = False
            updated = Correction()
            for key in keys:
                current = self._corrections.get(key, Correction())
                updated = folded(current)
                if updated != current:
                    self._corrections[key] = updated
                    changed = True
            if changed:
                # Only a real change to the served factors may bump the
                # version and invalidate the digest: a no-op observation
                # (e.g. both ratios non-positive) must not force every
                # stamped cache entry fleet-wide into a spurious recost,
                # and must not materialise keys.
                self.version += 1
                self._digest = None
            return dataclasses.replace(updated)

    def record_segment(self, segment, spec, workload=None) -> bool:
        """Learn from one executed plan segment.

        A segment yields a cost ratio (observed vs predicted
        per-iteration seconds); a segment that converged additionally
        yields an iterations ratio (observed vs predicted iterations to
        target) -- segments cut short by a switch or the iteration cap
        say nothing about where the curve would have ended.
        ``workload`` (a :func:`workload_signature` digest) additionally
        routes the observation to the workload-specific key.  Returns
        True when anything was folded in.
        """
        if segment.iterations < 2:
            return False
        # Segment ratios are relative to *calibrated* predictions;
        # compose the factors that were applied back in so the store
        # always learns the absolute observed/base-model factor (a
        # calibrated prediction observing ratio ~1 must reinforce the
        # current factor, not decay it toward 1).
        cost_ratio = None
        if segment.predicted_per_iteration_s > 0:
            cost_ratio = segment.cost_ratio * segment.applied_cost_factor
        iterations_ratio = None
        if segment.converged and segment.predicted_iterations > 0:
            iterations_ratio = (
                segment.iterations / segment.predicted_iterations
                * segment.applied_iterations_factor
            )
        if cost_ratio is None and iterations_ratio is None:
            return False
        self.observe(
            segment.algorithm, spec,
            cost_ratio=cost_ratio,
            iterations_ratio=iterations_ratio,
            workload=workload,
        )
        return True

    # -- persistence -----------------------------------------------------
    def to_dict(self) -> dict:
        with self._lock:
            return {
                "alpha": self.alpha,
                "version": self.version,
                "corrections": {
                    key: value.to_dict()
                    for key, value in self._corrections.items()
                },
            }

    @classmethod
    def from_dict(cls, payload, path=None) -> "CalibrationStore":
        """Restore a store from :meth:`to_dict` output.

        The JSON layout is stable across versions: workload-level keys
        (``workload|algorithm@cluster``) are just additional entries in
        ``corrections``, so files written before two-level keys existed
        load unchanged.
        """
        store = cls(path=path, alpha=payload.get("alpha", DEFAULT_ALPHA))
        store.version = int(payload.get("version", 0))
        store._corrections = {
            key: Correction.from_dict(value)
            for key, value in payload.get("corrections", {}).items()
        }
        return store

    def save(self, path=None) -> str:
        """Persist to ``path`` (default: the store's own path)."""
        target = _local_file(path or self.path)
        if target is None:
            raise ValueError("no path to save the calibration store to")
        payload = self.to_dict()
        # Unique temp name per writer (same atomic-rewrite discipline as
        # JsonFileBackend): sibling processes sharing one path must not
        # race on a fixed ``{target}.tmp`` and replace a half-written
        # payload over each other's output.
        tmp = f"{target}.tmp.{os.getpid()}.{threading.get_ident()}"
        try:
            with open(tmp, "w") as handle:
                json.dump(payload, handle, indent=2)
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):  # pragma: no cover - error paths only
                os.unlink(tmp)
        return target

    @classmethod
    def open(cls, path=None, alpha=DEFAULT_ALPHA) -> "CalibrationStore":
        """Load the store at ``path`` if it exists, else a fresh one.

        ``path=None`` yields a purely in-memory store.
        """
        if _local_file(path) and os.path.exists(path):
            with open(path) as handle:
                return cls.from_dict(json.load(handle), path=path)
        return cls(path=path, alpha=alpha)

    def summary(self) -> str:
        with self._lock:
            if not self._corrections:
                return "calibration store: empty"
            lines = [
                f"calibration store: {len(self._corrections)} key(s), "
                f"version {self.version}"
            ]
            for key in sorted(self._corrections):
                c = self._corrections[key]
                lines.append(
                    f"  {key}: cost x{c.cost_factor:.3f}, "
                    f"iterations x{c.iterations_factor:.3f} "
                    f"({c.observations} obs)"
                )
            return "\n".join(lines)
