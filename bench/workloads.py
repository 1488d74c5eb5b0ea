"""Seeded request streams for the five benchmark workloads.

The server only ever receives the request lines generated here; nothing
about a workload reaches it any other way.  One seed gives byte-identical
streams (``python3 bench/run.py --list`` prints a digest per workload;
the self-test asserts it).  Seed 1 was used while the
benchmark was written; seed 2 is held out for confirming later claims
(see README.md).

Every stream is *stratified*: requests come in shuffled blocks that each
hold every (dataset x epsilon band) cell once, so a run that is cut off
by time rather than by count still sees the same mix whatever the seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import random

#: Registry datasets the workloads draw from.  ``rcv1`` (58 s to load)
#: and ``svm1`` (1.2 s load + 0.4 s content digest per server start)
#: are left out: set-up runs three times per benchmark run.
POOL = ("adult", "covtype", "yearpred", "higgs")

#: Every executor-capable algorithm (41 plans); the self-test checks
#: this against the registry.
ALL_ALGORITHMS = "adagrad,adam,arc,bgd,grad_avg,mgd,momentum,sgd,svrg"

EPSILON_RANGE = (1e-3, 5e-2)
EPSILON_BANDS = 4
MAX_ITERS = (500, 1000, 2000)

#: Open-loop arrival rates (requests/s) for ``mixed_open``, sized on
#: the seed commit at about 0.25x / 0.45x / 0.6x of the closed-loop
#: capacity on the same mix (see README.md).
RATES = (("r_low", 30), ("r_mid", 60), ("r_high", 80))

#: ``mixed_open``: 90% of arrivals repeat one of WORKING_SET
#: fingerprints (twice the server's --cache-size, so evicted entries are
#: read back through the sqlite store), 10% are new.
WORKING_SET = 64
MIXED_CACHE_SIZE = 32
NEW_SHARE = 0.10
MIXED_NEW = "covtype"

#: ``train_durable`` jobs: iteration cap, and the lease length of the
#: leased half (up to four leases per job; a checkpoint every 25).
TRAIN_MAX_ITER = 200
TRAIN_LEASE = 50
#: One tolerance class (+-10%): jobs converge in 50-150 iterations, so
#: a run holds ~100 of them with latencies in one population.  Mixing in
#: 1e-3 jobs (200 iterations each) halves the count and makes the median
#: fall between two populations.
TRAIN_EPSILON = 1e-2

WARM_FINGERPRINTS = 64
ZIPF_EXPONENT = 1.1

#: Untimed load before the timed section.  A fresh server is briefly
#: faster than it will be (its threads start out on one core and the
#: kernel spreads them within a second or so; see README.md finding 1).
WARMUP_S = 1.0

#: The six fixed plan-quality queries (golden_costs.json has the
#: executed cost of every plan for each).
QUALITY_QUERIES = (
    ("adult", 1e-2), ("adult", 1e-3),
    ("covtype", 1e-2), ("covtype", 1e-3),
    ("yearpred", 1e-2), ("higgs", 1e-2),
)
QUALITY_MAX_ITER = 1000


@dataclasses.dataclass(frozen=True)
class Op:
    """One operation: a request line, re-sent until done when leased."""

    line: str
    #: Identity of the optimizer workload (what the server fingerprints).
    key: str
    job_id: str | None = None
    leased: bool = False


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    #: "closed", or "open": a closed-loop half, then open-loop phases.
    loop: str
    connections: int
    pool: tuple
    #: Extra ``repro serve`` flags; ``{dir}`` is the run's scratch dir.
    server_flags: tuple
    #: Percentile reported as ``latency_tail_ms``.
    tail: int
    #: Ops/s measured on the seed commit (sizes --list and the traced
    #: prefix; the timed run itself is bounded by --seconds).
    nominal_rate: float
    #: Requests replayed per second of --seconds in the traced run.
    traced_rate: float
    why: str
    #: Listed in BENCHMARK.json, i.e. held to the bounds.  False for a
    #: workload whose numbers do not repeat well enough on this box; it
    #: still runs, is stored in result sets and compared.
    bounded: bool = True


WORKLOADS = {w.name: w for w in (
    Workload(
        "cold_core", "closed", 2, POOL, (), 95, 26.0, 6.0,
        "every request a new fingerprint over the paper's 11-plan space: "
        "speculation does ~95% of the work, cache/wire/store almost none",
    ),
    Workload(
        "cold_extended", "closed", 2, ("covtype", "yearpred", "higgs"),
        ("--algorithms", ALL_ALGORITHMS), 75, 3.3, 0.9,
        "as cold_core over all 9 algorithms / 41 plans: 3x the trials per "
        "request, so work shared across algorithms shows here first",
    ),
    Workload(
        "warm_hits", "closed", 2, POOL, (), 95, 1250.0, 170.0,
        "Zipf(1.1) over 64 cached fingerprints: zero speculation; wire, "
        "fingerprint, digest, cache, encode and thread handoff do the work",
    ),
    Workload(
        "train_durable", "closed", 2, ("adult", "yearpred"),
        ("--checkpoint", "{dir}/jobs.db", "--cache", "{dir}/plans.db"),
        75, 9.0, 2.0,
        "durable train jobs over sqlite, half leased and resumed: executor "
        "iterations plus checkpoint encode/write/read-back dominate",
    ),
    Workload(
        "mixed_open", "open", 2, POOL,
        ("--cache", "{dir}/plans.db", "--cache-size", str(MIXED_CACHE_SIZE)),
        95, 125.0, 50.0,
        "90% repeats over twice the cache + 10% new, closed loop then open "
        "loop at three fixed rates: store reads beside writes, cold "
        "blocking warm",
        bounded=False,
    ),
)}


# ----------------------------------------------------------------------
# request lines
# ----------------------------------------------------------------------
def optimize_op(dataset, epsilon=None, max_iter=None, fixed=None,
                algorithm=None) -> Op:
    parts = [dataset]
    if epsilon is not None:
        parts.append(f"epsilon={epsilon:.6g}")
    if max_iter is not None:
        parts.append(f"max_iter={max_iter}")
    if fixed is not None:
        parts.append(f"fixed_iterations={fixed}")
    if algorithm is not None:
        parts.append(f"algorithm={algorithm}")
    line = " ".join(parts)
    return Op(line=line, key=line)


def train_op(dataset, epsilon, job_id, leased) -> Op:
    key = f"{dataset} epsilon={epsilon:.6g} max_iter={TRAIN_MAX_ITER}"
    line = f"{key} verb=train job_id={job_id} checkpoint_every=25"
    if leased:
        line += f" lease_iterations={TRAIN_LEASE}"
    return Op(line=line, key=key, job_id=job_id, leased=leased)


def quality_ops() -> list:
    return [optimize_op(ds, eps, QUALITY_MAX_ITER)
            for ds, eps in QUALITY_QUERIES]


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _band_epsilon(rng, band) -> float:
    """Log-uniform epsilon inside one of EPSILON_BANDS equal log bands."""
    low, high = (math.log(v) for v in EPSILON_RANGE)
    width = (high - low) / EPSILON_BANDS
    return math.exp(low + width * (band + rng.random()))


#: Sources of new fingerprints in one run: the two closed-loop
#: connections and the open-loop schedule.
LANES = 3


def _new_max_iter(rng, index, lane) -> int:
    """A ``max_iter`` no other request of the run carries (it only caps
    the estimated iterations, so it costs nothing): new fingerprints
    are new by construction, whatever epsilon rounds to."""
    return rng.choice(MAX_ITERS) + 1 + index * LANES + lane


def _cold_stream(workload, seed, connection):
    rng = _rng(workload.name, seed, connection)
    cells = [(ds, band) for ds in workload.pool
             for band in range(EPSILON_BANDS)]
    count = itertools.count()
    while True:
        rng.shuffle(cells)
        for dataset, band in cells:
            yield optimize_op(dataset, _band_epsilon(rng, band),
                              _new_max_iter(rng, next(count), connection))


def _fingerprint_set(name, seed, pool, size) -> list:
    """``size`` distinct optimize ops cycling through every
    (dataset x epsilon band) cell."""
    rng = _rng(name, seed, "set")
    ops, seen = [], set()
    while len(ops) < size:
        cell = len(ops)
        op = optimize_op(pool[cell % len(pool)],
                         _band_epsilon(
                             rng, cell // len(pool) % EPSILON_BANDS),
                         rng.choice(MAX_ITERS))
        if op.key not in seen:
            seen.add(op.key)
            ops.append(op)
    return ops


def _zipf_cum_weights(n) -> list:
    total, out = 0.0, []
    for rank in range(1, n + 1):
        total += 1.0 / rank ** ZIPF_EXPONENT
        out.append(total)
    return out


def _warm_stream(workload, seed, connection):
    rng = _rng(workload.name, seed, connection)
    ops = _fingerprint_set(workload.name, seed, workload.pool,
                           WARM_FINGERPRINTS)
    cum = _zipf_cum_weights(len(ops))
    while True:
        yield rng.choices(ops, cum_weights=cum)[0]


def _train_stream(workload, seed, connection):
    rng = _rng(workload.name, seed, connection)
    cells = [(ds, leased) for ds in workload.pool
             for leased in (False, True)]
    count = 0
    while True:
        rng.shuffle(cells)
        for dataset, leased in cells:
            # +-10% jitter: every job is a new fingerprint, so each one
            # pays its own optimization and plan-store write-through.
            epsilon = TRAIN_EPSILON * (0.9 + 0.2 * rng.random())
            job_id = f"job-s{seed}-c{connection}-{count}"
            count += 1
            yield train_op(dataset, epsilon, job_id, leased)


def _mixed_ops(workload, seed, rng, lane):
    """Endless ``mixed_open`` requests: Zipf repeats from the working
    set, and exactly one new fingerprint at a random place in every
    block of ``1 / NEW_SHARE`` (a coin per request would let the slow
    share, and with it the throughput, wander ~10% with the seed).  New
    ones are all on MIXED_NEW so that the slow tenth of the traffic is
    one population and the p95, which falls inside it, does not sit in
    a gap between datasets."""
    working = _fingerprint_set(workload.name, seed, workload.pool,
                               WORKING_SET)
    cum = _zipf_cum_weights(len(working))
    block = round(1 / NEW_SHARE)
    for index in itertools.count():
        new_at = rng.randrange(block)
        for position in range(block):
            if position == new_at:
                yield optimize_op(
                    MIXED_NEW,
                    _band_epsilon(rng, rng.randrange(EPSILON_BANDS)),
                    _new_max_iter(rng, index, lane))
            else:
                yield rng.choices(working, cum_weights=cum)[0]


def stream(name, seed, connection):
    """The endless closed-loop op stream of one connection."""
    workload = WORKLOADS[name]
    if name == "mixed_open":
        return _mixed_ops(workload, seed,
                          _rng(workload.name, seed, connection), connection)
    if name in ("cold_core", "cold_extended"):
        return _cold_stream(workload, seed, connection)
    if name == "warm_hits":
        return _warm_stream(workload, seed, connection)
    if name == "train_durable":
        return _train_stream(workload, seed, connection)
    raise ValueError(f"{name} has no closed-loop stream")


def setup_ops(name, seed) -> list:
    """Ops sent before the timed section: one ``fixed_iterations``
    request per dataset (generates it), one single-algorithm speculative
    request per dataset (computes and memoises ``content_digest()``,
    which fixed-iteration fingerprints skip), then the cache pre-fill."""
    workload = WORKLOADS[name]
    ops = []
    for dataset in workload.pool:
        ops.append(optimize_op(dataset, fixed=10))
        ops.append(optimize_op(dataset, 0.5, algorithm="sgd"))
    if name == "warm_hits":
        ops += _fingerprint_set(name, seed, workload.pool, WARM_FINGERPRINTS)
    if name == "mixed_open":
        ops += _fingerprint_set(name, seed, workload.pool, WORKING_SET)
    return ops


def open_schedule(seed, seconds, name="mixed_open") -> list:
    """The open-loop half of ``mixed_open``: one phase per rate, each
    ``seconds / 6`` long (the closed-loop half takes ``seconds / 2``).
    A phase holds exactly ``rate x length`` arrivals at sorted uniform
    offsets (a Poisson process conditioned on its count, so the offered
    load does not vary with the seed) dealt alternately to the two
    connections.  Returns
    ``[{"name", "rate", "length_s", "arrivals": [(due_s, conn, Op)]}]``.
    """
    workload = WORKLOADS[name]
    rng = _rng(name, seed, "arrivals")
    # Lane 2: the closed-loop connections use lanes 0 and 1.
    ops = _mixed_ops(workload, seed, rng, 2)
    length = seconds / (2 * len(RATES))
    phases = []
    for phase_name, rate in RATES:
        count = max(1, round(rate * length))
        offsets = sorted(rng.random() * length for _ in range(count))
        arrivals = [(due, i % workload.connections, next(ops))
                    for i, due in enumerate(offsets)]
        phases.append({"name": phase_name, "rate": rate,
                       "length_s": length, "arrivals": arrivals})
    return phases


# ----------------------------------------------------------------------
# --list / determinism
# ----------------------------------------------------------------------
def nominal_requests(name, seconds) -> int:
    workload = WORKLOADS[name]
    if workload.loop == "open":
        return (round(workload.nominal_rate * seconds / 2)
                + sum(len(p["arrivals"])
                      for p in open_schedule(0, seconds)))
    return round(workload.nominal_rate * seconds)


def stream_bytes(name, seed, seconds=12, per_connection=200) -> bytes:
    """The bytes a run of this workload would put on the wire (set-up
    plus a fixed prefix of every connection's stream)."""
    workload = WORKLOADS[name]
    lines = [op.line for op in setup_ops(name, seed)]
    for connection in range(workload.connections):
        ops = stream(name, seed, connection)
        lines += [next(ops).line for _ in range(per_connection)]
    if workload.loop == "open":
        for phase in open_schedule(seed, seconds, name):
            lines += [f"{due:.9f} {conn} {op.line}"
                      for due, conn, op in phase["arrivals"]]
    return "\n".join(lines).encode()


def describe(seed=1, seconds=12) -> list:
    rows = []
    for workload in WORKLOADS.values():
        digest = hashlib.sha256(
            stream_bytes(workload.name, seed, seconds)
        ).hexdigest()[:12]
        rows.append(
            f"{workload.name}"
            f"{'' if workload.bounded else ' (informational)'}: "
            f"{'closed then open' if workload.loop == 'open' else 'closed'}"
            f" loop, "
            f"{workload.connections} connections, "
            f"~{nominal_requests(workload.name, seconds)} requests in "
            f"{seconds}s, stream sha256 {digest} (seed {seed})\n"
            f"    {workload.why}"
        )
    return rows
