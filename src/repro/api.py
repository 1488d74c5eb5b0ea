"""The ML4all system facade.

:class:`ML4all` wires the pieces of Figure 2 together: the declarative
language front-end, the cost-based GD optimizer, the plan executor and
the simulated cluster.  Optimize and train requests are answered by the
system's one :class:`~repro.service.OptimizerService` (plan cache, trial
memo, a fresh simulated cluster per training run); only a fully pinned
plan and :meth:`ML4all.execute_plan` run on the shared ``engine``.  A
typical session:

    >>> from repro.api import ML4all
    >>> system = ML4all(seed=7)
    >>> ds = system.load_dataset("adult")
    >>> model = system.train(ds, epsilon=0.01)
    >>> model.report.chosen_plan
    ...
    >>> model.error(ds.X, ds.y)
    ...

or, declaratively:

    >>> system.query("run classification on adult having epsilon 0.01;")
"""

from __future__ import annotations

import dataclasses
import os
import threading

import numpy as np

from repro.cluster import ClusterSpec, PartitionedDataset, SimulatedCluster
from repro.core.executor import execute_plan
from repro.core.iterations import SpeculationSettings
from repro.core.plans import GDPlan, TrainingSpec
from repro.data import datasets as dataset_registry
from repro.data import libsvm
from repro.errors import DataFormatError, PlanError
from repro.gd import registry as gd_registry
from repro.gd.registry import CORE_ALGORITHMS
from repro.gd.state import field_dict


@dataclasses.dataclass
class TrainedModel:
    """A trained model plus everything the optimizer decided on the way."""

    weights: np.ndarray
    task: str
    #: OptimizationReport, or None when the plan was fixed by the caller.
    report: object
    #: TrainResult of the executed plan.
    result: object
    l2: float = 0.0
    #: ExecutionTrace of the run (adaptive or budgeted training).
    trace: object = None
    #: AdaptiveResult when trained with ``adaptive=True`` or a budget.
    adaptive: object = None
    #: :class:`~repro.service.JobProgress` when trained as a durable
    #: job (``job_id=``); check ``job.preempted`` to see whether the
    #: lease budget stopped the run before the job finished.
    job: object = None

    @property
    def switched(self) -> bool:
        """True when the adaptive runtime switched plans mid-flight."""
        return self.trace is not None and bool(self.trace.switches)

    def _gradient(self):
        from repro.gd.gradients import task_gradient

        return task_gradient(self.task, l2=self.l2)

    def predict(self, X):
        """Predicted labels (classification) or values (regression)."""
        return self._gradient().predict(self.weights, X)

    def mse(self, X, y):
        """Mean squared error of predictions against ground truth.

        This is the testing-error metric of the paper's Section 8.5
        ("we plot the mean square error of the output labels compared
        to the ground truth").
        """
        pred = self.predict(X)
        return float(np.mean((pred - y) ** 2))

    def error_rate(self, X, y):
        """Misclassification rate (classification tasks)."""
        return float(np.mean(self.predict(X) != y))

    def save(self, path):
        """Persist the model vector (the ``persist`` command)."""
        header = f"task={self.task} l2={self.l2:g}"
        np.savetxt(path, self.weights, header=header)

    @classmethod
    def load(cls, path):
        """Load a model persisted by :meth:`save`."""
        task = "logreg"
        l2 = 0.0
        with open(path) as handle:
            first = handle.readline()
        if first.startswith("#"):
            for item in first[1:].split():
                key, _, value = item.partition("=")
                if key == "task":
                    task = value
                elif key == "l2":
                    l2 = float(value)
        weights = np.loadtxt(path)
        return cls(
            weights=np.atleast_1d(weights),
            task=task,
            report=None,
            result=None,
            l2=l2,
        )


class ML4all:
    """Facade over the cost-based GD optimizer on the simulated cluster."""

    def __init__(
        self,
        cluster_spec=None,
        seed=0,
        speculation=None,
        algorithms=CORE_ALGORITHMS,
        calibration_path=None,
        cache_path=None,
        checkpoint_path=None,
    ):
        self.spec = cluster_spec or ClusterSpec()
        self.seed = seed
        self.engine = SimulatedCluster(self.spec, seed=seed)
        self.speculation = speculation or SpeculationSettings()
        self.algorithms = tuple(algorithms)
        self.calibration_path = calibration_path
        #: Optional plan-store path: the service layer persists cached
        #: plan decisions here and warm-starts from it (see
        #: :mod:`repro.service.backends`).
        self.cache_path = cache_path
        #: Optional job-checkpoint-store path: durable training jobs
        #: (``train(job_id=...)``) persist their progress here and a
        #: restarted process resumes them (see
        #: :mod:`repro.service.checkpoint`).
        self.checkpoint_path = checkpoint_path
        self._calibration = None
        self._calibration_lock = threading.Lock()
        self._service = None
        self._service_lock = threading.Lock()
        #: (name, task) -> PartitionedDataset, so batch/serve request
        #: streams resolve each registry reference (and hash its content)
        #: once per system, not once per request line.
        self._dataset_memo = {}
        self._dataset_lock = threading.Lock()

    # ------------------------------------------------------------------
    # datasets
    # ------------------------------------------------------------------
    def load_dataset(self, source, task=None, columns=None, seed=None):
        """Resolve a dataset reference into a :class:`PartitionedDataset`.

        ``source`` may be a registry name (``"adult"``), a path to a
        LIBSVM/CSV file, an existing PartitionedDataset, or an ``(X, y)``
        pair (with ``task`` required).
        """
        if isinstance(source, PartitionedDataset):
            return source
        if isinstance(source, tuple) and len(source) == 2:
            X, y = source
            if task is None:
                raise DataFormatError(
                    "task= is required when loading raw (X, y) arrays"
                )
            from repro.cluster.storage import DatasetStats
            from scipy import sparse as sp

            stats = DatasetStats(
                name="user-data",
                task=_canonical_task(task),
                n=X.shape[0],
                d=X.shape[1],
                density=(
                    X.nnz / (X.shape[0] * X.shape[1])
                    if sp.issparse(X) else 1.0
                ),
                is_sparse=sp.issparse(X),
            )
            return PartitionedDataset(X, np.asarray(y, dtype=float), stats,
                                      self.spec, representation="text")
        if isinstance(source, str):
            if source in dataset_registry.REGISTRY:
                return dataset_registry.load(
                    source, self.spec, seed=self.seed if seed is None else seed
                )
            if os.path.exists(source):
                X, y = _read_file(source, columns)
                inferred = task or "logreg"
                return self.load_dataset((X, y), task=inferred)
            raise DataFormatError(
                f"unknown dataset {source!r}: not a registry name and not "
                "an existing file"
            )
        raise DataFormatError(f"cannot load a dataset from {type(source)}")

    # ------------------------------------------------------------------
    # optimizer entry points
    # ------------------------------------------------------------------
    def _training_spec(self, dataset, task, epsilon, max_iter, time_budget,
                       step, convergence, l2, seed):
        return TrainingSpec(
            task=_canonical_task(task or dataset.stats.task),
            step_size=1.0 if step is None else step,
            tolerance=1e-3 if epsilon is None else epsilon,
            max_iter=1000 if max_iter is None else max_iter,
            convergence=convergence or "l1",
            l2=l2,
            time_budget_s=time_budget,
            seed=self.seed if seed is None else seed,
        )

    @property
    def calibration(self):
        """This system's :class:`CalibrationStore` (created lazily).

        Loaded from ``calibration_path`` when one was given and exists;
        in-memory otherwise.  Empty stores are the identity, so sharing
        it with every optimizer is behaviour-preserving until adaptive
        traces populate it.
        """
        with self._calibration_lock:
            if self._calibration is None:
                from repro.runtime import CalibrationStore

                self._calibration = CalibrationStore.open(
                    self.calibration_path
                )
            return self._calibration

    def save_calibration(self, path=None):
        """Persist the calibration store (to ``path`` or its own path)."""
        return self.calibration.save(path)

    def optimize(self, dataset, task=None, epsilon=None, max_iter=None,
                 time_budget=None, algorithm=None, batch=None, step=None,
                 convergence=None, l2=0.0, fixed_iterations=None, seed=None):
        """Run the cost-based optimizer; returns the OptimizationReport.

        Answered by :meth:`service`, through its plan cache and trial
        memo, like every other request."""
        service = self.service()
        return service.answer(service.resolve(self._service_request(
            dataset, task, epsilon, max_iter, time_budget, algorithm, batch,
            step, convergence, l2, fixed_iterations, seed,
        ))).report

    # ------------------------------------------------------------------
    # concurrent serving
    # ------------------------------------------------------------------
    def service(self, cache_size=None):
        """The shared :class:`~repro.service.OptimizerService` facade.

        Created lazily with this system's cluster spec, seed, speculation
        settings and algorithm set; repeated calls return the same
        service (and therefore the same warm plan cache).  Configuration
        arguments only apply on the call that creates the service; later
        calls that pass conflicting values get a warning, not a rebuild.
        """
        import warnings

        with self._service_lock:
            if self._service is None:
                from repro.service import OptimizerService

                self._service = OptimizerService(
                    spec=self.spec,
                    seed=self.seed,
                    speculation=self.speculation,
                    algorithms=self.algorithms,
                    cache_size=256 if cache_size is None else cache_size,
                    # The facade and its service learn from the same
                    # traces and serve the same corrected estimates.
                    calibration=self.calibration,
                    cache_path=self.cache_path,
                    checkpoint_path=self.checkpoint_path,
                )
                return self._service
            service = self._service
        if cache_size is not None and cache_size != service.cache.maxsize:
            warnings.warn(
                "service() already created with cache_size="
                f"{service.cache.maxsize}; ignoring {cache_size}",
                stacklevel=2,
            )
        return service

    @property
    def metrics(self):
        """The service's :class:`~repro.service.MetricsRegistry`
        (operational counters/gauges/histograms across every layer);
        creates the service if it does not exist yet."""
        return self.service().metrics

    def optimize_request(self, request):
        """Answer one optimize request through :meth:`service`.

        ``request`` is a dict of :meth:`optimize` keyword arguments
        (``dataset`` plus ``task``, ``epsilon``, ``max_iter``,
        ``algorithm``, ``batch``, ...).  Returns its
        :class:`~repro.service.ServiceResult`.
        """
        service = self.service()
        return service.answer(service.resolve(self._request(request)))

    def train_request(self, request, adaptive=False):
        """Train one request dict (as :meth:`optimize_request`'s, plus
        the durable-job keys ``job_id``, ``checkpoint_every``,
        ``lease_iterations`` and ``lease_seconds``) through
        :meth:`service`, on its own simulated-cluster clone; with
        ``adaptive=True`` the run is monitored, may switch plans
        mid-flight, and feeds the shared calibration store.  Returns its
        :class:`~repro.service.TrainServiceResult`.
        """
        return self.service().train(**field_dict(self._request(request)),
                                    adaptive=adaptive)

    def resolve(self, request):
        """One optimize request dict fingerprinted and looked up in the
        service's in-memory cache
        (:meth:`~repro.service.OptimizerService.resolve`) -- or None
        when its dataset is not loaded (and hashed) yet: resolving must
        stay cheap enough for an event loop, and loading is not."""
        if (request["dataset"], request.get("task")) not in self._dataset_memo:
            return None
        return self.service().resolve(self._request(request))

    def _request(self, request):
        """One request dict -> a ServiceRequest.

        Resolves each named dataset reference once per system --
        repeated registry names across requests must not regenerate
        the arrays or recompute the content digest per request.
        """
        kwargs = dict(request)
        ref = kwargs.get("dataset")
        if kwargs.get("job_id") is not None and isinstance(ref, str):
            # Durable jobs checkpoint the *raw* request (dataset by
            # name), which is what lets a restarted server re-issue
            # an in-flight job it was never handed again.
            kwargs["_raw_request"] = dict(kwargs)
        if isinstance(ref, str):
            key = (ref, kwargs.get("task"))
            if key not in self._dataset_memo:
                # One loader per name, however many threads miss it
                # at once; memo hits (and resolve()) take no lock.
                with self._dataset_lock:
                    if key not in self._dataset_memo:
                        dataset = self.load_dataset(ref, task=key[1])
                        # Hashed by the thread that loaded it, so
                        # resolve() never has to (34 ms for higgs).
                        dataset.content_digest()
                        self._dataset_memo[key] = dataset
            kwargs["dataset"] = self._dataset_memo[key]
        return self._service_request(**kwargs)

    def _service_request(self, dataset, task=None, epsilon=None,
                         max_iter=None, time_budget=None, algorithm=None,
                         batch=None, step=None, convergence=None, l2=0.0,
                         fixed_iterations=None, seed=None, job_id=None,
                         checkpoint_every=None, lease_iterations=None,
                         lease_seconds=None, trace_id=None,
                         _raw_request=None):
        # trace_id is envelope, not workload: it only rides along inside
        # _raw_request (the checkpointed job descriptor), where a fleet
        # worker reads it to join the submitting request's trace.
        del trace_id
        from repro.service import ServiceRequest

        dataset = self.load_dataset(dataset, task=task)
        training = self._training_spec(
            dataset, task, epsilon, max_iter, time_budget, step,
            convergence, l2, seed,
        )
        budget = None
        if lease_iterations is not None or lease_seconds is not None:
            from repro.runtime import JobBudget

            budget = JobBudget(
                max_iterations=lease_iterations, max_seconds=lease_seconds
            )
        return ServiceRequest(
            dataset=dataset,
            training=training,
            fixed_iterations=fixed_iterations,
            algorithms=(algorithm,) if algorithm else None,
            batch_sizes=gd_registry.batch_overrides(batch) or None,
            job_id=job_id,
            checkpoint_every=checkpoint_every,
            budget=budget,
            job_request=_raw_request,
        )

    def train(self, dataset, task=None, epsilon=None, max_iter=None,
              time_budget=None, algorithm=None, sampler=None,
              transform=None, batch=None, step=None, convergence=None,
              l2=0.0, fixed_iterations=None, seed=None, operators=None,
              adaptive=False, adaptive_settings=None, job_id=None,
              checkpoint_every=None, budget=None):
        """Train a model, optimizing the plan unless it is fully pinned.

        ``algorithm`` alone restricts the optimizer to that GD variant
        while still letting ML4all pick sampling/transform -- this is
        how the baseline-comparison experiments force a specific
        algorithm (Section 8.4: "we used ML4all just to find the best
        plan given a GD algorithm").  ``algorithm`` plus ``sampler``
        (and optionally ``transform``) pin the whole plan: the optimizer
        is bypassed and the plan executes on ``self.engine``.

        Every other request is answered by :meth:`service`: the plan
        comes from its plan cache and executes on a fresh simulated
        cluster, so a repeated request trains to the same weights and
        reports the same simulated seconds.  ``budget``
        (:class:`~repro.runtime.JobBudget`) bounds the run, with or
        without a ``job_id``.

        ``adaptive=True`` trains under the adaptive runtime
        (:mod:`repro.runtime`): execution telemetry, a convergence/cost
        monitor that can re-run plan selection mid-flight and switch
        plans without losing model state, and an execution trace folded
        into this system's calibration store so later optimizations use
        corrected estimates.  The returned model carries ``trace`` and
        ``adaptive``.

        ``job_id`` turns the request into a **durable, preemptible
        job**: progress is checkpointed every ``checkpoint_every``
        iterations (and at every graceful stop) to this system's
        ``checkpoint_path`` store, ``budget`` bounds this lease, and a
        fresh process with the same store and ``job_id`` resumes the
        run mid-plan, bit-identically.  The returned model carries
        ``job``.
        """
        dataset = self.load_dataset(dataset, task=task)
        training = self._training_spec(
            dataset, task, epsilon, max_iter, time_budget, step,
            convergence, l2, seed,
        )
        if job_id is not None and (sampler is not None
                                   or operators is not None):
            raise PlanError(
                "durable jobs run through the service layer, which "
                "needs the optimizer in the loop and reconstructible "
                "operators; drop sampler=/operators= or job_id="
            )
        if algorithm is not None and sampler is not None:
            if adaptive:
                raise PlanError(
                    "adaptive training needs the optimizer in the loop; "
                    "it cannot run with a fully pinned plan "
                    "(algorithm + sampler)"
                )
            plan = GDPlan(algorithm, transform_mode=transform or "eager",
                          sampling=sampler, batch_size=batch)
            result = execute_plan(self.engine, dataset, plan,
                                  training.capped_at(fixed_iterations),
                                  operators)
            return TrainedModel(weights=result.weights, task=training.task,
                                report=None, result=result, l2=l2)

        outcome = self.service().train(
            dataset, training, fixed_iterations=fixed_iterations,
            algorithms=(algorithm,) if algorithm else None,
            batch_sizes=gd_registry.batch_overrides(batch) or None,
            adaptive=adaptive, adaptive_settings=adaptive_settings,
            operators=operators, job_id=job_id,
            checkpoint_every=checkpoint_every, budget=budget,
        )
        return TrainedModel(
            weights=outcome.result.weights,
            task=training.task,
            report=outcome.report,
            result=outcome.result,
            l2=l2,
            trace=outcome.trace,
            adaptive=outcome.adaptive,
            job=outcome.job,
        )

    def execute_plan(self, dataset, plan, task=None, operators=None, **training_kwargs):
        """Execute one explicit GDPlan (no optimization)."""
        dataset = self.load_dataset(dataset, task=task)
        training = self._training_spec(
            dataset,
            task,
            training_kwargs.get("epsilon"),
            training_kwargs.get("max_iter"),
            training_kwargs.get("time_budget"),
            training_kwargs.get("step"),
            training_kwargs.get("convergence"),
            training_kwargs.get("l2", 0.0),
            training_kwargs.get("seed"),
        )
        return execute_plan(self.engine, dataset, plan, training, operators)

    # ------------------------------------------------------------------
    # declarative front-end
    # ------------------------------------------------------------------
    def query(self, text):
        """Execute a declarative query; returns the interpreter session.

        The result of the *last* statement is available as
        ``session.last_result``; named results (``Q1 = run ...``) live in
        ``session.results``.
        """
        from repro.lang.interpreter import Interpreter

        interpreter = Interpreter(self)
        interpreter.execute(text)
        return interpreter


def _canonical_task(task):
    aliases = {
        "classification": "logreg",
        "regression": "linreg",
        "linear_regression": "linreg",
        "logistic_regression": "logreg",
        "logreg": "logreg",
        "linreg": "linreg",
        "svm": "svm",
        # gradient-function names double as task names in the language
        "hinge": "svm",
        "logistic": "logreg",
        "squared": "linreg",
    }
    key = str(task).lower()
    if key not in aliases:
        raise PlanError(
            f"unknown task {task!r}; expected one of {sorted(set(aliases))}"
        )
    return aliases[key]


def _read_file(path, columns=None):
    """Read a dataset file: LIBSVM when it looks sparse, else CSV."""
    with open(path) as handle:
        first = handle.readline()
    if ":" in first.split("#")[0]:
        return libsvm.read_libsvm(path)
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    if columns is not None:
        label_col = columns[0]
        feature_cols = columns[1]
        y = data[:, label_col]
        X = data[:, feature_cols]
    else:
        y = data[:, 0]
        X = data[:, 1:]
    return X, y
