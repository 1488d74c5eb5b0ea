"""Tests for the python -m repro command-line interface."""

import io
import json
import os
import re
import socket
import subprocess
import sys
import warnings

import pytest

from repro.__main__ import main, parse_request_line
from repro.errors import ReproError


class TestCLIMain:
    def test_inline_query(self, capsys):
        code = main(["run classification on adult having epsilon 0.05, "
                     "max iter 200;"])
        assert code == 0
        out = capsys.readouterr().out
        assert "chosen plan" in out
        assert "iterations" in out

    def test_query_file(self, tmp_path, capsys):
        path = tmp_path / "q.ml4all"
        path.write_text(
            "run classification on adult having epsilon 0.05, "
            "max iter 200;"
        )
        assert main(["--file", str(path)]) == 0
        assert "chosen plan" in capsys.readouterr().out

    def test_missing_query_file_reports_error(self, tmp_path, capsys):
        assert main(["--file", str(tmp_path / "missing.ml4all")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "missing.ml4all" in captured.err

    def test_bad_query_reports_error(self, capsys):
        code = main(["run nothing;"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_no_arguments_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_pinned_algorithm_query(self, capsys):
        code = main(["run svm on svm1 having max iter 100 using "
                     "algorithm sgd, sampler shuffle();"])
        assert code == 0


class TestRequestLineParsing:
    def test_dataset_plus_typed_values(self):
        request = parse_request_line(
            "adult epsilon=0.01 max_iter=200 algorithm=sgd"
        )
        assert request == {
            "dataset": "adult",
            "epsilon": 0.01,
            "max_iter": 200,
            "algorithm": "sgd",
        }

    def test_missing_dataset_raises(self):
        with pytest.raises(ReproError):
            parse_request_line("epsilon=0.01")

    def test_malformed_pair_raises(self):
        with pytest.raises(ReproError):
            parse_request_line("adult epsilon")

    def test_unknown_key_raises(self):
        with pytest.raises(ReproError) as err:
            parse_request_line("adult foo=bar")
        assert "epsilon" in str(err.value)  # names the valid keys

    def test_bad_value_raises(self):
        with pytest.raises(ReproError):
            parse_request_line("adult epsilon=notanumber")


class TestCLIBatch:
    def test_batch_file(self, tmp_path, capsys):
        path = tmp_path / "requests.txt"
        path.write_text(
            "adult epsilon=0.05 max_iter=200 fixed_iterations=80\n"
            "# a comment line\n"
            "adult epsilon=0.05 max_iter=200 fixed_iterations=80\n"
        )
        assert main(["batch", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("adult:") == 2
        assert "plan cache" in out
        assert "optimize/s" in out

    def test_batch_repeat_warms_cache(self, tmp_path, capsys):
        path = tmp_path / "requests.txt"
        path.write_text("adult epsilon=0.05 fixed_iterations=50\n")
        assert main(["batch", str(path), "--repeat", "3",
                     "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "[cache" in out

    def test_batch_empty_file(self, tmp_path, capsys):
        path = tmp_path / "requests.txt"
        path.write_text("# nothing here\n")
        assert main(["batch", str(path)]) == 2
        assert "no requests" in capsys.readouterr().err

    def test_batch_unknown_dataset(self, tmp_path, capsys):
        path = tmp_path / "requests.txt"
        path.write_text("no-such-dataset\n")
        assert main(["batch", str(path)]) == 1
        assert "error" in capsys.readouterr().err


class TestCLIAdaptive:
    def test_batch_train_mode_executes_plans(self, tmp_path, capsys):
        path = tmp_path / "requests.txt"
        path.write_text("adult epsilon=0.05 max_iter=200\n")
        assert main(["batch", str(path), "--train", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "iterations" in out
        assert "train/s" in out

    def test_batch_adaptive_persists_calibration(self, tmp_path, capsys):
        path = tmp_path / "requests.txt"
        store = tmp_path / "calibration.json"
        path.write_text("adult epsilon=0.05 max_iter=200\n")
        assert main(["batch", str(path), "--adaptive", "--workers", "1",
                     "--calibration", str(store)]) == 0
        assert store.exists()
        out = capsys.readouterr().out
        assert "trained" in out

    def test_calibrate_subcommand(self, tmp_path, capsys):
        store = tmp_path / "calibration.json"
        assert main(["calibrate", "adult", "--epsilon", "0.05",
                     "--runs", "2", "--perturb", "bgd=0.25",
                     "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "before: calibration store: empty" in out
        assert "after: calibration store:" in out
        assert store.exists()
        # A second invocation starts from the persisted factors.
        assert main(["calibrate", "adult", "--epsilon", "0.05",
                     "--runs", "1", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "before: calibration store: empty" not in out

    @pytest.mark.parametrize("mode", ["serve", "batch"])
    def test_tcp_calibration_is_refused_before_any_request(
        self, mode, monkeypatch, capsys
    ):
        # The calibration store is a local file: a tcp:// URL used to be
        # served uncalibrated and then crash the save at shutdown.
        stdin = io.StringIO("adult epsilon=0.05 fixed_iterations=50\nquit\n")
        monkeypatch.setattr(sys, "stdin", stdin)
        argv = ([mode] + (["-"] if mode == "batch" else [])
                + ["--calibration", "tcp://127.0.0.1:7700/cal"])
        assert main(argv) == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1
        assert "--cache" in errors[0] and "--checkpoint" in errors[0]
        assert captured.out == ""
        assert stdin.tell() == 0

    def test_calibrate_rejects_bad_perturb(self, capsys):
        assert main(["calibrate", "adult", "--perturb", "nonsense"]) == 2
        assert "ALG=FACTOR" in capsys.readouterr().err

    def test_calibrate_rejects_unknown_perturb_algorithm(self, capsys):
        assert main(["calibrate", "adult", "--perturb", "bdg=0.25"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err


class TestCLIServe:
    def test_serve_loop(self, monkeypatch, capsys):
        monkeypatch.setattr(
            sys, "stdin",
            io.StringIO(
                "adult epsilon=0.05 fixed_iterations=50\n"
                "adult epsilon=0.05 fixed_iterations=50\n"
                "quit\n"
            ),
        )
        assert main(["serve"]) == 0
        out = capsys.readouterr().out
        assert out.count("adult:") == 2
        assert "[cache" in out          # second request hit the cache
        assert "plan cache" in out

    def test_serve_recovers_from_bad_request(self, monkeypatch, capsys):
        monkeypatch.setattr(
            sys, "stdin",
            io.StringIO(
                "bogus-dataset\n"
                "adult epsilon=0.05 fixed_iterations=50\n"
            ),
        )
        assert main(["serve"]) == 0
        captured = capsys.readouterr()
        assert "error" in captured.err
        assert "adult:" in captured.out

    def test_serve_emits_structured_errors_on_stdout(self, monkeypatch,
                                                     capsys):
        # Failures surface as machine-readable JSON on stdout -- the
        # same envelope the socket front-end speaks -- and the loop
        # keeps serving afterwards.
        monkeypatch.setattr(
            sys, "stdin",
            io.StringIO(
                "adult epsilon=not-a-float\n"
                "no-such-dataset epsilon=0.05\n"
                "adult epsilon=0.05 fixed_iterations=50\n"
            ),
        )
        assert main(["serve"]) == 0
        captured = capsys.readouterr()
        payloads = [json.loads(line) for line in captured.out.splitlines()
                    if line.startswith("{")]
        assert [p["error"] for p in payloads] == [
            "bad_request", "request_failed"
        ]
        assert all(p["ok"] is False and p["detail"] for p in payloads)
        assert "adult:" in captured.out

    def test_serve_refuses_a_nonpositive_count_and_a_negative_l2(
        self, monkeypatch, capsys, tmp_path
    ):
        # Priced at -5 iterations, the request used to be answered with a
        # negative cost and persisted; l2=-5 trained as l2=0.
        plans = tmp_path / "plans.json"
        monkeypatch.setattr(
            sys, "stdin",
            io.StringIO(
                "adult fixed_iterations=-5\n"
                "adult epsilon=0.05 fixed_iterations=50 l2=-5\n"
                "adult epsilon=0.05 fixed_iterations=50\n"
            ),
        )
        assert main(["serve", "--cache", str(plans)]) == 0
        payloads = [json.loads(line)
                    for line in capsys.readouterr().out.splitlines()
                    if line.startswith("{")]
        assert [p["error"] for p in payloads] == [
            "request_failed", "request_failed"
        ]
        assert "fixed_iterations" in payloads[0]["detail"]
        assert "l2" in payloads[1]["detail"]
        from repro.service import JsonFileBackend

        # Only the valid third line reached the plan store.
        assert len(JsonFileBackend(str(plans)).load()) == 1

    def test_serve_accepts_json_lines_and_metrics_verb(self, monkeypatch,
                                                       capsys):
        # The stdin loop shares the socket front-end's dispatcher, so
        # JSON request lines and the bare ``metrics`` verb work there
        # too.
        monkeypatch.setattr(
            sys, "stdin",
            io.StringIO(
                '{"dataset": "adult", "epsilon": 0.05, '
                '"fixed_iterations": 50}\n'
                "metrics\n"
            ),
        )
        assert main(["serve"]) == 0
        out = capsys.readouterr().out
        assert "adult:" in out
        assert "service.computed 1" in out
        assert "frontend.served 1" in out

    def test_serve_metrics_verb_reports_request_latency(self, monkeypatch,
                                                        capsys):
        # Request latency is the root span's histogram: the stdin reply
        # prints it beside the counters.
        monkeypatch.setattr(
            sys, "stdin",
            io.StringIO("adult epsilon=0.05 fixed_iterations=50\n"
                        "metrics\n"),
        )
        assert main(["serve"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^span\.request count=1 mean=\d+\.\dms$", out,
                         re.MULTILINE), out


class TestCLITrainJobs:
    ARGS = ["adult", "epsilon=0.001", "max_iter=400", "algorithm=mgd"]

    def run_lease(self, store, extra, capsys):
        code = main(["train", *self.ARGS, "--job-id", "nightly",
                     "--checkpoint", str(store), "--checkpoint-every",
                     "25", *extra])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return captured.out

    def test_preempt_then_resume_then_idempotent(self, tmp_path, capsys):
        store = tmp_path / "jobs.json"
        out = self.run_lease(store, ["--max-iterations", "50"], capsys)
        assert "preempted at iteration 50" in out
        assert "re-run the same command to resume" in out

        out = self.run_lease(store, [], capsys)
        assert "done" in out
        assert "(resumed)" in out
        assert "1 job lease(s) (1 resumed" in out

        # A third run returns the stored outcome without retraining.
        out = self.run_lease(store, [], capsys)
        assert "already done" in out

    def test_train_requires_job_id_and_store(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "adult"])

    def test_bad_request_line_reports_error(self, tmp_path, capsys):
        code = main(["train", "adult", "bogus=1", "--job-id", "j",
                     "--checkpoint", str(tmp_path / "jobs.json")])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestCLIBatchJobs:
    def test_job_lines_train_without_dragging_plain_lines_along(
        self, tmp_path, capsys
    ):
        """One job_id line in a batch file trains *that line only*; the
        other lines keep the cheap optimize-only path, in file order."""
        path = tmp_path / "requests.txt"
        path.write_text(
            "adult epsilon=0.05 fixed_iterations=50\n"
            "adult epsilon=0.001 max_iter=400 algorithm=mgd "
            "job_id=b1 lease_iterations=40\n"
            "adult epsilon=0.05 fixed_iterations=80\n"
        )
        assert main(["batch", str(path), "--workers", "1",
                     "--checkpoint", str(tmp_path / "jobs.json")]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("adult:")]
        assert len(lines) == 3
        # Only the middle (job) line executed a plan.
        assert "iterations" not in lines[0]
        assert "job b1: preempted at iteration 40" in lines[1]
        assert "iterations" not in lines[2]
        assert "request/s" in out  # mixed-mode rate label

    def test_job_descriptor_carries_the_request_trace_id(
        self, tmp_path, capsys
    ):
        """Batch lines go through serve's dispatcher, so a job a batch
        starts is stamped with its request's trace id, like serve's."""
        from repro.service import CheckpointStore

        store = tmp_path / "jobs.json"
        path = tmp_path / "requests.txt"
        path.write_text("adult epsilon=0.05 max_iter=200 job_id=t1 "
                        "lease_iterations=10\n")
        assert main(["batch", str(path), "--checkpoint", str(store)]) == 0
        request = CheckpointStore(path=str(store)).load("t1").request
        assert request["dataset"] == "adult"
        assert request["trace_id"]

    def test_repeat_with_a_job_line_serializes_the_leases(
        self, tmp_path, capsys
    ):
        """--repeat duplicates a job_id line; run concurrently the
        copies would contend for one lease and abort the batch, so
        batch serializes them (the second copy sees 'already done')."""
        path = tmp_path / "requests.txt"
        path.write_text("adult epsilon=0.05 max_iter=200 job_id=r1\n")
        assert main(["batch", str(path), "--repeat", "2", "--workers",
                     "4", "--checkpoint", str(tmp_path / "jobs.json")]) == 0
        out = capsys.readouterr().out
        assert "job r1: done at iteration" in out
        assert "already done" in out


class TestCLIFleetAlgorithms:
    """A durable job's algorithm set is part of its workload
    fingerprint, so every subcommand that can resume one takes
    --algorithms (train and worker once did not)."""

    ALGORITHMS = "bgd,mgd,sgd,svrg,momentum,adagrad,adam,grad_avg"

    def start_job(self, tmp_path, capsys):
        path = tmp_path / "requests.txt"
        path.write_text("adult epsilon=0.0001 max_iter=250 job_id=j1 "
                        "lease_iterations=100\n")
        store = str(tmp_path / "jobs.json")
        assert main(["batch", str(path), "--workers", "1", "--algorithms",
                     self.ALGORITHMS, "--checkpoint", store]) == 0
        assert "job j1: preempted at iteration 100" in \
            capsys.readouterr().out
        return store

    def test_worker_resumes_a_job_an_extended_space_server_started(
        self, tmp_path, capsys
    ):
        store = self.start_job(tmp_path, capsys)
        # Without the set the request fingerprints as another workload:
        # the job fails on this worker, and the drain gives up (exit 1)
        # instead of re-claiming it forever.
        with pytest.warns(UserWarning, match="bound to workload"):
            assert main(["worker", "--checkpoint", store, "--drain",
                         "--poll", "0.01"]) == 1
        assert "0 job(s) done, 0 stolen, 1 failed" in \
            capsys.readouterr().out
        assert main(["worker", "--checkpoint", store, "--drain",
                     "--algorithms", self.ALGORITHMS]) == 0
        assert "1 job(s) done, 0 stolen, 0 failed" in \
            capsys.readouterr().out

    def test_train_resumes_it_too(self, tmp_path, capsys):
        store = self.start_job(tmp_path, capsys)
        assert main(["train", "adult", "epsilon=0.0001", "max_iter=250",
                     "--job-id", "j1", "--checkpoint", store,
                     "--algorithms", self.ALGORITHMS]) == 0
        out = capsys.readouterr().out
        assert "job j1: done" in out and "(resumed)" in out

    @pytest.mark.parametrize("subcommand", [
        ["train", "adult", "--job-id", "j"], ["worker"],
    ])
    def test_unknown_algorithm_is_a_usage_error(self, tmp_path, capsys,
                                                subcommand):
        code = main([*subcommand, "--checkpoint",
                     str(tmp_path / "jobs.json"), "--algorithms", "nope"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestCLIServeJobs:
    def test_restarted_serve_finishes_in_flight_jobs(
        self, tmp_path, monkeypatch, capsys
    ):
        store = tmp_path / "jobs.json"
        # Lease 1: preempted via the request-line budget keys.
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            "adult epsilon=0.001 max_iter=400 algorithm=mgd "
            "job_id=inflight checkpoint_every=25 lease_iterations=50\n"
            "quit\n"
        ))
        assert main(["serve", "--checkpoint", str(store)]) == 0
        out = capsys.readouterr().out
        assert "preempted at iteration 50" in out

        # Restarted server, no input: it re-issues the stored request
        # (budget keys stripped) and finishes the job from the store.
        monkeypatch.setattr(sys, "stdin", io.StringIO("quit\n"))
        assert main(["serve", "--checkpoint", str(store)]) == 0
        out = capsys.readouterr().out
        assert "resuming in-flight job 'inflight' from iteration 50" in out
        assert "job inflight: done" in out
        # The decision came from the checkpoint, not re-speculation.
        assert "[cache" in out

    def test_restarted_serve_resumes_an_adaptive_job_in_its_own_mode(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.service import CheckpointStore

        store = tmp_path / "jobs.json"
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            "adult epsilon=0.001 max_iter=400 algorithm=mgd "
            "job_id=aj checkpoint_every=25 lease_iterations=50\n"
        ))
        assert main(["serve", "--adaptive", "--checkpoint", str(store)]) == 0
        assert "preempted at iteration 50" in capsys.readouterr().out

        # A server restarted without --adaptive resumes the job as the
        # adaptive job it is, and says nothing about the mode.
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["serve", "--checkpoint", str(store)]) == 0
        assert "job aj: done" in capsys.readouterr().out
        assert [w for w in caught if issubclass(w.category, UserWarning)] \
            == []
        assert CheckpointStore(path=str(store)).load("aj").adaptive

    def test_bad_lease_budget_line_does_not_kill_the_server(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            "adult epsilon=0.05 job_id=bad lease_iterations=0\n"
            "adult epsilon=0.05 fixed_iterations=50\n"
        ))
        assert main(["serve", "--checkpoint",
                     str(tmp_path / "jobs.json")]) == 0
        captured = capsys.readouterr()
        assert "error: budget max_iterations" in captured.err
        assert "adult:" in captured.out  # the next line still served

    def test_still_leased_pending_job_is_reported_not_crashed(
        self, tmp_path, monkeypatch, capsys
    ):
        """A hard-killed server's lease outlives it; the restarted
        server must say so (and when to retry), not die or silently
        skip."""
        from repro.service import CheckpointStore, JobCheckpoint

        store = tmp_path / "jobs.json"
        holder = CheckpointStore(path=str(store))
        holder.save(JobCheckpoint(
            job_id="held", status="running", fingerprint="f",
            weights=[0.0], state=None, chosen={"plan": {}},
            trace={"segments": []}, done_iterations=5,
            request={"dataset": "adult", "epsilon": 0.05,
                     "job_id": "held"},
        ), owner="the-dead-server")

        monkeypatch.setattr(sys, "stdin", io.StringIO("quit\n"))
        assert main(["serve", "--checkpoint", str(store)]) == 0
        captured = capsys.readouterr()
        assert "still leased" in captured.err
        assert "restart after the lease expires" in captured.err


class TestCLICache:
    def populate(self, store, capsys, lease=None):
        args = ["train", "adult", "epsilon=0.001", "max_iter=400",
                "algorithm=mgd", "--job-id", "j1",
                "--checkpoint", str(store)]
        if lease:
            args += ["--max-iterations", str(lease)]
        assert main(args) == 0
        capsys.readouterr()

    def test_inspect_reports_jobs_and_plans(self, tmp_path, capsys):
        store = tmp_path / "jobs.json"
        self.populate(store, capsys)
        assert main(["cache", str(store)]) == 0
        out = capsys.readouterr().out
        assert "(json backend): 2 entries" in out
        assert "job checkpoints: 1 (format 2 x1)" in out
        assert "done: 1" in out
        assert "job plan rows: 1 (format 2 x1)" in out
        assert "unknown" not in out

    def plan_store(self, tmp_path, capsys):
        plans = tmp_path / "plans.json"
        path = tmp_path / "requests.txt"
        path.write_text("adult epsilon=0.05 fixed_iterations=50\n")
        assert main(["batch", str(path), "--workers", "1",
                     "--cache", str(plans)]) == 0
        capsys.readouterr()
        return plans

    def test_inspect_plan_store(self, tmp_path, capsys):
        plans = self.plan_store(tmp_path, capsys)
        assert main(["cache", str(plans)]) == 0
        out = capsys.readouterr().out
        assert "plan entries: 1 (format 2 x1)" in out

    def test_compact_drops_done_jobs_and_junk(self, tmp_path, capsys):
        store = tmp_path / "jobs.json"
        self.populate(store, capsys)
        from repro.service import JsonFileBackend

        backend = JsonFileBackend(str(store))
        backend.store("junk", {"neither": "plan nor checkpoint"})
        assert main(["cache", str(store), "--compact",
                     "--drop-done-jobs"]) == 0
        out = capsys.readouterr().out
        assert "unknown entries: 1" in out
        # the job, its plan row and the junk
        assert "compacted: kept 0, dropped 3" in out
        assert JsonFileBackend(str(store)).load() == {}

    def test_compact_keeps_live_jobs(self, tmp_path, capsys):
        store = tmp_path / "jobs.db"
        self.populate(store, capsys, lease=50)  # preempted -> pending
        assert main(["cache", str(store), "--compact",
                     "--drop-done-jobs"]) == 0
        out = capsys.readouterr().out
        assert "preempted: 1" in out
        assert "compacted: kept 2, dropped 0" in out  # job + plan row

    def test_compact_ttl_drops_only_old_plan_entries(self, tmp_path, capsys):
        plans = tmp_path / "plans.json"
        path = tmp_path / "requests.txt"
        path.write_text("adult epsilon=0.05 fixed_iterations=50\n"
                        "adult epsilon=0.05 fixed_iterations=60\n")
        assert main(["batch", str(path), "--workers", "1",
                     "--cache", str(plans)]) == 0
        from repro.service import JsonFileBackend

        backend = JsonFileBackend(str(plans))
        old, young = sorted(backend.load())
        payload = backend.get(old)
        payload["written_at"] -= 2 * 86400
        backend.store(old, payload)
        capsys.readouterr()
        assert main(["cache", str(plans), "--compact", "--ttl", "86400"]) == 0
        assert "compacted: kept 1, dropped 1" in capsys.readouterr().out
        assert list(JsonFileBackend(str(plans)).load()) == [young]

    def test_compact_ttl_keeps_fresh_plan_entries(self, tmp_path, capsys):
        from repro.service import JsonFileBackend

        plans = self.plan_store(tmp_path, capsys)
        before = JsonFileBackend(str(plans)).load()
        assert main(["cache", str(plans), "--compact",
                     "--ttl", "604800"]) == 0
        assert "compacted: kept 1, dropped 0" in capsys.readouterr().out
        assert JsonFileBackend(str(plans)).load() == before

    def test_compact_without_ttl_keeps_old_plan_entries(self, tmp_path,
                                                        capsys):
        # Nothing ages a plan entry unless --ttl asks for it.
        from repro.service import JsonFileBackend

        plans = self.plan_store(tmp_path, capsys)
        backend = JsonFileBackend(str(plans))
        (key,) = backend.load()
        payload = backend.get(key)
        payload["written_at"] -= 365 * 86400
        backend.store(key, payload)
        assert main(["cache", str(plans), "--compact"]) == 0
        assert "compacted: kept 1, dropped 0" in capsys.readouterr().out
        assert list(JsonFileBackend(str(plans)).load()) == [key]

    def test_missing_store_reports_error(self, tmp_path, capsys):
        assert main(["cache", str(tmp_path / "nope.json")]) == 1
        assert "no store" in capsys.readouterr().err

    @pytest.mark.parametrize("ttl", ["0", "-5"])
    def test_nonpositive_ttl_is_refused(self, tmp_path, capsys, ttl):
        from repro.service import JsonFileBackend

        plans = self.plan_store(tmp_path, capsys)
        before = JsonFileBackend(str(plans)).load()
        assert main(["cache", str(plans), "--compact", "--ttl", ttl]) == 2
        assert "error: --ttl must be positive" in capsys.readouterr().err
        assert JsonFileBackend(str(plans)).load() == before

    @pytest.mark.parametrize("flags", [["--ttl", "1"], ["--drop-done-jobs"]],
                             ids=["ttl", "drop-done-jobs"])
    def test_aging_flags_need_compact(self, tmp_path, capsys, flags):
        store = tmp_path / "jobs.json"
        self.populate(store, capsys)
        assert main(["cache", str(store), *flags]) == 2
        captured = capsys.readouterr()
        assert "error: --ttl and --drop-done-jobs need --compact" in \
            captured.err
        assert captured.out == ""


class TestCLIBounds:
    """A numeric flag that only makes sense positive is a usage error,
    not a traceback or a silently broken run."""

    @pytest.mark.parametrize("subcommand,flag", [
        (["batch", "-"], "--cache-size"),
        (["serve"], "--cache-size"),
        (["batch", "-"], "--repeat"),
        (["batch", "-"], "--workers"),
        (["serve"], "--workers"),
        (["serve"], "--shed-after"),
        (["serve"], "--max-inflight"),
        (["calibrate", "adult"], "--runs"),
        (["worker", "--checkpoint", "jobs.json"], "--poll"),
        (["worker", "--checkpoint", "jobs.json"], "--max-seconds"),
        (["train", "adult", "--job-id", "j", "--checkpoint", "jobs.json"],
         "--max-iterations"),
        (["train", "adult", "--job-id", "j", "--checkpoint", "jobs.json"],
         "--max-seconds"),
    ], ids=["batch", "serve", "batch-repeat", "batch-workers",
            "serve-workers", "serve-shed-after", "serve-max-inflight",
            "calibrate-runs", "worker-poll", "worker-max-seconds",
            "train-max-iterations", "train-max-seconds"])
    def test_nonpositive_count_is_a_usage_error(self, tmp_path, monkeypatch,
                                                capsys, subcommand, flag):
        # --max-inflight 0 once answered every request quota_exceeded,
        # --workers 0 meant 8 threads in serve and 1 in batch, the rest
        # were quietly clamped to 1, and a worker's --poll 0 rewrote its
        # heartbeat thousands of times a second.
        monkeypatch.chdir(tmp_path)
        assert main([*subcommand, flag, "0"]) == 2
        captured = capsys.readouterr()
        assert f"error: {flag} must be positive" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("every", ["0", "-1"])
    def test_nonpositive_checkpoint_every_is_a_usage_error(
        self, tmp_path, capsys, every
    ):
        # Refused before the job's lease stub is written: a stub for a
        # job that cannot run would be reported in flight forever.
        store = tmp_path / "jobs.json"
        assert main(["train", "adult", "--job-id", "j", "--checkpoint",
                     str(store), "--checkpoint-every", every]) == 2
        assert "error: --checkpoint-every must be positive" in \
            capsys.readouterr().err
        assert not store.exists()

    def test_zero_checkpoint_every_line_leaves_the_store_empty(
        self, tmp_path, capsys
    ):
        from repro.service import CheckpointStore

        store = tmp_path / "jobs.json"
        path = tmp_path / "requests.txt"
        path.write_text("adult epsilon=0.05 job_id=j checkpoint_every=0\n")
        assert main(["batch", str(path), "--checkpoint", str(store)]) == 1
        assert "checkpoint_every must be >= 1" in capsys.readouterr().err
        assert CheckpointStore(path=str(store)).backend.load() == {}

    @pytest.mark.parametrize("ttl", ["0", "-5"])
    def test_nonpositive_lease_ttl_is_a_usage_error(self, tmp_path, capsys,
                                                    ttl):
        # Every lease would be written already expired, so a second
        # worker could steal a job that is still running.
        store = tmp_path / "jobs.json"
        assert main(["worker", "--checkpoint", str(store), "--drain",
                     "--lease-ttl", ttl]) == 2
        assert "error: --lease-ttl must be positive" in \
            capsys.readouterr().err
        assert not store.exists()

    def test_cache_size_of_one_is_accepted(self, tmp_path, capsys):
        path = tmp_path / "requests.txt"
        path.write_text("adult epsilon=0.05 fixed_iterations=50\n"
                        "adult epsilon=0.05 fixed_iterations=60\n")
        assert main(["batch", str(path), "--workers", "1",
                     "--cache-size", "1"]) == 0
        assert "error" not in capsys.readouterr().err

    def test_fractional_lease_ttl_is_accepted(self, tmp_path, capsys):
        store = tmp_path / "jobs.json"
        assert main(["train", "adult", "epsilon=0.001", "max_iter=400",
                     "algorithm=mgd", "--job-id", "j1",
                     "--checkpoint", str(store),
                     "--max-iterations", "50"]) == 0  # preempted
        capsys.readouterr()
        assert main(["worker", "--checkpoint", str(store), "--drain",
                     "--lease-ttl", "30.5"]) == 0
        assert "1 job(s) done, 0 stolen, 0 failed" in \
            capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["serve", "--cache", "tcp://127.0.0.1:1/bad:ns"],
        ["batch", "-", "--cache", "tcp://127.0.0.1:70000/ns"],
        ["train", "adult", "--job-id", "j",
         "--checkpoint", "tcp://127.0.0.1:0/ns"],
        ["cache", "tcp://127.0.0.1:1/bad:ns"],
        ["worker", "--checkpoint", "tcp://127.0.0.1:7700,127.0.0.1:7701/ns",
         "--drain"],
    ], ids=["serve", "batch", "train", "cache", "worker"])
    def test_malformed_store_url_is_a_usage_error(self, monkeypatch, capsys,
                                                  argv):
        # Each one used to print a ValueError traceback and exit 1; a
        # port past 65535 used to wrap around onto another port.
        stdin = io.StringIO("adult epsilon=0.05 fixed_iterations=50\n")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error: " in captured.err
        assert "Traceback" not in captured.err
        assert stdin.tell() == 0


class TestCLIListen:
    """A port the server cannot listen on is one ``error:`` line, not a
    traceback: a busy one exits 1, one that is no TCP port exits 2."""

    @staticmethod
    def run(*argv):
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )

    @pytest.mark.parametrize("command", [["store", "--port"],
                                         ["serve", "--listen"]],
                             ids=["store", "serve"])
    def test_busy_port_is_an_error(self, tmp_path, command):
        with socket.create_server(("127.0.0.1", 0)) as holder:
            port = holder.getsockname()[1]
            extra = (["--path", str(tmp_path / "store.db")]
                     if command[0] == "store" else [])
            proc = self.run(*command, str(port), *extra)
        assert proc.returncode == 1
        assert f"error: cannot listen on 127.0.0.1:{port}: " in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "listening on" not in proc.stdout
        # The store closed its backend: no WAL is left behind.
        assert not (tmp_path / "store.db-wal").exists()

    @pytest.mark.parametrize("command", [["store", "--port"],
                                         ["serve", "--listen"]],
                             ids=["store", "serve"])
    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_port_outside_the_tcp_range_is_a_usage_error(self, command,
                                                          port):
        proc = self.run(*command, port)
        assert proc.returncode == 2
        assert (f"error: {command[1]} must be a port in 0-65535, got {port}"
                in proc.stderr)
        assert "Traceback" not in proc.stderr


@pytest.mark.slow
class TestCLISubprocess:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro",
             "run classification on adult having epsilon 0.05, "
             "max iter 100;"],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0
        assert "iterations" in proc.stdout
