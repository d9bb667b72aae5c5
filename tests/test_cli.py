"""Tests for the CLI (repro.cli)."""

import argparse

import pytest

from repro.cli import build_parser, main
from repro.datasets import save_dataset


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiments_defaults(self):
        args = build_parser().parse_args(["experiments"])
        assert args.seed == 42
        assert args.runs == 20
        assert args.workers == 1

    def test_parallel_flags(self):
        for command in (
            ["experiments"],
            ["organize"],
            ["snapshot", "build", "--out", "d.json"],
        ):
            args = build_parser().parse_args(command + ["--workers", "4"])
            assert args.workers == 4

    def test_no_read_path_knobs(self):
        """Each read request has one code path: no subcommand takes
        ``--index`` or ``--batch-window-ms``."""
        def flags(parser):
            for action in parser._actions:
                yield from action.option_strings
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        yield from flags(sub)

        found = set(flags(build_parser()))
        assert {"--scheme", "--cache-size", "--segment-records"} <= found
        assert "--index" not in found
        assert "--batch-window-ms" not in found

    def test_one_transport_no_serve_timeout(self):
        """One HTTP server: no node takes ``--transport``, and ``serve``
        has no ``--request-timeout`` (the replica's is its client
        timeout and stays)."""
        for command in (
            ["serve", "--transport", "asyncio"],
            ["serve", "--request-timeout", "5"],
            ["shard", "--snapshot", "s.json", "--transport", "asyncio"],
            ["replica", "--leader", "http://x", "--transport", "asyncio"],
            ["router", "--transport", "asyncio"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(command)
        args = build_parser().parse_args(
            ["replica", "--leader", "http://x", "--request-timeout", "5"]
        )
        assert args.request_timeout == 5.0

    def test_serve_takes_a_snapshot_not_a_corpus(self):
        """``serve`` serves snapshots: the organize-on-the-fly flags are
        gone (``repro snapshot build`` has them)."""
        for flag in (
            ["--dataset", "d.json"], ["--seed", "1"], ["--k", "4"],
            ["--scheme", "bm25"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", "--smoke"] + flag)
        args = build_parser().parse_args(["serve", "--snapshot", "s.json"])
        assert args.snapshot == "s.json" and not args.smoke

    def test_corpus_args(self):
        args = build_parser().parse_args(["corpus", "--seed", "7", "--save", "x.json"])
        assert args.seed == 7
        assert args.save == "x.json"

    def test_organize_args(self):
        args = build_parser().parse_args(
            ["organize", "--dataset", "d.json", "--k", "4", "--algorithm", "cafc-c"]
        )
        assert args.dataset == "d.json"
        assert args.k == 4
        assert args.algorithm == "cafc-c"

    def test_no_subcommand_takes_backend(self):
        """The one Equation-3 batch path left no backend to choose."""
        for command in (
            ["organize"],
            ["snapshot", "build", "--out", "d.json"],
            ["serve"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(command + ["--backend", "naive"])

    def test_bad_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["organize", "--algorithm", "dbscan"])


class TestCommands:
    def test_organize_from_dataset(self, tmp_path, small_raw_pages, capsys):
        path = tmp_path / "corpus.json"
        save_dataset(small_raw_pages, path)
        exit_code = main(
            ["organize", "--dataset", str(path), "--k", "8"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "cluster 0" in output
        assert "terms:" in output

    def test_organize_reports_ingest(self, tmp_path, small_raw_pages, capsys):
        path = tmp_path / "corpus.json"
        save_dataset(small_raw_pages, path)
        exit_code = main(
            ["organize", "--dataset", str(path), "--k", "8",
             "--workers", "2"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "ingest:" in output
        assert f"{len(small_raw_pages)} pages" in output

    def test_organize_cafc_c(self, tmp_path, small_raw_pages, capsys):
        path = tmp_path / "corpus.json"
        save_dataset(small_raw_pages, path)
        exit_code = main(
            ["organize", "--dataset", str(path), "--k", "4", "--algorithm", "cafc-c"]
        )
        assert exit_code == 0
        assert "cafc-c" in capsys.readouterr().out

    def test_organize_save_result(self, tmp_path, small_raw_pages, capsys):
        from repro.datasets import load_result

        dataset = tmp_path / "corpus.json"
        directory = tmp_path / "directory.json"
        save_dataset(small_raw_pages, dataset)
        exit_code = main(
            ["organize", "--dataset", str(dataset),
             "--save-result", str(directory)]
        )
        assert exit_code == 0
        loaded = load_result(directory)
        assert loaded.n_pages == len(small_raw_pages)

    def test_explore_query(self, tmp_path, small_raw_pages, capsys):
        dataset = tmp_path / "corpus.json"
        save_dataset(small_raw_pages, dataset)
        exit_code = main(
            ["explore", "--dataset", str(dataset), "--query", "hotel rooms"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "query:" in output
        assert "score" in output

    def test_unify_cluster(self, tmp_path, small_raw_pages, capsys):
        dataset = tmp_path / "corpus.json"
        save_dataset(small_raw_pages, dataset)
        exit_code = main(
            ["unify", "--dataset", str(dataset), "--cluster", "0"]
        )
        assert exit_code == 0
        assert "concepts discovered" in capsys.readouterr().out

    def test_unify_bad_cluster_index(self, tmp_path, small_raw_pages, capsys):
        dataset = tmp_path / "corpus.json"
        save_dataset(small_raw_pages, dataset)
        exit_code = main(
            ["unify", "--dataset", str(dataset), "--cluster", "99"]
        )
        assert exit_code == 1


class TestNodeCommands:
    """The node commands in-process, as ``make serve-smoke``,
    ``make shard-smoke`` and ``make chaos`` run them."""

    def test_serve_smoke(self, capsys):
        assert main(["serve", "--smoke"]) == 0
        output = capsys.readouterr().out
        assert "form directory: 64 pages in 8 clusters" in output
        assert "serve smoke ok:" in output

    def test_serve_smoke_under_chaos_disarms_on_return(
        self, capsys, monkeypatch, tmp_path
    ):
        import repro.cli as cli
        from repro.resilience import FaultPlan, get_active_plan, install_plan

        armed = []
        serve = cli._serve

        def recording(args):
            armed.append(get_active_plan())
            return serve(args)

        monkeypatch.setattr(cli, "_serve", recording)
        assert get_active_plan() is None
        assert main([
            "serve", "--smoke", "--chaos", "7",
            "--journal", str(tmp_path / "serve.wal"),
        ]) == 0
        output = capsys.readouterr().out
        assert "chaos mode:" in output and "serve smoke ok:" in output
        assert get_active_plan() is None
        assert isinstance(armed[0], FaultPlan) and armed[0].seed == 7
        # The smoke's /add crossed the journal seam under the armed plan.
        assert armed[0].describe()["crossings"].get("journal.append", 0) >= 1

        previous = FaultPlan()
        install_plan(previous)
        try:
            assert main(["serve", "--smoke", "--chaos", "7"]) == 0
            assert get_active_plan() is previous
        finally:
            install_plan(None)

    def test_serve_smoke_accepts_a_chaos_refused_add(
        self, capsys, monkeypatch, tmp_path
    ):
        """An /add the armed plan fails at the journal answers a
        structured 503; the smoke accepts it and /healthz still answers."""
        from repro.resilience import FaultPlan, FaultSpec

        plan = FaultPlan(
            [FaultSpec("journal.append", "transient", probability=1.0)],
            seed=7,
        )
        monkeypatch.setattr(FaultPlan, "default_chaos", lambda seed: plan)
        assert main([
            "serve", "--smoke", "--chaos", "7",
            "--journal", str(tmp_path / "serve.wal"),
        ]) == 0
        assert "add answered 503" in capsys.readouterr().out
        assert plan.describe()["fires"].get("journal.append", 0) >= 1

    def test_router_smoke(self, capsys):
        assert main(["router", "--smoke"]) == 0
        assert "shard smoke ok:" in capsys.readouterr().out

    def test_serve_without_snapshot_points_at_snapshot_build(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["serve"])
        assert exc_info.value.code not in (0, None)
        assert "repro snapshot build" in str(exc_info.value.code)

    def test_serve_snapshot_until_interrupted(
        self, tmp_path, small_raw_pages, capsys, monkeypatch
    ):
        """``snapshot build`` then ``serve --snapshot``; Ctrl-C shuts the
        server down and the command returns 0."""
        from repro.service.aio import AsyncHTTPServer

        dataset = tmp_path / "corpus.json"
        snapshot = tmp_path / "directory.json.gz"
        save_dataset(small_raw_pages, dataset)
        assert main([
            "snapshot", "build", "--dataset", str(dataset), "--k", "8",
            "--out", str(snapshot),
        ]) == 0

        def interrupted(server):
            raise KeyboardInterrupt

        monkeypatch.setattr(AsyncHTTPServer, "serve_forever", interrupted)
        assert main(["serve", "--snapshot", str(snapshot), "--port", "0"]) == 0
        output = capsys.readouterr().out
        assert f"form directory: {len(small_raw_pages)} pages in" in output
        assert "(Ctrl-C to stop)" in output and "shutting down" in output


class TestExperimentsCli:
    def test_list_experiments(self, capsys):
        exit_code = main(["experiments", "--list"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "fig2" in output and "robustness" in output

    def test_unknown_only_fails_cleanly(self, capsys):
        exit_code = main(["experiments", "--only", "nope"])
        assert exit_code == 1
        assert "unknown experiment" in capsys.readouterr().err
