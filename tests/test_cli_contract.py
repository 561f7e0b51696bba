"""The `python -m repro` option surface, pinned.

Every subcommand's options (strings, dest, type, choices, required, action)
and the effective configuration the commands build from bare flags.  A
refactor of the CLI must leave both exactly as they are.
"""

import argparse
import json
import re

import pytest

import repro.cli as cli
from repro.cli import build_parser, main
from repro.core.frequent_phrases import PhraseMiningConfig
from repro.core.topmine import ToPMineConfig
from repro.io.artifacts import load_segmentation
from repro.serve import ModelRegistry, ServeConfig
from repro.stream import StreamConfig
from repro.topicmodel import ckernel

DATASETS = ("20conf", "acl-abstracts", "ap-news", "dblp-abstracts",
            "dblp-titles", "yelp-reviews")
MINING_ENGINES = ("auto", "numpy", "reference")
LDA_ENGINES = ("auto", "c", "reference")

# option strings -> (dest, type, choices, required, action)
SOURCE = {
    ("--dataset",): ("dataset", None, DATASETS, False, "store"),
    ("--n-docs",): ("n_docs", "int", None, False, "store"),
    ("--input",): ("input", None, None, False, "store"),
}
MINING = {
    ("--min-support",): ("min_support", "int", None, False, "store"),
    ("--threshold",): ("threshold", "float", None, False, "store"),
    ("--max-phrase-length",): ("max_phrase_length", "int", None, False,
                               "store"),
}
MODEL = {
    ("--topics", "-k"): ("topics", "int", None, False, "store"),
    ("--iterations",): ("iterations", "int", None, False, "store"),
    ("--alpha",): ("alpha", "float", None, False, "store"),
    ("--beta",): ("beta", "float", None, False, "store"),
}
SMOKE = {("--smoke",): ("smoke", None, None, False, "store_true")}
SEED = {("--seed",): ("seed", "int", None, False, "store")}
REMOTE = {
    ("--url",): ("url", None, None, False, "store"),
    ("--timeout",): ("timeout", "float", None, False, "store"),
    ("--json",): ("json", None, None, False, "store_true"),
}

CONTRACT = {
    "mine": {
        **SOURCE, **MINING, **SEED, **SMOKE,
        ("--engine",): ("mining_engine", None, MINING_ENGINES, False, "store"),
        ("--output", "-o"): ("output", None, None, True, "store"),
    },
    "fit": {
        **SOURCE, **MINING, **MODEL, **SEED, **SMOKE,
        ("--segmentation",): ("segmentation", None, None, False, "store"),
        ("--engine",): ("engine", None, LDA_ENGINES, False, "store"),
        ("--optimize-hyperparameters",): ("optimize_hyperparameters", None,
                                          None, False, "store_true"),
        ("--output", "-o"): ("output", None, None, True, "store"),
    },
    "topics": {
        ("--model",): ("model", None, None, True, "store"),
        ("--n",): ("n", "int", None, False, "store"),
        ("--title",): ("title", None, None, False, "store"),
    },
    "infer": {
        **SOURCE, **SEED, **SMOKE,
        ("--model",): ("model", None, None, False, "store"),
        ("--url",): ("url", None, None, False, "store"),
        ("--iterations",): ("iterations", "int", None, False, "store"),
        ("--engine",): ("engine", None, LDA_ENGINES, False, "store"),
        ("--top",): ("top", "int", None, False, "store"),
        ("--show",): ("show", "int", None, False, "store"),
        ("--output", "-o"): ("output", None, None, False, "store"),
    },
    "ingest": {
        **SOURCE, **MINING, **MODEL, **SEED, **SMOKE,
        ("--stream",): ("stream", None, None, True, "store"),
        ("--source",): ("source", None, None, False, "store"),
        ("--engine",): ("engine", None, MINING_ENGINES, False, "store"),
        ("--lda-engine",): ("lda_engine", None, LDA_ENGINES, False, "store"),
        ("--model-seed",): ("model_seed", "int", None, False, "store"),
        ("--refresh-every",): ("refresh_every", "int", None, False, "store"),
        ("--refresh",): ("refresh", None, None, False, "store_true"),
    },
    "refresh": {
        ("--stream",): ("stream", None, None, True, "store"),
        ("--force",): ("force", None, None, False, "store_true"),
    },
    "models": {
        "directory": ("directory", None, None, False, "store"),
        ("--json",): ("json", None, None, False, "store_true"),
    },
    "serve": {
        ("--model",): ("model", None, None, False, "append"),
        ("--models-dir",): ("models_dir", None, None, False, "store"),
        ("--stream",): ("stream", None, None, False, "store"),
        ("--stream-poll",): ("stream_poll", "float", None, False, "store"),
        ("--host",): ("host", None, None, False, "store"),
        ("--port",): ("port", "int", None, False, "store"),
        ("--capacity",): ("capacity", "int", None, False, "store"),
        ("--max-batch",): ("max_batch", "int", None, False, "store"),
        ("--batch-delay-ms",): ("batch_delay_ms", "float", None, False,
                                "store"),
        ("--iterations",): ("iterations", "int", None, False, "store"),
        ("--workers",): ("workers", "int", None, False, "store"),
        ("--metrics-dir",): ("metrics_dir", None, None, False, "store"),
        ("--slow-request-seconds",): ("slow_request_seconds", "float", None,
                                      False, "store"),
        ("--history-interval",): ("history_interval", "float", None, False,
                                  "store"),
        ("--profile-dir",): ("profile_dir", None, None, False, "store"),
    },
    "status": {
        **REMOTE,
        ("--slo",): ("slo", None, None, False, "store_true"),
    },
    "slo": {
        **REMOTE,
        ("--watch",): ("watch", None, None, False, "store_true"),
        ("--interval",): ("interval", "float", None, False, "store"),
    },
    "replicate": {
        ("--primary",): ("primary", None, None, True, "store"),
        ("--root",): ("root", None, None, True, "store"),
        ("--once",): ("once", None, None, False, "store_true"),
        ("--poll",): ("poll", "float", None, False, "store"),
        ("--timeout",): ("timeout", "float", None, False, "store"),
        ("--chunk-bytes",): ("chunk_bytes", "int", None, False, "store"),
        ("--json",): ("json", None, None, False, "store_true"),
    },
    "rollout": {
        ("--version",): ("version", None, None, True, "store"),
        ("--target",): ("target", None, None, True, "append"),
        ("--canary",): ("canary", None, None, False, "store"),
        ("--health-timeout",): ("health_timeout", "float", None, False,
                                "store"),
        ("--poll-interval",): ("poll_interval", "float", None, False, "store"),
        ("--slo-gate",): ("slo_gate", None, None, False, "store_true"),
        ("--json",): ("json", None, None, False, "store_true"),
    },
    "bench": {},
}


def _subparsers():
    """Name -> parser of every ``repro`` subcommand."""
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    raise AssertionError("the CLI has no subcommands")


def _action_name(action):
    """``_StoreTrueAction`` -> ``"store_true"``."""
    name = type(action).__name__.strip("_").removesuffix("Action")
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


def _surface(parser):
    """The pinned view of one subcommand's options."""
    surface = {}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        key = tuple(action.option_strings) or action.dest
        surface[key] = (
            action.dest,
            None if action.type is None else action.type.__name__,
            None if action.choices is None else tuple(action.choices),
            action.required, _action_name(action))
    return surface


def test_every_subcommand_is_pinned():
    assert set(_subparsers()) == set(CONTRACT)


@pytest.mark.parametrize("command", sorted(CONTRACT))
def test_subcommand_options_are_pinned(command):
    assert _surface(_subparsers()[command]) == CONTRACT[command]


@pytest.mark.parametrize("command", sorted(set(CONTRACT) - {"bench"}))
def test_subcommand_help_formats(command):
    """argparse interpolates help strings only on --help: format each one."""
    assert "usage:" in _subparsers()[command].format_help()


@pytest.mark.parametrize("argv", [
    ["mine", "--smoke", "--jobs", "2", "--output", "seg.npz"],
    ["fit", "--smoke", "--engine", "numpy", "--output", "m.npz"],
    ["ingest", "--stream", "s", "--smoke", "--lda-engine", "numpy"],
], ids=["mine-jobs", "fit-engine-numpy", "ingest-lda-engine-numpy"])
def test_removed_deprecated_names_are_usage_errors(argv, tmp_path,
                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["ingest", "--stream", "s", "--smoke", "--topics", "0"],
    ["ingest", "--stream", "s", "--smoke", "--alpha", "0"],
    ["ingest", "--stream", "s", "--smoke", "--beta", "inf"],
    ["ingest", "--stream", "s", "--smoke", "--iterations", "-1"],
    ["fit", "--smoke", "--topics", "0", "--output", "m.npz"],
    ["fit", "--smoke", "--alpha", "nan", "--output", "m.npz"],
    ["fit", "--smoke", "--alpha", "-1", "--output", "m.npz"],
    ["fit", "--smoke", "--beta", "0", "--output", "m.npz"],
    ["fit", "--smoke", "--iterations", "-1", "--output", "m.npz"],
], ids=["ingest-no-topics", "ingest-zero-alpha", "ingest-infinite-beta",
        "ingest-negative-iterations", "fit-no-topics", "fit-nan-alpha",
        "fit-negative-alpha", "fit-zero-beta", "fit-negative-iterations"])
def test_models_no_version_could_serve_are_errors(argv, tmp_path,
                                                   monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "mined" not in captured.out     # refused before mining
    assert not any(tmp_path.iterdir())


# -- effective configuration ---------------------------------------------------------
def _stream_config(root):
    payload = json.loads((root / "stream.json").read_text(encoding="utf-8"))
    return StreamConfig.from_dict(payload["config"])


@pytest.mark.parametrize("smoke, n_topics, n_iterations",
                         [(False, 10, 100), (True, 5, 20)])
def test_ingest_without_creation_flags_uses_stream_defaults(
        tmp_path, smoke, n_topics, n_iterations):
    root = tmp_path / "stream"
    argv = ["ingest", "--stream", str(root), "--dataset", "dblp-titles",
            "--n-docs", "20"] + (["--smoke"] if smoke else [])
    assert main(argv) == 0
    assert _stream_config(root) == StreamConfig(
        n_topics=n_topics, n_iterations=n_iterations, source="dblp-titles")


class _Built(Exception):
    """Raised by a stand-in to stop a command once its config is built."""


def _capture_serve_config(monkeypatch, argv):
    import repro.serve as serve_module

    captured = {}

    def fake_server(registry, config):
        captured["config"] = config
        raise _Built

    monkeypatch.setattr(serve_module, "ReproServer", fake_server)
    monkeypatch.setattr(ModelRegistry, "register", lambda *args: None)
    with pytest.raises(_Built):
        main(["serve", "--model", "m.npz", *argv])
    return captured["config"]


def test_serve_bare_flags_build_default_config(monkeypatch):
    assert _capture_serve_config(monkeypatch, []) == ServeConfig(log_root=None)


def test_serve_batch_delay_is_given_in_milliseconds(monkeypatch):
    config = _capture_serve_config(monkeypatch, ["--batch-delay-ms", "7"])
    assert config.batch_delay == 0.007


@pytest.fixture(scope="module")
def small_segmentation(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract") / "seg.npz"
    assert main(["mine", "--dataset", "dblp-titles", "--n-docs", "150",
                 "--output", str(path)]) == 0
    return path


def test_mine_without_min_support_scales_it(small_segmentation):
    mining = load_segmentation(small_segmentation).mining
    scaled = PhraseMiningConfig.scaled_to_tokens(mining.total_tokens)
    assert mining.min_support == scaled.min_support
    assert mining.min_support != ToPMineConfig().min_support


def test_fit_bare_flags_build_default_phrase_lda_config(small_segmentation,
                                                        monkeypatch, tmp_path):
    captured = {}

    def fake_phrase_lda(config):
        captured["config"] = config
        raise _Built

    monkeypatch.setattr(cli, "PhraseLDA", fake_phrase_lda)
    # fit records the engine "auto" resolved to.
    with pytest.raises(_Built):
        main(["fit", "--segmentation", str(small_segmentation),
              "--output", str(tmp_path / "m.npz")])
    config = captured["config"]
    assert (config.n_topics, config.n_iterations) == (10, 100)
    assert (config.alpha, config.beta) == (None, 0.01)
    expected = "c" if ckernel.kernel_available() else "reference"
    assert (config.seed, config.engine) == (7, expected)
    assert not config.optimize_hyperparameters
