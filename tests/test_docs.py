"""Docs checks: README quickstart, serving docs, doctests, docstring coverage.

Four gates keep the documentation honest:

* the README's CLI quickstart block is extracted verbatim and executed in
  a temporary directory, so the copy-pasteable commands can never drift
  from the shipped entry points;
* the serving docs (`docs/serving.md` and the README "Serve a model"
  section) are pinned to the implementation: every documented endpoint
  must exist (and vice versa), every documented `repro serve` flag must
  parse, and the documented `/v1/infer` schema is exercised against a
  live in-process server;
* public-API doctests are collected explicitly so their examples stay
  executable;
* an AST walk enforces docstring coverage (pydocstyle's D100–D104: every
  public module, class, function, and method) over the whole package, so
  coverage can't regress.
"""

import ast
import doctest
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
README = REPO / "README.md"
SRC = REPO / "src"


def _quickstart_commands():
    """Extract the `python -m repro ...` lines of the README quickstart."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```bash\n(.*?)```", text, flags=re.DOTALL)
    for block in blocks:
        lines = [line.strip() for line in block.splitlines() if line.strip()]
        if any(line.startswith("python -m repro mine") for line in lines):
            return [line for line in lines if line.startswith("python -m repro")]
    raise AssertionError("README quickstart block with `python -m repro mine` "
                         "not found")


def test_readme_quickstart_commands_run(tmp_path):
    """Every command in the README quickstart completes from a clean dir."""
    commands = _quickstart_commands()
    assert len(commands) >= 4, "quickstart should cover mine/fit/topics/infer"
    for command in commands:
        argv = command.split()
        assert argv[:3] == ["python", "-m", "repro"]
        proc = subprocess.run(
            [sys.executable] + argv[1:], cwd=tmp_path, text=True,
            capture_output=True, timeout=600,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, f"{command!r} failed:\n{proc.stderr}"
    assert (tmp_path / "segmentation.npz").exists()
    assert (tmp_path / "model.npz").exists()
    assert (tmp_path / "mixtures.json").exists()


SERVING_DOC = REPO / "docs" / "serving.md"


def test_serving_doc_endpoints_match_implementation():
    """Every endpoint in docs/serving.md exists in the server, and vice
    versa — the endpoint reference cannot drift from the routes."""
    from repro.serve import ENDPOINTS

    text = SERVING_DOC.read_text(encoding="utf-8")
    documented = set(re.findall(
        r"`(/(?:healthz|metrics|debug/[a-z]+"
        r"|v1/[a-z]+(?:/[a-z]+|/<name>)*))`", text))
    assert documented == set(ENDPOINTS), (
        f"docs/serving.md endpoints {sorted(documented)} != implemented "
        f"{sorted(ENDPOINTS)}")
    readme = README.read_text(encoding="utf-8")
    assert "## Serve a model" in readme
    for endpoint in ENDPOINTS:
        assert f"`{endpoint}`" in readme, f"README must mention {endpoint}"


def test_readme_serve_quickstart_flags_parse():
    """The README's `repro serve` command uses only flags the CLI accepts."""
    from repro.cli import build_parser

    readme = README.read_text(encoding="utf-8")
    commands = [line.strip()
                for block in re.findall(r"```bash\n(.*?)```", readme,
                                        flags=re.DOTALL)
                for line in block.splitlines()
                if line.strip().startswith("python -m repro serve")]
    assert commands, "README must carry a `python -m repro serve` quickstart"
    serve_parser = None
    for action in build_parser()._subparsers._group_actions:
        serve_parser = action.choices.get("serve")
    assert serve_parser is not None
    known_flags = {option for action in serve_parser._actions
                   for option in action.option_strings}
    for command in commands:
        used = [token for token in command.split() if token.startswith("--")]
        unknown = set(used) - known_flags
        assert not unknown, f"README serve flags not in CLI: {sorted(unknown)}"


def test_serving_doc_schema_against_live_server(model_bundle, tmp_path):
    """Exercise the documented /v1/infer request/response schema for real."""
    from repro.io.artifacts import save_bundle
    from repro.serve import ModelRegistry, ReproServer, ServeClient, ServeConfig

    path = tmp_path / "model.npz"
    save_bundle(path, model_bundle)
    registry = ModelRegistry()
    registry.register("model", path)
    server = ReproServer(registry, ServeConfig(port=0))
    server.start_background()
    try:
        client = ServeClient(server.url)
        health = client.health()
        assert {"status", "models", "loaded", "uptime_seconds"} <= set(health)
        reply = client.infer(["an unseen document about data mining"],
                             seed=7, iterations=5)
        assert {"model", "n_topics", "iterations", "seed",
                "documents"} <= set(reply)
        document = reply["documents"][0]
        assert {"theta", "top_topics", "n_phrases",
                "n_unknown_tokens"} <= set(document)
        assert len(document["theta"]) == reply["n_topics"]
    finally:
        server.stop()


def test_serving_doc_covers_multi_process_contract():
    """docs/serving.md documents the fleet: the section exists, names the
    mechanism and the flag, and lists every ServeConfig field — so the
    config surface cannot grow undocumented knobs."""
    from repro.serve import ServeConfig

    text = SERVING_DOC.read_text(encoding="utf-8")
    assert "## Multi-process serving" in text
    for required in ("SO_REUSEPORT", "--workers", "ServeConfig",
                     "worker_id", "resident_version", "mmap",
                     "worker_scaling"):
        assert required in text, f"docs/serving.md must mention {required!r}"
    for field in ServeConfig.__dataclass_fields__:
        assert f"`{field}`" in text, \
            f"docs/serving.md must document ServeConfig.{field}"
    readme = README.read_text(encoding="utf-8")
    assert "--workers" in readme, "README serve quickstart must show --workers"
    assert "SO_REUSEPORT" in readme


STREAMING_DOC = REPO / "docs" / "streaming.md"


def _subparser(name):
    """Fetch one subcommand's parser from the CLI's argument tree."""
    from repro.cli import build_parser

    for action in build_parser()._subparsers._group_actions:
        parser = action.choices.get(name)
        if parser is not None:
            return parser
    raise AssertionError(f"CLI has no {name!r} subcommand")


def _repro_commands(text):
    """All `python -m repro ...` lines inside bash blocks of ``text``."""
    return [line.strip()
            for block in re.findall(r"```bash\n(.*?)```", text,
                                    flags=re.DOTALL)
            for line in block.splitlines()
            if line.strip().startswith("python -m repro ")]


def test_readme_streaming_quickstart_runs(tmp_path):
    """The README's streaming quickstart (ingest → ingest → refresh →
    models) executes verbatim from a clean directory and publishes v1."""
    readme = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```bash\n(.*?)```", readme, flags=re.DOTALL)
    streaming = next((block for block in blocks
                      if "python -m repro ingest" in block), None)
    assert streaming, "README must carry a streaming quickstart block"
    commands = [line.strip() for line in streaming.splitlines()
                if line.strip()]
    assert any(cmd.startswith("python -m repro refresh") for cmd in commands)
    for command in commands:
        argv = command.split()
        assert argv[:3] == ["python", "-m", "repro"]
        proc = subprocess.run(
            [sys.executable] + argv[1:], cwd=tmp_path, text=True,
            capture_output=True, timeout=600,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, f"{command!r} failed:\n{proc.stderr}"
    assert (tmp_path / "stream" / "models" / "current.npz").exists()
    assert (tmp_path / "stream" / "models" / "model-v00001.npz").exists()


def test_streaming_docs_flags_parse():
    """Every documented streaming command (README + docs/streaming.md)
    names a real subcommand and uses only flags its parser accepts."""
    text = README.read_text(encoding="utf-8") + \
        STREAMING_DOC.read_text(encoding="utf-8")
    commands = [cmd for cmd in _repro_commands(text)
                if cmd.split()[3] in ("ingest", "refresh", "models", "serve")]
    assert any("ingest" in cmd for cmd in commands)
    assert any("--stream" in cmd for cmd in commands
               if " serve " in cmd + " "), \
        "the docs must show serve --stream"
    for command in commands:
        subcommand = command.split()[3]
        known_flags = {option for action in _subparser(subcommand)._actions
                       for option in action.option_strings}
        used = [token for token in command.split() if token.startswith("--")]
        unknown = set(used) - known_flags
        assert not unknown, \
            f"documented flags not in `repro {subcommand}`: {sorted(unknown)}"


def test_streaming_doc_covers_the_contract():
    """docs/streaming.md documents the pieces the subsystem promises: the
    log format, merge semantics, refresh policy, and determinism
    contract — and the architecture doc points at the stream layer."""
    text = STREAMING_DOC.read_text(encoding="utf-8")
    for required in ("## Log format", "## Merge semantics",
                     "## Refresh policy", "## Determinism contract",
                     "## Incremental cost",
                     "current.npz", "repro ingest", "repro refresh",
                     "test_stream_refresh_matches_offline_pipeline"):
        assert required in text, f"docs/streaming.md must cover {required!r}"
    architecture = (REPO / "docs" / "architecture.md").read_text("utf-8")
    assert "repro.stream" in architecture
    assert "streaming.md" in architecture
    readme = README.read_text(encoding="utf-8")
    assert "## Stream documents into a model" in readme
    assert "docs/streaming.md" in readme


REPLICATION_DOC = REPO / "docs" / "replication.md"


def test_replication_doc_covers_the_contract():
    """docs/replication.md documents the shipping protocol, the rollout
    state machine, and the fault matrix the chaos tests enforce — and the
    README carries the quickstart that points at it."""
    text = REPLICATION_DOC.read_text(encoding="utf-8")
    for required in ("## Log shipping", "## Rollout", "## Fault matrix",
                     "`/v1/log/manifest`", "`/v1/log/shard/<name>`",
                     "X-Content-SHA256", "SHA-256", ".partial",
                     "adopt_shard", "byte-identical",
                     "canary", "rollback", ".rollback",
                     "rolled_back", "repro replicate", "repro rollout",
                     "SIGKILL", "truncate"):
        assert required in text, f"docs/replication.md must cover {required!r}"
    for state in ("idle", "canary", "fanout", "done", "rolled_back"):
        assert f"`{state}`" in text, \
            f"docs/replication.md must name rollout state {state!r}"
    readme = README.read_text(encoding="utf-8")
    assert "## Replicate and roll out" in readme
    assert "docs/replication.md" in readme


def test_replication_docs_flags_parse():
    """Every documented replicate/rollout command (README +
    docs/replication.md) uses only flags its parser accepts."""
    text = README.read_text(encoding="utf-8") + \
        REPLICATION_DOC.read_text(encoding="utf-8")
    commands = [cmd for cmd in _repro_commands(text)
                if cmd.split()[3] in ("replicate", "rollout")]
    assert any(cmd.split()[3] == "replicate" for cmd in commands), \
        "the docs must show repro replicate"
    assert any(cmd.split()[3] == "rollout" for cmd in commands), \
        "the docs must show repro rollout"
    for command in commands:
        subcommand = command.split()[3]
        known_flags = {option for action in _subparser(subcommand)._actions
                       for option in action.option_strings}
        used = [token for token in command.split() if token.startswith("--")]
        unknown = set(used) - known_flags
        assert not unknown, \
            f"documented flags not in `repro {subcommand}`: {sorted(unknown)}"


def test_observability_docs_pin_metric_catalog():
    """docs/observability.md lists every exported metric family and every
    span name, and the README points at it — the obs surface cannot
    drift undocumented."""
    from repro.obs import METRIC_CATALOG, SPAN_NAMES

    doc = (REPO / "docs" / "observability.md").read_text(encoding="utf-8")
    documented = set(re.findall(r"`repro_([a-z0-9_]+)`", doc))
    missing = set(METRIC_CATALOG) - documented
    assert not missing, f"metrics missing from docs table: {sorted(missing)}"
    for span in SPAN_NAMES:
        assert f"`{span}`" in doc, f"span {span} missing from glossary"
    for required in ("repro status", "X-Request-Id", "worker_id",
                     "metrics-reaped"):
        assert required in doc, f"docs/observability.md must cover {required!r}"
    readme = README.read_text(encoding="utf-8")
    assert "docs/observability.md" in readme
    assert "repro status" in readme or "-m repro status" in readme


def test_status_and_serve_observability_flags_parse():
    """The documented `repro status` / serve observability flags exist."""
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(["status", "--url", "http://x:1", "--json"])
    assert args.command == "status" and args.json
    args = parser.parse_args(["serve", "--model", "m.npz",
                              "--metrics-dir", "/tmp/m",
                              "--slow-request-seconds", "0.5"])
    assert args.metrics_dir == "/tmp/m"
    assert args.slow_request_seconds == 0.5
    args = parser.parse_args(["infer", "--url", "http://x:1", "--smoke"])
    assert args.url == "http://x:1" and args.model is None
    args = parser.parse_args(["serve", "--model", "m.npz",
                              "--history-interval", "0.5",
                              "--profile-dir", "/tmp/p"])
    assert args.history_interval == 0.5 and args.profile_dir == "/tmp/p"
    args = parser.parse_args(["status", "--url", "http://x:1", "--slo"])
    assert args.slo
    args = parser.parse_args(["slo", "--url", "http://x:1", "--json",
                              "--watch", "--interval", "1.5"])
    assert args.command == "slo" and args.json and args.watch
    assert args.interval == 1.5
    args = parser.parse_args(["rollout", "--version", "m.npz",
                              "--target", "a=http://x:1=/tmp/c.npz",
                              "--slo-gate"])
    assert args.slo_gate


@pytest.mark.parametrize("module_name", [
    "repro.core.topmine",
    "repro.core.phrase_lda",
    "repro.topicmodel.lda",
    "repro.utils.timing",
    "repro.obs.profile",
])
def test_public_api_doctests(module_name):
    """The usage examples in public docstrings must stay executable."""
    module = __import__(module_name, fromlist=["_"])
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{module_name} should carry doctest examples"
    assert result.failed == 0, f"{module_name} has {result.failed} failing doctests"


def _missing_docstrings(path: Path):
    """Yield pydocstyle-style findings (D100–D104) for one source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    relative = path.relative_to(REPO)
    if ast.get_docstring(tree) is None:
        code = "D104" if path.name == "__init__.py" else "D100"
        yield f"{relative}: {code} missing module docstring"

    def walk(node, prefix=""):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if child.name.startswith("_"):
                    continue  # private class: its members are not public API
                if ast.get_docstring(child) is None:
                    yield f"{relative}: D101 undocumented class {child.name}"
                yield from walk(child, prefix=f"{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Public defs only; dunders (D105/D107) and nested functions
                # are out of scope, as in the default pydocstyle selection.
                if not child.name.startswith("_") and \
                        ast.get_docstring(child) is None:
                    code = "D102" if prefix else "D103"
                    yield (f"{relative}: {code} undocumented "
                           f"{'method' if prefix else 'function'} "
                           f"{prefix}{child.name}")

    yield from walk(tree)


def test_docstring_coverage_of_package():
    """Every public module, class, function, and method has a docstring."""
    findings = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if "_build" in path.parts:
            continue
        findings.extend(_missing_docstrings(path))
    assert not findings, "missing docstrings:\n" + "\n".join(findings)
