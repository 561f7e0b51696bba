"""Heavy modules stay off the import path of default-config processes.

``scipy.special`` is imported inside the Minka updates and the Beta-function
helpers only, so ``repro serve``, the fleet, the stream and a default
``ToPMine.fit`` never pay for it (nor for the ``numpy.testing``,
``numpy.f2py`` and ``unittest`` it drags in).  Segmentation runs in the
calling process, so the library and the stream never load
``multiprocessing`` either (only the serve fleet does).  Each case runs in
a fresh interpreter, because the test session itself has long since
imported all of these.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HEAVY = ("scipy", "numpy.testing", "numpy.f2py", "unittest")
SERVING_ENTRY_POINTS = ("repro", "repro.cli", "repro.serve.http",
                        "repro.serve.fleet", "repro.stream")

# Imports the modules named in argv[1] (JSON: fit options, modules to
# import, modules to watch), fits ToPMine on a smoke corpus and folds one
# title in, printing the watched modules loaded after the imports and
# after the fit.
_CHILD = """
import importlib, json, sys

options, imports, watched = json.loads(sys.argv[1])

def loaded():
    return sorted(name for name in sys.modules
                  if name in watched
                  or name.startswith(tuple(w + "." for w in watched)))

for module in imports:
    importlib.import_module(module)
from repro import ModelBundle, ToPMine, ToPMineConfig
from repro.core.infer import InferenceConfig
from repro.datasets.registry import load_dataset

after_import = loaded()
config = ToPMineConfig(n_topics=3, min_support=3, seed=13, **options)
texts = load_dataset("dblp-titles", n_documents=60, seed=13).texts
result = ToPMine(config).fit(texts, name="guard")
theta = ModelBundle.from_result(result, config).inferencer().infer_texts(
    [texts[0]], InferenceConfig(n_iterations=5, seed=1)).theta
assert abs(theta.sum() - 1.0) < 1e-9
print(json.dumps({"after_import": after_import, "after_fit": loaded()}))
"""


def run_child(imports=SERVING_ENTRY_POINTS, watched=HEAVY, **options):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD,
         json.dumps([options, list(imports), list(watched)])],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def test_default_config_process_never_loads_scipy():
    loaded = run_child(n_iterations=15)
    assert loaded == {"after_import": [], "after_fit": []}


def test_hyperparameter_optimisation_loads_scipy_on_first_update():
    # burn_in 10 and an update every 25 sweeps: the first runs at sweep 25.
    loaded = run_child(n_iterations=25, optimize_hyperparameters=True)
    assert loaded["after_import"] == []
    assert "scipy.special" in loaded["after_fit"]


def test_library_and_stream_never_load_multiprocessing():
    loaded = run_child(imports=("repro", "repro.stream"),
                       watched=("multiprocessing",), n_iterations=15)
    assert loaded == {"after_import": [], "after_fit": []}
