"""The package under test, imported from the source tree beside this
directory.  The benchmark never falls back to an installed copy, so it
measures exactly the checkout it sits in; without that tree `load` raises
and the benchmark exits without a result."""
from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("cli", "conditions", "maxflow", "measure", "protocol", "quantum",
           "region", "spacetime", "transport")

cli = conditions = maxflow = measure = protocol = None
quantum = region = spacetime = transport = None


def load() -> None:
    """Import causal_lab and its modules from ROOT/src.

    A second call imports the package afresh (its modules run again), so
    set-up can time the package's own import more than once.
    """
    package = SRC / "causal_lab"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no causal_lab source tree under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    _drop()
    top = importlib.import_module("causal_lab")
    if Path(top.__file__).resolve().parent != package.resolve():
        raise ImportError(f"causal_lab resolved to {top.__file__}, "
                          f"not to {package}")
    for name in MODULES:
        globals()[name] = importlib.import_module("causal_lab." + name)


def _drop() -> None:
    for name in [m for m in sys.modules
                 if m == "causal_lab" or m.startswith("causal_lab.")]:
        del sys.modules[name]


def snapshot():
    """The loaded package, so that a later `load` can be undone."""
    return ({m: mod for m, mod in sys.modules.items()
             if m == "causal_lab" or m.startswith("causal_lab.")},
            {name: globals()[name] for name in MODULES})


def restore(snap) -> None:
    """Make the package of `snap` the loaded one again, so inputs built
    against it meet the same classes and functions as before."""
    modules, names = snap
    _drop()
    sys.modules.update(modules)
    globals().update(names)
