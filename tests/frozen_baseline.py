"""The frozen copy of the package in bench/baseline, for differential tests.

bench/baseline/hybridnoc_baseline is the package as it was when the
benchmark was defined.  It is imported read-only (no bytecode written)
under the name hybridnoc_baseline, once per process.

Property tests against it run without hypothesis's shrink phase
(NO_SHRINK): a failure reports its falsifying example as drawn, in
seconds, where shrinking a simulation scenario took minutes.
"""

import importlib.util
import sys
from pathlib import Path

from hypothesis import Phase

NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)

_BASELINE = Path(__file__).resolve().parent.parent / "bench" / "baseline" / "hybridnoc_baseline"


def _load_baseline():
    name = "hybridnoc_baseline"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(
        name, _BASELINE / "__init__.py", submodule_search_locations=[str(_BASELINE)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    was = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = was
    return module


base = _load_baseline()
