import importlib.util
import pathlib
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
OBSERVERS_SEED = 1


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240054)


@pytest.fixture(scope="module")
def observers_paths(tmp_path_factory):
    """The seed-1 ``observers`` scenarios, generated and written by ``perfbench/workloads.py``."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:  # its dataclasses look the module up by name
        mp.setitem(sys.modules, "workloads", workloads)
        spec.loader.exec_module(workloads)
    scenarios, _ = workloads.generate("observers", OBSERVERS_SEED, ROOT)
    return workloads.write(scenarios, tmp_path_factory.mktemp("observers"))
