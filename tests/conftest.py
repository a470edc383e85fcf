import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

# The reference repo is importable read-only for *differential oracles* in
# tests (its pure modules only — conlleval/utils need just stdlib+numpy).
REFERENCE_PATH = "/root/reference"


@pytest.fixture(scope="session")
def reference_path():
    # Tests that import the reference's own modules run only where the
    # reference checkout exists.
    if not os.path.isdir(REFERENCE_PATH):
        pytest.skip(f"reference checkout {REFERENCE_PATH} not present")
    # Stub out torch so the reference's pure modules (utils/conlleval) import
    # in this torch-less sandbox; we only call their stdlib+numpy functions.
    import types

    if "torch" not in sys.modules:
        torch = types.ModuleType("torch")
        torch.nn = types.ModuleType("torch.nn")
        torch.nn.init = types.ModuleType("torch.nn.init")
        torch.nn.Module = type("Module", (), {})  # class-def base only
        torch.nn.functional = types.ModuleType("torch.nn.functional")
        torch.autograd = types.ModuleType("torch.autograd")
        torch.autograd.Variable = type("Variable", (), {})
        torch.optim = types.ModuleType("torch.optim")
        sys.modules["torch"] = torch
        sys.modules["torch.nn"] = torch.nn
        sys.modules["torch.nn.init"] = torch.nn.init
        sys.modules["torch.nn.functional"] = torch.nn.functional
        sys.modules["torch.autograd"] = torch.autograd
        sys.modules["torch.optim"] = torch.optim
    if REFERENCE_PATH not in sys.path:
        sys.path.insert(0, REFERENCE_PATH)
    return REFERENCE_PATH


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (per project convention)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()
