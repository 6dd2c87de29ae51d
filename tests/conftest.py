import importlib.util
import os

import pytest

from ncdiff.models import build_glpq, build_quantum_torus


@pytest.fixture(scope="session")
def torus():
    return build_quantum_torus()


@pytest.fixture(scope="session")
def glpq():
    return build_glpq()


@pytest.fixture(scope="session")
def glpq_localized():
    return build_glpq(adjoin_det_inverse=True)


@pytest.fixture(scope="session")
def repo_module():
    """A loader for a module of the checkout outside the package, given its
    path from the repository root, such as ``bench/workloads.py``."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def load(relpath):
        name = os.path.splitext(relpath)[0].replace("/", "_")
        spec = importlib.util.spec_from_file_location(
            name, os.path.join(root, relpath))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    return load
