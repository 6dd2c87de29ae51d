import importlib.util
import os
import weakref

import pytest

from ncdiff import algebra
from ncdiff.dsl import ModelDocument
from ncdiff.models import build_glpq, build_quantum_torus


@pytest.fixture(scope="session")
def torus():
    return build_quantum_torus()


@pytest.fixture(scope="session")
def glpq():
    return build_glpq()


@pytest.fixture(scope="session")
def glpq_rfree_doc(glpq):
    """The gl-pq2 document without its subst line, so r stays free and the
    twists no longer respect the relations; every statement keeps its
    line, so located messages do not move."""
    return ModelDocument([s for s in glpq.doc.statements
                          if s.kind != "subst"], glpq.doc.name)


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


@pytest.fixture
def run_tables(monkeypatch):
    """A weak reference to each ``_RunTables`` built from now on, in order:
    the tables class is replaced by a subclass that records them."""
    made = []

    class Recorded(algebra._RunTables):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))
    monkeypatch.setattr(algebra, "_RunTables", Recorded)
    return made
