"""Every vkstab name that the benchmark in perfbench/ reaches still resolves.

The tracer looks each traced function up with no default, so a renamed or
deleted one would stop every traced run; the workloads call the package
through `vk.<name>`.  This reads perfbench/ and changes nothing there.
"""

import ast
import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

import vkstab as vk

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, path) for _, module, path, _ in tracer.TRACED]


def _workload_names():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    return sorted({node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name) and node.value.id == "vk"})


@pytest.mark.parametrize("module, path", _traced())
def test_every_traced_name_resolves(module, path):
    assert callable(functools.reduce(getattr, path.split("."), importlib.import_module(module)))


@pytest.mark.parametrize("name", _workload_names())
def test_every_workload_name_resolves(name):
    assert hasattr(vk, name)
