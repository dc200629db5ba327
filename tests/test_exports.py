"""The export surface: every ``__all__`` name of every module under
``repro`` resolves, and none is listed twice."""

import importlib
import pkgutil

import repro


def test_every_all_name_resolves_once():
    names = ["repro"] + [
        m.name
        for m in pkgutil.walk_packages(repro.__path__, "repro.")
        if m.name != "repro.__main__"  # importing it runs the CLI
    ]
    problems = []
    for name in names:
        module = importlib.import_module(name)
        exported = list(getattr(module, "__all__", ()))
        problems += [f"{name}: {n} listed twice" for n in set(exported) if exported.count(n) > 1]
        problems += [f"{name}: {n} does not resolve" for n in exported if not hasattr(module, n)]
    assert len(names) > 50
    assert problems == []
