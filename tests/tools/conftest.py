"""Shared helpers for the analyzer test suite.

Fixture files live under ``fixtures/`` but are loaded *as if* they sat
inside ``src/repro`` — the manifest below assigns each one a module name
and virtual path, and :func:`load_fixture_project` builds a
:class:`tools.analysis.project.Project` from their sources.  This keeps
the deliberately-broken corpus out of the real tree (the default lint
walk skips ``tests/tools/fixtures/``) while exercising the exact
path/package scoping the rules use.  Entries whose virtual path lies
outside ``src/`` are the *context* of the ``unreachable`` rule: an entry
point under ``examples/`` and a test module under ``tests/``.
"""

from pathlib import Path

from tools.analysis.project import Project

FIXDIR = Path(__file__).parent / "fixtures"

# filename -> (module name, virtual path inside the analyzed tree)
MANIFEST = {
    "clocksrc.py": ("repro.core.clocksrc", "src/repro/core/clocksrc.py"),
    "hashsink.py": ("repro.blockchain.hashsink", "src/repro/blockchain/hashsink.py"),
    "iterorder.py": ("repro.p2p.iterorder", "src/repro/p2p/iterorder.py"),
    "randsink.py": ("repro.blockchain.randsink", "src/repro/blockchain/randsink.py"),
    "checkpoint_stub.py": ("repro.blockchain.checkpoint", "src/repro/blockchain/checkpoint.py"),
    "floatflow.py": ("repro.federation.floatflow", "src/repro/federation/floatflow.py"),
    "exflow.py": ("repro.blockchain.exflow", "src/repro/blockchain/exflow.py"),
    "fixpool.py": ("repro.parallel.fixpool", "src/repro/parallel/fixpool.py"),
    "pragma_taint.py": ("repro.crypto.pragma_taint", "src/repro/crypto/pragma_taint.py"),
    "exportfix.py": ("repro.obs.exportfix", "src/repro/obs/exportfix.py"),
    "attrflow.py": ("repro.crypto.attrflow", "src/repro/crypto/attrflow.py"),
    "reach_pkg_init.py": ("repro.reach", "src/repro/reach/__init__.py"),
    "reach_lib.py": ("repro.reach.lib", "src/repro/reach/lib.py"),
    "reach_config.py": ("repro.core.config", "src/repro/core/config.py"),
    "reach_root.py": ("examples.reach_root", "examples/reach_root.py"),
    "reach_tests.py": ("tests.test_reach", "tests/test_reach.py"),
    "reach_params.py": ("repro.reach.params", "src/repro/reach/params.py"),
    "reach_params_root.py": ("examples.reach_params_root",
                             "examples/reach_params_root.py"),
    "reach_params_tests.py": ("tests.test_reach_params",
                              "tests/test_reach_params.py"),
    "reach_settings.py": ("repro.reach.settings",
                          "src/repro/reach/settings.py"),
    "reach_settings_root.py": ("examples.reach_settings_root",
                               "examples/reach_settings_root.py"),
    "reach_settings_tests.py": ("tests.test_reach_settings",
                                "tests/test_reach_settings.py"),
}


def load_fixture_project(*names):
    sources = []
    for name in names:
        modname, path = MANIFEST[name]
        sources.append((modname, path, (FIXDIR / name).read_text()))
    return Project.from_sources(sources)


def analyze(*names):
    from tools.analysis import analyze_project

    return analyze_project(load_fixture_project(*names))
