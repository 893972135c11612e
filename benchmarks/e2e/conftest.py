"""Keeps the smoke test out of tier-1.

``python -m pytest`` from the repo root collects every ``test_*.py`` it can
reach, and this directory's test runs the benchmark for most of a minute.
It is collected only when pytest is pointed at this directory or a file in
it: ``python -m pytest benchmarks/e2e/test_e2e_smoke.py``.
"""

import pathlib

HERE = pathlib.Path(__file__).resolve().parent


def pytest_ignore_collect(collection_path, config):
    for arg in config.args:
        target = (config.invocation_params.dir / arg.split("::")[0]).resolve()
        if target == HERE or HERE in target.parents:
            return None
    return True
