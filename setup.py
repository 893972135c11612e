"""Setuptools shim for ``pip install -e .``.

There is no ``pyproject.toml``: this file is the package metadata.
setuptools discovers the ``repro`` package under ``src/`` on its own.
Python 3.10 is the floor, because the serving layer's request object is a
``dataclass(slots=True)``.
"""

from setuptools import setup

setup(python_requires=">=3.10")
