"""Packaging for the ``repro`` reproduction of conf_sc_JinTTDBLC22.

Installs the ``src/`` layout package plus one console script::

    pip install -e .
    repro verify --quick       # == PYTHONPATH=src python -m repro.verify --quick
    repro inspect ls f.phd5    # == PYTHONPATH=src python -m repro.tools.inspect
"""

import os
import re

from setuptools import find_packages, setup


def _version() -> str:
    path = os.path.join(os.path.dirname(__file__), "src", "repro", "_version.py")
    with open(path, encoding="utf-8") as f:
        return re.search(r'__version__ = "([^"]+)"', f.read()).group(1)


setup(
    name="repro",
    version=_version(),
    description=(
        "Reproduction of 'Accelerating Parallel Write via Deeply Integrating "
        "Predictive Lossy Compression with HDF5' (SC 2022)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.22"],
    entry_points={
        "console_scripts": [
            "repro=repro.tools.main:main",
        ],
    },
)
