"""Setuptools metadata for the ``repro`` package.

There is no ``pyproject.toml``: the metadata lives here so that editable
installs (``pip install -e . --no-use-pep517``) work offline, without the
``wheel`` package.  ``python setup.py --name --version`` prints it.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).resolve().parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description="Path cost distribution estimation from trajectory data (PVLDB 2016)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
