"""Packaging for the ``repro`` package (distribution ``repro-emm``).

The package is pure Python plus one C source, ``repro/sat/_kernel.c``,
shipped as package data: the SAT solver compiles it into its
``__pycache__`` on first import where a C compiler is available and runs
its pure-Python loops otherwise.  Without that file an installed copy
would silently run pure Python.

``pip install .`` installs it with the ``repro-emm`` command.  The
offline environment ships setuptools without the ``wheel`` package, so
PEP 660 editable installs are unavailable; use
``pip install -e . --no-use-pep517`` (or ``python setup.py develop``).
"""

import os
import re

from setuptools import find_packages, setup


def _version():
    """``repro.__version__``, read without importing the package."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "src", "repro", "__init__.py")
    with open(path) as f:
        return re.search(r'^__version__ = "([^"]+)"', f.read(), re.M).group(1)


setup(
    name="repro-emm",
    version=_version(),
    description="Efficient memory modeling (EMM) for SAT-based bounded "
                "model checking of embedded memory systems",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.sat": ["_kernel.c"]},
    entry_points={"console_scripts": ["repro-emm=repro.cli:main"]},
)
