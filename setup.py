"""Packaging for the ``repro`` split-learning platform (sources under ``src/``)."""

import re
from pathlib import Path

from setuptools import find_packages, setup

ROOT = Path(__file__).parent


def runtime_requirements():
    """The first block of ``requirements.txt`` (up to the blank line)."""
    block = (ROOT / "requirements.txt").read_text().split("\n\n")[0]
    return [line for line in block.splitlines() if line and not line.startswith("#")]


setup(
    name="repro-spatio-temporal-split-learning",
    version=re.search(r'^__version__ = "([^"]+)"',
                      (ROOT / "src" / "repro" / "__init__.py").read_text(),
                      re.MULTILINE).group(1),
    description='Reproduction and scale-out of "Spatio-Temporal Split Learning" '
                "(DSN 2021) as a pure-NumPy simulation platform",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=runtime_requirements(),
    entry_points={
        "console_scripts": ["repro-experiments = repro.experiments.cli:main"],
    },
)
