"""Legacy setup shim so ``pip install -e .`` works in offline environments
that lack the ``wheel`` package (PEP-660 editable builds need it)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "SimAI-Bench reproduction: in-transit data transport strategies for "
        "coupled AI-simulation workflow patterns (SC 2025)"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy", "networkx"],
)
