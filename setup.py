"""Setup shim for legacy editable installs (offline environment: no wheel).

There is no other packaging metadata: setuptools finds the ``repro``
package by src-layout auto-discovery, and the one runtime dependency,
``numpy``, is not declared (install it yourself).  This file only
enables ``pip install -e .`` on toolchains without the ``wheel`` package.
"""

from setuptools import setup

setup()
