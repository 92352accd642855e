"""Build script: compiles the chip-firing kernel `tropbn._kernel`.

`src/tropbn/_kernel.c` is hand-written C against the CPython API and is the
source; no code generator runs, so the build needs only a C compiler.

The extension is optional: without a working compiler the build warns and
installs the package alone, and `tropbn.kernel` uses the pure-Python kernel.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("tropbn._kernel", ["src/tropbn/_kernel.c"],
                             optional=True)])
