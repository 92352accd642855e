"""Build script: compiles the chip-firing kernel from the committed C source.

`src/tropbn/_kernel.c` is generated by Cython from `src/tropbn/_kernel.pyx`
and is the only build input, so the build needs a C compiler but not
Cython.  Make changes in the .pyx, then regenerate the C with

    cython -3 src/tropbn/_kernel.pyx

The extension is optional: without a working compiler the build warns and
installs the package alone, and `tropbn.kernel` uses the pure-Python kernel.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("tropbn._kernel", ["src/tropbn/_kernel.c"],
                             optional=True)])
