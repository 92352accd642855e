"""Fixtures shared by the test modules."""

import importlib.util
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tropbn"


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """`_kernel.c` built in-process into a temporary directory and loaded.

    Nothing is written into the tree and the module is not put in
    `sys.modules`, so `tropbn.kernel` keeps whatever backend it imported.
    Skips the test when setuptools is missing, or when no C compiler (or
    no Python headers) can build it.
    """
    pytest.importorskip("setuptools")
    from setuptools import Distribution, Extension
    from setuptools.errors import BaseError, CCompilerError

    tmp = tmp_path_factory.mktemp("kernel_build")
    ext = Extension("tropbn._kernel", [str(SRC / "_kernel.c")])
    cmd = Distribution({"ext_modules": [ext]}).get_command_obj("build_ext")
    cmd.build_lib = str(tmp / "lib")
    cmd.build_temp = str(tmp / "temp")
    try:
        cmd.ensure_finalized()
        cmd.run()
    except (CCompilerError, BaseError) as exc:
        pytest.skip(f"compiled kernel does not build here: {exc}")
    path = cmd.get_ext_fullpath("tropbn._kernel")
    spec = importlib.util.spec_from_file_location("tropbn._kernel", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.BACKEND == "compiled"
    return module


@pytest.fixture(scope="session", params=["python", "compiled"])
def kernel_backend(request):
    """Each chip-firing kernel in turn, as a module with `reduce_divisor`:
    the pure one, then `_kernel.c` as the `compiled` fixture builds it."""
    if request.param == "python":
        from tropbn import _kernel_py
        return _kernel_py
    return request.getfixturevalue("compiled")
