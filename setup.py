"""Build hook for the optional compiled kernel.

The package works without the extension (a pure-Python fallback is selected
at import time), so a missing compiler must not break installs.  The
extension is built from ``_core.pyx`` when Cython is importable, and from
the committed Cython-generated ``_core.c`` otherwise, so a plain C compiler
is enough.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

_CORE = "src/tweetlex/_kernels/_core"


class optional_build_ext(build_ext):
    """Degrade to the pure-Python backend when compilation fails."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, broken toolchain, ...
            print(f"WARNING: building tweetlex._kernels._core failed ({exc}); "
                  "falling back to the pure-Python kernels")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"WARNING: {ext.name} failed to compile ({exc}); "
                  "falling back to the pure-Python kernels")


def kernel_extensions() -> list[Extension]:
    try:
        from Cython.Build import cythonize
    except ImportError:
        return [Extension("tweetlex._kernels._core", [_CORE + ".c"])]
    return cythonize([Extension("tweetlex._kernels._core", [_CORE + ".pyx"])],
                     language_level="3")


setup(ext_modules=kernel_extensions(),
      cmdclass={"build_ext": optional_build_ext})
