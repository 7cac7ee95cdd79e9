"""Build hook for the optional compiled kernel.

The package works without the extension (a pure-Python fallback is selected
at import time), so a missing compiler must not break installs.  The
extension is compiled from the committed Cython-generated ``_core.c``, so a
plain C compiler is enough; ``_core.pyx`` is its source, kept for reading.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


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


setup(ext_modules=[Extension("tweetlex._kernels._core",
                             ["src/tweetlex/_kernels/_core.c"])],
      cmdclass={"build_ext": optional_build_ext})
