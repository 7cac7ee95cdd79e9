import importlib
import importlib.util
import shlex
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

from tweetlex.lexicon import load_lexicon
from tweetlex.preprocess import default_stopwords_path, load_stopwords
from tweetlex.spatial import default_gazetteer_path, load_gazetteer
from tweetlex._kernels import pure

import corpus_gen

_CORE_C = Path(pure.__file__).with_name("_core.c")


def _build_core(build_dir: Path):
    """Compile the committed ``_core.c`` with the interpreter's own compiler
    into ``build_dir`` and load it; skip when that is impossible."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler ({cc[0]!r} not found) for _core.c")
    target = build_dir / ("_core" + sysconfig.get_config_var("EXT_SUFFIX"))
    cmd = [*cc, *shlex.split(sysconfig.get_config_var("CCSHARED") or ""),
           "-shared", "-O2", "-I", sysconfig.get_paths()["include"],
           str(_CORE_C), "-o", str(target)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=300)
    except (OSError, subprocess.TimeoutExpired) as exc:
        pytest.skip(f"building _core.c failed: {exc}")
    if proc.returncode != 0:
        pytest.skip(f"building _core.c failed: {proc.stderr.strip()[-500:]}")
    spec = importlib.util.spec_from_file_location("_core", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The compiled kernel module: imported when it is built in place, and
    otherwise compiled for this session.  Tests that use it skip, with the
    reason, when it cannot be built."""
    try:
        return importlib.import_module("tweetlex._kernels._core")
    except ImportError:
        return _build_core(tmp_path_factory.mktemp("kernel"))


@pytest.fixture(params=["pure", "c"])
def kernel_backend(request):
    """Each kernel backend module in turn."""
    if request.param == "pure":
        return pure
    return request.getfixturevalue("compiled_kernel")


@pytest.fixture(scope="session")
def toy_lexicon_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("lex") / "toy_lexicon.txt"
    corpus_gen.write_toy_lexicon(path)
    return path


@pytest.fixture(scope="session")
def toy_lexicon(toy_lexicon_path):
    return load_lexicon(toy_lexicon_path)


@pytest.fixture(scope="session")
def bundled_stopwords():
    return load_stopwords(default_stopwords_path())


@pytest.fixture(scope="session")
def bundled_gazetteer():
    return load_gazetteer(default_gazetteer_path())
