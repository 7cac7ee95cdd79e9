from types import SimpleNamespace

import pytest

from tweetlex import _kernels
from tweetlex.lexicon import load_lexicon
from tweetlex.preprocess import default_stopwords_path, load_stopwords
from tweetlex.reference import naive_tokenize
from tweetlex.spatial import default_gazetteer_path, load_gazetteer

import corpus_gen


def _walk_count_masks(tokens, masks):
    """``count_masks`` one category bit at a time."""
    counts = [0] * 10
    for tok in tokens:
        mask = masks.get(tok, 0)
        for bit in range(10):
            if mask >> bit & 1:
                counts[bit] += 1
    return counts


#: The kernel contract built on the reference pipeline's character walks.
_CHARWALK_KERNEL = SimpleNamespace(tokenize=naive_tokenize,
                                   count_masks=_walk_count_masks)


@pytest.fixture(params=["pure", "c"])
def kernel(request):
    """Each implementation of the kernel contract in turn: "pure" is the
    kernel module, "c" the character-walk one, so that every hand-written
    kernel case also checks the tokenizer the ``--oracle`` pass uses."""
    if request.param == "pure":
        return _kernels
    return _CHARWALK_KERNEL


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
