"""``substreams`` must build, path by path, the generators ``substream`` builds.

``substream`` goes through numpy's own ``SeedSequence`` and is the oracle.
Each generator is compared by its ``bit_generator.state`` and by the first
draws of the three kinds a campaign makes: normals, Fisher–Yates offsets and
binomial hit counts.  Every path count goes through the one vectorised pass,
from no paths up.
"""

import subprocess
import sys

import numpy as np
import pytest

from cvpuk.streams import substream, substreams

# 2**128 + 3 has five words, more than SeedSequence's pool of four
SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**128 + 3, 10**40)


def _draws(rng):
    return (rng.standard_normal(3).tolist(), rng.integers(0, 121 - np.arange(5)).tolist(),
            rng.binomial(1000, 0.68, 2).tolist())


def _assert_equal_to_substream(seed, paths):
    built = substreams(seed, paths)
    assert len(built) == len(paths)
    for rng, path in zip(built, paths):
        oracle = substream(seed, *path)
        assert rng.bit_generator.state == oracle.bit_generator.state, path
        assert _draws(rng) == _draws(oracle), path


# the (5, i, d, c) paths of a clone campaign at the defaults: three mode
# counts, five fractions and two chunks of 500 trials
DEFAULT_CLONE_PATHS = [(5, i, d, c) for i in range(3) for d in range(5) for c in range(2)]


@pytest.mark.parametrize("seed", SEEDS)
def test_chunk_paths_of_a_million_key_population(seed):
    # (2, c) for c < 4,000 are the chunks of up to 1,024,000 false keys
    _assert_equal_to_substream(seed, [(2, chunk) for chunk in range(4000)])


@pytest.mark.parametrize("seed", SEEDS)
def test_every_path_count_up_to_twenty_and_a_default_clone_campaign(seed):
    # up to 20 paths, where one SeedSequence a path once served, and the
    # 30 paths that one clone campaign derives in one call
    for count in range(21):
        _assert_equal_to_substream(seed, [(2, chunk) for chunk in range(count)])
    _assert_equal_to_substream(seed, DEFAULT_CLONE_PATHS)


@pytest.mark.parametrize("seed", SEEDS)
def test_mixed_paths_one_path_the_empty_path_and_no_paths(seed):
    clone_paths = [(5, i, d, c) for i in range(3) for d in range(5) for c in (0, 1, 2**32 - 1)]
    for paths in (clone_paths, clone_paths[:1], [(7,)] * 20, [()], [()] * 20, []):
        _assert_equal_to_substream(seed, paths)


@pytest.mark.parametrize("bad", [-1, 2**32, 2**64, -2**63 - 5])
def test_an_entry_outside_32_bits_is_refused(bad):
    with pytest.raises(ValueError, match=r"^path entries must be integers in \[0, 2\*\*32\), "
                                         rf"got {bad}$"):
        substreams(3, [(2, chunk) for chunk in range(19)] + [(2, bad)])


@pytest.mark.parametrize("paths,error", [
    ([(2, 0), (2,)], ValueError),
    ([(2, 0.5)], TypeError),
    ([(True,)], TypeError),
    ([2, 3], TypeError),
])
def test_paths_of_unequal_lengths_or_non_integers_are_refused(paths, error):
    with pytest.raises(error):
        substreams(3, paths * 10)


def test_a_negative_seed_is_refused():
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        substreams(-1, [(2, 0)] * 20)


def test_one_pass_generators_do_not_spawn():
    rng, = substreams(5, [(2, 0)])
    with pytest.raises(TypeError):
        rng.spawn(1)


def test_importing_the_package_does_not_import_numpy_random():
    code = "import sys, numpy, cvpuk, cvpuk.cli; print('numpy.random' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True)
    assert result.stdout == "False\n"
