"""Shared fixtures: small, fast configurations for unit tests."""

import contextlib
import os

import pytest

from repro.common.config import CacheGeometry, MayaConfig, MirageConfig, SystemConfig
from repro.engine.opstream import OPSTREAM_CACHE_ENV
from repro.trace.compiled import TRACE_CACHE_ENV


@pytest.fixture(autouse=True, scope="session")
def _isolated_trace_cache(tmp_path_factory):
    """Point the on-disk artifact caches at temp dirs for the run.

    Keeps test runs from writing into the repository's
    ``results/.trace_cache/`` and ``results/.opstream_cache/`` (and
    from *reading* stale entries out of them).  Individual tests that need a private directory or a
    disabled cache override the variable with ``monkeypatch.setenv``.
    """
    originals = {
        env: os.environ.get(env)
        for env in (TRACE_CACHE_ENV, OPSTREAM_CACHE_ENV)
    }
    os.environ[TRACE_CACHE_ENV] = str(tmp_path_factory.mktemp("trace_cache"))
    os.environ[OPSTREAM_CACHE_ENV] = str(tmp_path_factory.mktemp("opstream_cache"))
    yield
    for env, original in originals.items():
        if original is None:
            os.environ.pop(env, None)
        else:
            os.environ[env] = original


@pytest.fixture
def per_access_drive(monkeypatch):
    """Context-manager factory: inside ``with per_access_drive():``,
    ``run_mix`` declines the op-stream replay and walks every access
    through the hierarchy - the drive-path oracle the replay is
    compared against.
    """
    from repro.engine import vector

    @contextlib.contextmanager
    def declined():
        with monkeypatch.context() as patch:
            patch.setattr(
                vector, "create_vector_replay",
                lambda *args, **kwargs: (None, "declined by the per_access_drive fixture"),
            )
            yield

    return declined


@pytest.fixture
def tiny_geometry() -> CacheGeometry:
    """A 64-line cache: 8 sets x 8 ways."""
    return CacheGeometry(sets=8, ways=8)


@pytest.fixture
def small_maya() -> MayaConfig:
    """Maya at 16 sets/skew with the paper's way structure (fast hash)."""
    return MayaConfig(sets_per_skew=16, rng_seed=7, hash_algorithm="splitmix")


@pytest.fixture
def small_mirage() -> MirageConfig:
    """Mirage at 16 sets/skew with the paper's way structure (fast hash)."""
    return MirageConfig(sets_per_skew=16, rng_seed=7, hash_algorithm="splitmix")


@pytest.fixture
def tiny_system() -> SystemConfig:
    """A 2-core system small enough for sub-second trace runs."""
    return SystemConfig(
        cores=2,
        l1d_geometry=CacheGeometry(sets=4, ways=4),
        l2_geometry=CacheGeometry(sets=16, ways=8),
        llc_geometry=CacheGeometry(sets=64, ways=16),
    )
