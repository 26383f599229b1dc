"""Shared fixtures: small synthetic datasets, fast DC configs, servers."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.config import DeepClusteringConfig
from repro.data import (
    generate_camera,
    generate_geographic_settlements,
    generate_musicbrainz,
    generate_tus,
    generate_webtables,
)


@pytest.fixture()
def http_server():
    """Factory for e2e serving tests: ephemeral-port server, auto-teardown.

    ``server, port = http_server(model_dir, **create_server_kwargs)``
    binds port 0 (no fixed-port flakiness, parallel-safe), runs
    ``serve_forever`` on a daemon thread, and guarantees shutdown +
    close at test teardown — replacing the per-test try/finally
    boilerplate the serving tests used to copy around.
    """
    started = []

    def start(model_dir, **kwargs):
        from repro.serve import create_server

        server = create_server(model_dir, port=0, **kwargs)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        started.append(server)
        return server, server.server_address[1]

    yield start
    for server in started:
        server.shutdown()
        server.server_close()


@pytest.fixture()
def pool_server():
    """Factory like ``http_server`` but for the sharded worker pool.

    ``router, port = pool_server(model_dir, workers=2, **kwargs)`` boots
    the pre-fork pool behind its router on an ephemeral port; teardown
    stops the router and the workers.
    """
    started = []

    def start(model_dir, **kwargs):
        from repro.serve import create_pool_server

        router = create_pool_server(model_dir, port=0, **kwargs)
        thread = threading.Thread(target=router.serve_forever, daemon=True)
        thread.start()
        started.append(router)
        return router, router.server_address[1]

    yield start
    for router in started:
        router.shutdown()
        router.server_close()


@pytest.fixture(scope="session")
def blobs():
    """Well-separated Gaussian blobs: (X, labels) with 4 clusters."""
    rng = np.random.default_rng(0)
    centers = rng.normal(size=(4, 12)) * 6.0
    X = np.vstack([center + rng.normal(size=(25, 12)) for center in centers])
    labels = np.repeat(np.arange(4), 25)
    return X, labels


@pytest.fixture(scope="session")
def overlapping_blobs():
    """Less separated blobs (harder clustering problem)."""
    rng = np.random.default_rng(3)
    centers = rng.normal(size=(3, 8)) * 2.0
    X = np.vstack([center + rng.normal(size=(30, 8)) for center in centers])
    labels = np.repeat(np.arange(3), 30)
    return X, labels


@pytest.fixture(scope="session")
def fast_config():
    """Deep clustering configuration small enough for unit tests."""
    return DeepClusteringConfig(pretrain_epochs=6, train_epochs=6,
                                layer_size=64, latent_dim=16,
                                learning_rate=1e-3, seed=0)


@pytest.fixture(scope="session")
def webtables_small():
    return generate_webtables(40, 8, seed=1)


@pytest.fixture(scope="session")
def tus_small():
    return generate_tus(40, 8, seed=1)


@pytest.fixture(scope="session")
def musicbrainz_small():
    return generate_musicbrainz(90, 30, seed=1)


@pytest.fixture(scope="session")
def geographic_small():
    return generate_geographic_settlements(90, 30, seed=1)


@pytest.fixture(scope="session")
def camera_small():
    return generate_camera(100, 15, seed=1)
