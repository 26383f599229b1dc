"""Similarity-search walkthrough: train, index, serve, search, shut down.

The script exercises the vector-index subsystem end to end in one process:

1. trains a K-means schema-inference model on a small WebTables-style
   dataset and saves it as a versioned NPZ checkpoint;
2. builds an exact-scan :class:`repro.index.IVFIndex` (``coding="none"``)
   over the *same* training embeddings — ids are the table names — and
   checkpoints it next to the model (exactly what ``repro train --save
   ... --with-index ivf`` does);
3. starts the stdlib JSON HTTP server and asks it, for a brand-new table,
   ``POST /search``: *which known tables is this one most similar to?*
   The raw item is embedded server-side in the index's training space;
4. compares the served answer against an in-process exact
   :class:`repro.index.FlatIndex` query to show the ANN recall, then
   shuts the server down cleanly.

In production the same flow is two commands:

    repro train schema_inference --save models/web.npz --with-index ivf
    repro serve --model-dir models --port 8000

Run with:  python examples/search_client.py   (~3 s)
"""

import json
import tempfile
import threading
import urllib.request
from pathlib import Path

from repro import create_server, generate_webtables, save_checkpoint
from repro.clustering import KMeans
from repro.index import FlatIndex, IVFIndex
from repro.tasks import embed_tables


def _post(port: int, path: str, body: dict) -> dict:
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


def main() -> None:
    # 1. Train and persist the model.
    dataset = generate_webtables(60, 10, seed=0)
    X = embed_tables(dataset, "sbert")
    model = KMeans(dataset.n_clusters, seed=0).fit(X)
    model_dir = Path(tempfile.mkdtemp(prefix="repro-search-"))
    metadata = {"task": "schema_inference", "embedding": "sbert",
                "dataset": dataset.name}
    save_checkpoint(model_dir / "web.npz", model, metadata=metadata)

    # 2. Index the training corpus under the tables' names.
    names = [table.name for table in dataset.tables]
    index = IVFIndex(coding="none", nprobe=4).build(X, ids=names)
    index.save(model_dir / "web.index.npz", metadata=metadata)
    print(f"indexed {index.size} tables "
          f"({index.backend}, {index.dim}-dim, metric={index.metric})")

    # 3. Serve the directory and search it with a raw, unseen table.
    server = create_server(model_dir, port=0)
    port = server.server_address[1]
    threading.Thread(target=server.serve_forever, daemon=True).start()
    new_table = {"name": "arrivals",
                 "columns": {"city": ["london", "paris"],
                             "country": ["uk", "france"],
                             "population": [9000000, 2100000]}}
    try:
        response = _post(port, "/search", {"items": [new_table], "k": 5})
        print(f"POST /search -> index {response['index']!r}")
        for name, distance in zip(response["ids"][0],
                                  response["distances"][0]):
            print(f"  {name:20s} distance={distance:.4f}")

        # 4. The exact scan agrees: the ANN answer is (near-)perfect here.
        from repro.embeddings import embed_items

        query = embed_items("schema_inference", "sbert", [new_table])
        exact_positions, _ = FlatIndex().build(X, ids=names).query(query, 5)
        exact_names = [names[i] for i in exact_positions[0]]
        overlap = len(set(exact_names) & set(response["ids"][0]))
        print(f"exact-scan agreement: {overlap}/5 "
              f"(exact top-5: {exact_names})")
    finally:
        server.shutdown()
        server.server_close()
        print("server stopped")


if __name__ == "__main__":
    main()
