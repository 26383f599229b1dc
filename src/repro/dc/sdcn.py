"""Structural Deep Clustering Network (SDCN, Bo et al. 2020).

SDCN combines two representation-learning branches:

* an **auto-encoder** branch capturing attribute information, and
* a **GCN** branch over a KNN graph of the inputs capturing structural
  information.

A *delivery operator* injects each AE hidden representation into the
corresponding GCN layer, and a *dual self-supervision* mechanism ties both
branches to a shared target distribution P: the AE branch through the
Student-t soft assignment Q (against trainable cluster centres) and the GCN
branch through its softmax output Z.  The joint loss is

``L = L_rec + alpha * KL(P || Q) + beta * KL(P || Z)``.

Following Section 4.2 of the paper, training epochs are selected with the
silhouette score, and when SDCN's fine-tuning does not improve the
silhouette over the pre-trained AE representation, the AE representation is
kept and clustered with Birch instead (see
:func:`repro.dc.stopping.select_sdcn_or_autoencoder`).
"""

from __future__ import annotations

import numpy as np

from ..clustering.birch import Birch
from ..clustering.kmeans import KMeans
from ..clustering.labels import soft_to_hard_assignment
from ..config import DeepClusteringConfig, make_rng
from ..exceptions import ConfigurationError
from ..graphs.gcn import GCNLayer
from ..graphs.knn import knn_graph, normalized_adjacency, sparse_knn_graph
from ..nn.sparse import CSRMatrix
from ..metrics.silhouette import silhouette_score
from ..nn import Adam, Tensor, kl_divergence, mse_loss, relu, no_grad
from ..utils.validation import check_matrix
from .autoencoder import Autoencoder
from .base import DeepClusterer, epoch_batches as _epoch_batches
from .stopping import SilhouetteStopper, select_sdcn_or_autoencoder
from .target_distribution import student_t_assignment, target_distribution

__all__ = ["SDCN"]


def _submatrix(adjacency, index: np.ndarray):
    """Restrict a (dense or CSR) propagation matrix to one batch of nodes."""
    if isinstance(adjacency, CSRMatrix):
        return adjacency.submatrix(index)
    return adjacency[np.ix_(index, index)]


class SDCN(DeepClusterer):
    """SDCN with AE + GCN branches and dual self-supervision.

    Parameters
    ----------
    n_clusters:
        Number of cluster centres used for initialisation (the GT ``K`` is
        only used here, as in the paper; the predicted number of clusters
        may be smaller).
    knn_k:
        Neighbourhood size of the KNN graph fed to the GCN branch.
    alpha, beta:
        Weights of the two KL terms (AE-branch and GCN-branch
        self-supervision).
    delivery_weight:
        Mixing weight ``epsilon`` of the delivery operator that injects AE
        hidden states into the GCN branch (0.5 in the reference
        implementation).
    auto_fallback:
        When True (default) the silhouette-based rule of Section 4.2 decides
        between the SDCN fine-tuned representation and the pre-trained AE
        representation clustered with Birch.
    """

    def __init__(self, n_clusters: int, *, knn_k: int = 10, alpha: float = 0.1,
                 beta: float = 0.01, delivery_weight: float = 0.5,
                 update_interval: int = 1, auto_fallback: bool = True,
                 config: DeepClusteringConfig | None = None) -> None:
        super().__init__(n_clusters, config)
        if knn_k < 1:
            raise ConfigurationError("knn_k must be >= 1")
        if not 0.0 <= delivery_weight <= 1.0:
            raise ConfigurationError("delivery_weight must be in [0, 1]")
        if alpha < 0 or beta < 0:
            raise ConfigurationError("alpha and beta must be non-negative")
        self.knn_k = knn_k
        self.alpha = alpha
        self.beta = beta
        self.delivery_weight = delivery_weight
        self.update_interval = max(1, int(update_interval))
        self.auto_fallback = auto_fallback
        self.autoencoder_: Autoencoder | None = None
        self.cluster_centers_: Tensor | None = None
        self.soft_assignments_: np.ndarray | None = None
        self.selected_branch_: str = "sdcn"
        self.fallback_clusterer_: Birch | None = None

    # ------------------------------------------------------------------
    def _build_gcn(self, input_dim: int, config: DeepClusteringConfig,
                   seed_sequence: np.random.Generator) -> list[GCNLayer]:
        """GCN layers mirroring the encoder dimensions plus a K-way output."""
        dims = [input_dim] + [config.layer_size] * config.n_layers \
            + [config.latent_dim]
        layers = [
            GCNLayer(dims[i], dims[i + 1], activation=relu,
                     seed=int(seed_sequence.integers(0, 2 ** 31 - 1)))
            for i in range(len(dims) - 1)
        ]
        layers.append(GCNLayer(dims[-1], self.n_clusters, activation=None,
                               seed=int(seed_sequence.integers(0, 2 ** 31 - 1))))
        return layers

    def _gcn_forward(self, x: Tensor, hidden_states: list[Tensor],
                     adjacency) -> Tensor:
        """Run the GCN branch with the delivery operator.

        ``hidden_states`` holds the AE encoder outputs (one per encoder
        layer, the last being the latent code); layer ``i`` of the GCN
        receives ``(1 - eps) * gcn_state + eps * ae_state`` as input.
        ``adjacency`` is the pre-normalised propagation matrix — dense array
        or :class:`~repro.nn.sparse.CSRMatrix`.
        """
        eps = self.delivery_weight
        state = x
        for index, layer in enumerate(self._gcn_layers):
            if 0 < index <= len(hidden_states):
                ae_state = hidden_states[index - 1]
                state = state * (1.0 - eps) + ae_state * eps
            state = layer(state, adjacency)
        return state.softmax(axis=1)

    # ------------------------------------------------------------------
    def fit(self, X) -> "SDCN":
        """Pre-train the AE, jointly fine-tune both branches, pick labels.

        ``X`` is an ``(n_samples, n_features)`` float matrix.  The KNN
        graph follows ``config.graph`` ("dense" or "sparse"/CSR), and
        ``config.batch_size`` switches the joint phase to mini-batches
        with per-batch target-distribution updates.
        """
        X = check_matrix(X)
        n_samples = X.shape[0]
        if n_samples < self.n_clusters:
            raise ConfigurationError(
                f"n_clusters={self.n_clusters} exceeds number of samples {n_samples}")
        config = self.config.scaled_for(n_samples)
        rng = make_rng(config.seed)

        # ------------------------------------------------------------------
        # Phase 1: pre-train the auto-encoder (reconstruction only).
        # ------------------------------------------------------------------
        self.autoencoder_ = Autoencoder(
            X.shape[1], latent_dim=config.latent_dim,
            layer_size=config.layer_size, n_layers=config.n_layers,
            seed=config.seed)
        pretrain_losses = self.autoencoder_.pretrain(
            X, epochs=config.pretrain_epochs, lr=config.learning_rate,
            batch_size=config.batch_size, seed=config.seed)
        pretrained_latent = self.autoencoder_.transform(X)

        # Baseline representation quality for the fallback rule.
        ae_kmeans = KMeans(self.n_clusters, seed=config.seed).fit(pretrained_latent)
        ae_silhouette = silhouette_score(pretrained_latent, ae_kmeans.labels_)

        # ------------------------------------------------------------------
        # Phase 2: joint training with dual self-supervision.
        # ------------------------------------------------------------------
        if config.graph == "sparse":
            adjacency = normalized_adjacency(sparse_knn_graph(
                X, k=self.knn_k, backend=config.graph_backend))
        else:
            adjacency = normalized_adjacency(knn_graph(X, k=self.knn_k))
        self._gcn_layers = self._build_gcn(X.shape[1], config, rng)
        self.cluster_centers_ = Tensor(ae_kmeans.cluster_centers_.copy(),
                                       requires_grad=True)

        parameters = list(self.autoencoder_.parameters())
        parameters.append(self.cluster_centers_)
        for layer in self._gcn_layers:
            parameters.extend(layer.parameters())
        optimizer = Adam(parameters, lr=config.learning_rate)

        stopper = SilhouetteStopper(patience=None)
        x_tensor = Tensor(X)
        losses: list[float] = []
        target_p: np.ndarray | None = None

        batch_size = config.batch_size
        minibatch = batch_size is not None and batch_size < n_samples

        for epoch in range(config.train_epochs):
            if minibatch:
                epoch_loss = 0.0
                for batch in _epoch_batches(rng, n_samples, batch_size):
                    optimizer.zero_grad()
                    x_batch = Tensor(X[batch])
                    latent, hidden = self.autoencoder_.encode(
                        x_batch, return_hidden=True)
                    reconstruction = self.autoencoder_.decode(latent)
                    q = student_t_assignment(latent, self.cluster_centers_)
                    z = self._gcn_forward(x_batch, hidden,
                                          _submatrix(adjacency, batch))
                    # Per-batch refresh: P is derived from the batch's own Q
                    # and treated as a constant for the step.
                    target_p = target_distribution(q.numpy())

                    loss = mse_loss(reconstruction, x_batch) \
                        * config.reconstruction_weight
                    loss = loss + kl_divergence(target_p, q) * self.alpha
                    loss = loss + kl_divergence(target_p, z) * self.beta
                    loss.backward()
                    optimizer.step()
                    epoch_loss += loss.item() * len(batch)
                losses.append(epoch_loss / n_samples)
                with no_grad():
                    latent, hidden = self.autoencoder_.encode(
                        x_tensor, return_hidden=True)
                    z = self._gcn_forward(x_tensor, hidden, adjacency)
            else:
                optimizer.zero_grad()
                latent, hidden = self.autoencoder_.encode(x_tensor,
                                                          return_hidden=True)
                reconstruction = self.autoencoder_.decode(latent)
                q = student_t_assignment(latent, self.cluster_centers_)
                z = self._gcn_forward(x_tensor, hidden, adjacency)

                if target_p is None or epoch % self.update_interval == 0:
                    # P is refreshed from the current Q and treated as constant.
                    target_p = target_distribution(q.numpy())

                loss = mse_loss(reconstruction, x_tensor) \
                    * config.reconstruction_weight
                loss = loss + kl_divergence(target_p, q) * self.alpha
                loss = loss + kl_divergence(target_p, z) * self.beta
                loss.backward()
                optimizer.step()
                losses.append(loss.item())

            labels = soft_to_hard_assignment(z.numpy())
            stopper.update(epoch, latent.numpy(), labels)

        # ------------------------------------------------------------------
        # Phase 3: select the representation per the silhouette rule.
        # ------------------------------------------------------------------
        with no_grad():
            latent, hidden = self.autoencoder_.encode(x_tensor, return_hidden=True)
            q = student_t_assignment(latent, self.cluster_centers_)
            z = self._gcn_forward(x_tensor, hidden, adjacency)
        final_latent = latent.numpy()
        final_labels = soft_to_hard_assignment(z.numpy())
        sdcn_silhouette = max(stopper.best_score,
                              silhouette_score(final_latent, final_labels))

        if stopper.best_labels is not None and stopper.best_score >= \
                silhouette_score(final_latent, final_labels):
            final_latent = stopper.best_embedding
            final_labels = stopper.best_labels

        self.selected_branch_ = "sdcn"
        self.fallback_clusterer_ = None
        if self.auto_fallback:
            choice = select_sdcn_or_autoencoder(sdcn_silhouette, ae_silhouette)
            if choice == "autoencoder":
                fallback = Birch(self.n_clusters, seed=config.seed)
                final_labels = fallback.fit_predict(pretrained_latent).labels
                final_latent = pretrained_latent
                self.selected_branch_ = "autoencoder"
                # Kept for out-of-sample prediction on the selected branch.
                self.fallback_clusterer_ = fallback

        self.labels_ = final_labels
        self.embedding_ = final_latent
        self.soft_assignments_ = q.numpy()
        self.history_ = {
            "pretrain_loss": pretrain_losses,
            "train_loss": losses,
            "silhouette": stopper.history,
        }
        self._fitted = True
        return self

    def _result_metadata(self) -> dict:
        return {"selected_branch": self.selected_branch_,
                "knn_k": self.knn_k,
                "alpha": self.alpha,
                "beta": self.beta}

    # ------------------------------------------------------------------
    def predict(self, X) -> np.ndarray:
        """Out-of-sample assignment through the selected branch.

        New points see only attribute information (there is no KNN graph for
        them), so the SDCN branch assigns via the encoder and the Student-t
        soft assignment against the trained centres — the ``argmax Q`` rule;
        when training selected the auto-encoder fallback, points are encoded
        and assigned by the fitted Birch instead.
        """
        self._require_fitted()
        X = check_matrix(X)
        with no_grad():
            latent = self.autoencoder_.encode(Tensor(X))
            if self.selected_branch_ == "autoencoder":
                return self.fallback_clusterer_.predict(latent.numpy())
            q = student_t_assignment(latent, self.cluster_centers_)
        return soft_to_hard_assignment(q.numpy())

    # ------------------------------------------------------------------
    # checkpoint protocol (see repro.serialize)
    def checkpoint_params(self) -> dict:
        """JSON-able state: hyper-parameters plus nested AE architecture."""
        from .base import autoencoder_checkpoint, config_to_dict

        self._require_fitted()
        params = {
            "n_clusters": self.n_clusters,
            "knn_k": self.knn_k,
            "alpha": self.alpha,
            "beta": self.beta,
            "delivery_weight": self.delivery_weight,
            "update_interval": self.update_interval,
            "auto_fallback": self.auto_fallback,
            "config": config_to_dict(self.config),
            "selected_branch": self.selected_branch_,
            "autoencoder": autoencoder_checkpoint(self.autoencoder_)[0],
        }
        if self.fallback_clusterer_ is not None:
            params["fallback_params"] = \
                self.fallback_clusterer_.checkpoint_params()
        return params

    def checkpoint_arrays(self) -> dict[str, np.ndarray]:
        """AE weights, trained centres, labels, optional fallback arrays."""
        self._require_fitted()
        arrays = {f"ae.{name}": value
                  for name, value in self.autoencoder_.state_dict().items()}
        arrays["cluster_centers"] = self.cluster_centers_.numpy()
        arrays["labels"] = self.labels_
        if self.fallback_clusterer_ is not None:
            for name, value in \
                    self.fallback_clusterer_.checkpoint_arrays().items():
                arrays[f"fallback.{name}"] = value
        return arrays

    @classmethod
    def from_checkpoint(cls, params: dict, arrays: dict) -> "SDCN":
        """Rebuild a trained SDCN (predict path only; GCN is not needed)."""
        from .base import (
            autoencoder_from_checkpoint,
            config_from_dict,
            split_prefixed_arrays,
        )

        model = cls(params["n_clusters"], knn_k=params["knn_k"],
                    alpha=params["alpha"], beta=params["beta"],
                    delivery_weight=params["delivery_weight"],
                    update_interval=params["update_interval"],
                    auto_fallback=params["auto_fallback"],
                    config=config_from_dict(params["config"]))
        model.autoencoder_ = autoencoder_from_checkpoint(
            params["autoencoder"], split_prefixed_arrays(arrays, "ae"))
        model.cluster_centers_ = Tensor(arrays["cluster_centers"],
                                        requires_grad=True)
        model.labels_ = np.asarray(arrays["labels"], dtype=np.int64)
        model.selected_branch_ = params["selected_branch"]
        if "fallback_params" in params:
            model.fallback_clusterer_ = Birch.from_checkpoint(
                params["fallback_params"],
                split_prefixed_arrays(arrays, "fallback"))
        model._fitted = True
        return model
