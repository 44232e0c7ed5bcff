"""Synthetic graphs and bias vectors for the BINGO reproduction.

The paper evaluates on five real graphs (Amazon, Google, Citation,
LiveJournal, Twitter; its Table 2). Without network access we synthesize
graphs matching each dataset's *shape* — average degree and hub (max)
degree — at ~1/100-1/1000 scale (the *-lite suite). The hub degree is
the property that separates O(1) sampling (BINGO/alias) from O(d)
methods (FlowWalker's reservoir scan), so it is the one we preserve
proportionally. ``biases`` draws the bias vectors of the per-vertex
sampler benchmarks (Fig. 15(c)). Every generator is deterministic in
``seed``.
"""
from dataclasses import dataclass

import numpy as np
import pandas as pd


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class GraphSpec:
    """Shape parameters for one synthetic graph.

    ``kind`` is ``"near_regular"`` (narrow degree band, like Amazon whose
    max degree is 10) or ``"powerlaw"`` (skewed in-degrees with a hub,
    like LiveJournal/Twitter). ``hub_frac`` is the approximate fraction
    of all edges pointed at the single most popular vertex, which sets
    the max in-degree.
    """

    name: str
    abbr: str
    n: int
    avg_deg: float
    kind: str
    hub_frac: float = 0.0
    # Paper's original statistics, for side-by-side reporting in Table 2.
    paper_v: str = ""
    paper_e: str = ""
    paper_avg: float = 0.0
    paper_max: str = ""


#: The five evaluation graphs of the paper, at lite scale.
GRAPH_SPECS = {
    "AM": GraphSpec("Amazon", "AM", 4_000, 8.4, "near_regular",
                    paper_v="403.4K", paper_e="3.4M", paper_avg=8.4, paper_max="10"),
    "GO": GraphSpec("Google", "GO", 5_000, 5.8, "powerlaw", hub_frac=0.003,
                    paper_v="875.7K", paper_e="5.1M", paper_avg=5.8, paper_max="456"),
    "CT": GraphSpec("Citation", "CT", 8_000, 4.4, "powerlaw", hub_frac=0.006,
                    paper_v="3.8M", paper_e="16.5M", paper_avg=4.4, paper_max="770"),
    "LJ": GraphSpec("LiveJournal", "LJ", 20_000, 14.3, "powerlaw", hub_frac=0.012,
                    paper_v="4.8M", paper_e="68.5M", paper_avg=14.3, paper_max="20.3K"),
    "TW": GraphSpec("Twitter", "TW", 40_000, 30.0, "powerlaw", hub_frac=0.03,
                    paper_v="41.7M", paper_e="1,468.4M", paper_avg=35.2, paper_max="770.2K"),
}


def _out_degrees(spec: GraphSpec, g: np.random.Generator) -> np.ndarray:
    avg = spec.avg_deg
    if spec.kind == "near_regular":
        lo = max(1, int(avg) - 2)
        hi = int(avg) + 3  # Amazon-like: tight band, small max degree
        return g.integers(lo, hi, spec.n)
    # Power-law out-degrees, bounded so total edge count stays near n*avg.
    a = 2.2
    u = g.random(spec.n)
    raw = np.floor((u ** (-1.0 / (a - 1.0)))).astype(np.int64)
    raw = np.clip(raw, 1, max(8, int(avg * 20)))
    # Rescale to hit the target average degree while keeping min degree 1.
    scale = (avg * spec.n) / raw.sum()
    deg = np.maximum(1, np.round(raw * scale)).astype(np.int64)
    return deg


def graph_edges(name: str, *, seed: int = 7) -> pd.DataFrame:
    """Generate one lite graph as a pandas edge list (src, dst, bias).

    Edges are directed and unique per (src, dst); self-loops are removed.
    The bias follows the paper's §6.1 default — derived from the degree
    of the destination vertex (power-law distributed on the skewed
    graphs), clipped to [1, 2^16).
    """
    spec = GRAPH_SPECS[name]
    g = _rng(seed * 1000 + sum(ord(c) for c in name))  # stable across processes
    deg = _out_degrees(spec, g)
    if spec.kind == "near_regular":
        src = np.repeat(np.arange(spec.n, dtype=np.int64), deg)
        dst = g.integers(0, spec.n, len(src))
    else:
        # Preferential destinations: Zipf weights over a random vertex
        # permutation; the top vertex absorbs ~hub_frac of all edges,
        # which sets the max in-degree (the paper's "Max degree" column).
        ranks = np.arange(1, spec.n + 1, dtype=np.float64)
        w = 1.0 / ranks ** 0.85
        w /= w.sum()
        if spec.hub_frac > 0:
            w = w * (1.0 - spec.hub_frac)
            w[0] += spec.hub_frac
        perm = g.permutation(spec.n)
        # In- and out-degrees are correlated on real social graphs (the
        # paper's suite is undirected, so its "max degree" hubs have huge
        # fan-OUT too — the degree that O(d) samplers pay on every draw).
        # Assign the largest out-degrees to the most popular destinations
        # and give the top hub a fan-out matching its fan-in share.
        deg_sorted = np.sort(deg)[::-1]
        out_deg = np.empty(spec.n, dtype=np.int64)
        out_deg[perm] = deg_sorted
        total = deg_sorted.sum()
        if spec.hub_frac > 0:
            out_deg[perm[0]] = min(spec.n - 1, max(
                out_deg[perm[0]], int(spec.hub_frac * total)
            ))
        src = np.repeat(np.arange(spec.n, dtype=np.int64), out_deg)
        dst = perm[g.choice(spec.n, size=len(src), p=w)]
    pdf = pd.DataFrame({"src": src, "dst": dst})
    pdf = pdf[pdf.src != pdf.dst].drop_duplicates(["src", "dst"])
    pdf = pdf.reset_index(drop=True)
    # Degree-based biases (paper §6.1): bias of edge (u,v) is the total
    # degree of v, which is power-law on the skewed graphs.
    total_deg = np.zeros(spec.n, dtype=np.int64)
    np.add.at(total_deg, pdf.src.to_numpy(), 1)
    np.add.at(total_deg, pdf.dst.to_numpy(), 1)
    pdf["bias"] = np.clip(total_deg[pdf.dst.to_numpy()], 1, (1 << 16) - 1)
    return pdf


def biases(kind: str, n: int, *, seed: int = 11, max_bias: int = 4096) -> np.ndarray:
    """Bias vectors with different distributions (paper Fig. 15(c) setup).

    ``kind`` is ``uniform``, ``powerlaw``, or ``normal``; all return
    integer biases in [1, max_bias).
    """
    g = _rng(seed)
    if kind == "uniform":
        return g.integers(1, max_bias, n).astype(np.int64)
    if kind == "powerlaw":
        u = g.random(n)
        raw = np.floor(u ** (-1.0 / 1.2)).astype(np.int64)
        return np.clip(raw, 1, max_bias - 1)
    if kind == "normal":
        raw = np.round(g.normal(max_bias / 8, max_bias / 32, n)).astype(np.int64)
        return np.clip(raw, 1, max_bias - 1)
    raise ValueError(f"unknown bias kind: {kind}")
