"""Shared scenario builders, the plain per-client SGD loop, and the
independent plain-averaging reference built on it."""

import math

import numpy as np

from fairdpfed import models
from fairdpfed.federation import sample_clients
from fairdpfed.harness import config_from_dict
from fairdpfed.models import LabeledBatch
from fairdpfed.numeric import RngStream


def scenario_config(
    seed=0,
    K=10,
    T=10,
    n_examples=800,
    n_features=10,
    sigma=0.0,
    S_policy="fixed",
    S_fixed=1e9,
    M="inf",
    q=1.0,
    lr=0.1,
    epochs=1,
    batch_size=32,
    bias=None,
    partition=None,
    class_separation=5.0,
):
    raw = {
        "data": {
            "n_examples": n_examples,
            "n_features": n_features,
            "class_separation": class_separation,
        },
        "model": {"kind": "logistic_regression"},
        "partition": partition or {"kind": "iid"},
        "federation": {
            "K": K, "q": q, "T": T, "epochs": epochs, "lr": lr,
            "batch_size": batch_size, "S_policy": S_policy, "S_fixed": S_fixed,
            "M": M, "sigma": sigma, "delta_dp": 1e-5, "seed": seed,
        },
        "bias": bias or {},
        "output": {},
    }
    return config_from_dict(raw)


def per_client_sgd(spec, w0, batch, epochs, lr, batch_size, rng):
    """The per-client loop written out plainly: one gradient call per
    minibatch, taken as perm[start:start + batch_size] of the epoch's shuffle.
    rng is the client's stream, e.g. a round stream's child("client", cid)."""
    w = w0.copy()
    n = len(batch)
    for e in range(epochs):
        perm = rng.child("epoch", e).generator().permutation(n)
        for start in range(0, n, batch_size):
            idx = perm[start:start + batch_size]
            mb = LabeledBatch(batch.features[idx], batch.labels[idx], batch.groups[idx])
            w -= lr * models.gradient(spec, w, mb)
    return w


def one_row_train_clients(spec, w0, batch, epochs, lr, batch_size, rng, cid):
    """models.train_clients training one client, cid, on all of batch from
    w0, in the one row of a matrix: the centralized baseline's call form."""
    W = np.full((1, spec.param_dim), np.nan)
    plan = models.Plan(spec, [(0, len(batch))], batch_size, lr, W)
    models.train_clients(w0, batch, plan, epochs, rng, [cid])
    return W[0]


def per_client_lists_partition(train, K, scheme, rng):
    """The pool rows and the shard spans of datagen.partition, assembled the
    way it once did: a Python list of rows per client, each sorted, then
    concatenated. Draws what partition draws, in the same order."""
    g = rng.generator()
    if scheme.kind == "iid":
        idx_lists = np.array_split(g.permutation(len(train)), K)
    else:
        for _ in range(1000):
            parts = [[] for _ in range(K)]
            for c in np.unique(train.labels):
                idx_c = g.permutation(np.flatnonzero(train.labels == c))
                props = g.dirichlet(np.full(K, scheme.alpha))
                cuts = (np.cumsum(props)[:-1] * len(idx_c)).astype(int)
                for k, chunk in enumerate(np.split(idx_c, cuts)):
                    parts[k].extend(chunk.tolist())
            if all(parts):
                break
        idx_lists = [np.asarray(p, dtype=np.int64) for p in parts]
    idx_lists = [np.sort(idx) for idx in idx_lists]
    stops = np.cumsum([len(idx) for idx in idx_lists]).tolist()
    return np.concatenate(idx_lists), list(zip([0] + stops[:-1], stops))


def fedavg_reference(config, spec, shards):
    """Plain FedAvg written independently of the aggregation under test:
    no clipping, no noise, straight mean of transmitted differences."""
    root = RngStream(config.seed)
    w = models.init_params(spec, root.child("init"))
    trajectory = []
    for t in range(config.T):
        sampled = sample_clients(config.K, config.q, root.child("sample", t))
        deltas = []
        for cid in sampled:
            w_local = per_client_sgd(
                spec, w, shards[cid].batch, config.epochs, config.lr,
                config.batch_size, root.child("round", t).child("client", cid),
            )
            deltas.append(w_local - w)
        w = w + np.mean(deltas, axis=0)
        trajectory.append(w.copy())
    return trajectory


# config files whose one bad value the config boundary must reject
BAD_VALUES = {
    "adjacency": {"federation": {"K": 4, "adjacency": "bogus"}},
    "bias_mode": {"federation": {"K": 4}, "bias": {"mode": "bogus"}},
    "negative_factor": {"federation": {"K": 4},
                        "bias": {"biased_client_ids": [0], "mode": "update_scale",
                                 "factor": -1}},
    "flip_prob": {"federation": {"K": 4},
                  "bias": {"biased_client_ids": [0], "mode": "label_flip",
                           "flip_prob": 2}},
    # json reads NaN and Infinity; neither is a usable value for these keys
    **{f"{key}_nan": {"federation": {"K": 4, key: math.nan}}
       for key in ("q", "lr", "S_fixed", "M", "sigma", "delta_dp")},
    **{f"{key}_inf": {"federation": {"K": 4, key: math.inf}}
       for key in ("lr", "S_fixed", "sigma")},
    # counts must be integers (not floats, not bools), and the seed >= 0
    "T_float": {"federation": {"K": 4, "T": 2.5}},
    "K_float": {"federation": {"K": 4.0}},
    "epochs_bool": {"federation": {"K": 4, "epochs": True}},
    "batch_size_float": {"federation": {"K": 4, "batch_size": 8.0}},
    "seed_negative": {"federation": {"K": 4, "seed": -1}},
    # the data, model and partition sections follow the same rules
    "n_examples_float": {"data": {"n_examples": 300.5}, "federation": {"K": 4}},
    "n_features_bool": {"data": {"n_features": True}, "federation": {"K": 4}},
    "hidden_units_float": {"model": {"kind": "mlp_1hidden", "hidden_units": 2.5},
                           "federation": {"K": 4}},
    "class_separation_nan": {"data": {"class_separation": math.nan}, "federation": {"K": 4}},
    "class_separation_inf": {"data": {"class_separation": math.inf}, "federation": {"K": 4}},
    "class_separation_huge": {"data": {"class_separation": 1e300}, "federation": {"K": 4}},
    **{f"alpha_{name}": {"partition": {"kind": "dirichlet_label_skew", "alpha": value},
                         "federation": {"K": 4}}
       for name, value in (("nan", math.nan), ("inf", math.inf))},
    # too few examples for the 80/20 split to leave a test row
    "n_examples_2": {"data": {"n_examples": 2}, "federation": {"K": 1, "T": 1}},
    # biased clients are a list of integer ids, target_group an integer group
    **{f"biased_client_ids_{name}": {"federation": {"K": 4},
                                     "bias": {"biased_client_ids": ids,
                                              "mode": "update_scale"}}
       for name, ids in (("float", [0.5]), ("bool", [True]), ("string", "01"))},
    **{f"target_group_{name}": {"federation": {"K": 4},
                                "bias": {"biased_client_ids": [0], "mode": "label_flip",
                                         "target_group": group}}
       for name, group in (("out_of_range", 9), ("float", 0.5))},
    "emit_csv_string": {"federation": {"K": 4}, "output": {"emit_csv": "false"}},
    # a JSON boolean is never a number, in any section
    **{f"{key}_bool": {"federation": {"K": 4, key: value}}
       for key, value in (("lr", True), ("M", True), ("q", True), ("sigma", False))},
    "class_separation_bool": {"data": {"class_separation": True}, "federation": {"K": 4}},
    "alpha_bool": {"partition": {"kind": "dirichlet_label_skew", "alpha": True},
                   "federation": {"K": 4}},
    "factor_bool": {"federation": {"K": 4},
                    "bias": {"biased_client_ids": [0], "mode": "update_scale",
                             "factor": True}},
}


def bad_section(case):
    """The config section holding BAD_VALUES[case]'s bad value: every case sets
    federation.K, so it is the case's other section, if it has one."""
    return next((s for s in BAD_VALUES[case] if s != "federation"), "federation")
