"""Independent brute-force solvers used to pin expected test values.

These deliberately share no code paths with the package: the lasso oracle
enumerates supports and sign patterns, the CRF oracle enumerates every
label path, and gradients are checked by central finite differences.
"""

import itertools

import numpy as np


def lasso_objective(D, x, alpha, lam):
    r = x - D @ alpha
    return 0.5 * float(r @ r) + lam * float(np.abs(alpha).sum())


def lasso_bruteforce(D, x, lam, nonneg=False):
    """Global lasso minimum by exhaustive support enumeration.

    For every support the stationarity system is solved per sign pattern
    (least squares shifted by lam * sign); sign-consistent solutions are
    feasible points, so the best of them (against the zero vector) is the
    optimum. Intended for m <= ~10.
    """
    k, m = D.shape
    gram = D.T @ D
    corr = D.T @ x
    best_alpha = np.zeros(m)
    best_obj = lasso_objective(D, x, best_alpha, lam)
    for size in range(1, m + 1):
        for support in itertools.combinations(range(m), size):
            sub = list(support)
            A = gram[np.ix_(sub, sub)]
            if nonneg:
                signs = np.ones((1, size))
            else:
                signs = np.array(list(itertools.product((-1.0, 1.0), repeat=size)))
            rhs = corr[sub][None, :] - lam * signs
            try:
                sols = np.linalg.solve(A, rhs.T).T
            except np.linalg.LinAlgError:
                continue
            consistent = np.all(np.sign(sols) == signs, axis=1)
            for sol in sols[consistent]:
                alpha = np.zeros(m)
                alpha[sub] = sol
                obj = lasso_objective(D, x, alpha, lam)
                if obj < best_obj:
                    best_obj = obj
                    best_alpha = alpha
    return best_alpha, best_obj


def crf_enumerate(emissions, transitions):
    """Exact logZ, marginals and best path by scoring every label sequence."""
    emissions = np.asarray(emissions, dtype=np.float64)
    transitions = np.asarray(transitions, dtype=np.float64)
    n_pos, n_lab = emissions.shape
    paths = list(itertools.product(range(n_lab), repeat=n_pos))
    scores = np.empty(len(paths))
    for p_idx, path in enumerate(paths):
        s = emissions[0][path[0]]
        for t in range(1, n_pos):
            s += transitions[path[t - 1]][path[t]] + emissions[t][path[t]]
        scores[p_idx] = s
    mx = scores.max()
    logz = float(mx + np.log(np.exp(scores - mx).sum()))
    probs = np.exp(scores - logz)
    unary = np.zeros((n_pos, n_lab))
    pairwise = np.zeros((max(n_pos - 1, 0), n_lab, n_lab))
    for path, pr in zip(paths, probs):
        for t, y in enumerate(path):
            unary[t, y] += pr
        for t in range(1, n_pos):
            pairwise[t - 1, path[t - 1], path[t]] += pr
    best = list(paths[int(np.argmax(scores))])
    return logz, unary, pairwise, best, float(mx)


def path_score(emissions, transitions, path):
    """Score of one label path: its emissions plus its transitions."""
    score = float(emissions[0][path[0]])
    for t in range(1, len(path)):
        score += float(transitions[path[t - 1]][path[t]]) + float(emissions[t][path[t]])
    return score


def finite_difference_gradient(fun, params, h=1e-5):
    """Central differences of a scalar function, coordinate by coordinate."""
    grad = np.zeros_like(params)
    for i in range(params.size):
        up = params.copy()
        up[i] += h
        down = params.copy()
        down[i] -= h
        grad[i] = (fun(up) - fun(down)) / (2.0 * h)
    return grad


def random_bio_sequence(rng, length, types=("PER", "LOC", "ORG", "MISC")):
    """A well-formed BIO tag sequence with random span layout."""
    tags = []
    while len(tags) < length:
        if rng.random() < 0.5:
            tags.append("O")
        else:
            etype = types[int(rng.integers(len(types)))]
            span = min(int(rng.integers(1, 4)), length - len(tags))
            tags.append("B-" + etype)
            tags.extend(["I-" + etype] * (span - 1))
    return tags


def token_features_per_token(sentence, t, config, resources):
    """The windowed schemes' features of token t, rebuilt from scratch.

    The per-token extractor that preceded the per-word-type cache: every
    feature string of every offset is built again and the union is sorted
    once per token. Covers sc, dense, brown, wi and wi_sc.
    """
    low = resources.lowercase_fallback

    def safe(text):
        return "".join("_" if ch.isspace() else ch for ch in text)

    def sc_word(word):
        entry = resources.codes.get(word, lowercase_fallback=low)
        if entry is None:
            return []
        return [(("+" if v > 0 else "-") + str(int(i)), 1.0) for i, v in zip(*entry)]

    def dense_word(word):
        if not resources.table.has_vector(word, lowercase_fallback=low):
            return []
        vector = resources.table.lookup(word, lowercase_fallback=low)
        return [(f"d:{j}", float(v)) for j, v in enumerate(vector)]

    def brown_word(word):
        path = resources.clusters.get(word)
        if path is None:
            return []
        return [(f"bp{p}={path[:p]}", 1.0) for p in (4, 6, 10, 20)]

    def wi_word(word):
        return [(f"w={safe(word)}", 1.0)]

    per_word = {
        "sc": [sc_word],
        "dense": [dense_word],
        "brown": [brown_word],
        "wi": [wi_word],
        "wi_sc": [wi_word, sc_word],
    }[config.scheme]
    feats = []
    for extract in per_word:
        for o in range(-config.window, config.window + 1):
            if 0 <= t + o < len(sentence):
                tag = "[0]" if o == 0 else f"[{o:+d}]"
                feats.extend((tag + name, value) for name, value in extract(sentence[t + o]))
    return sorted(dict(feats).items())


def score_lattice_per_feature(model, sent_features):
    """Emission scores by one row addition per feature occurrence.

    Each position holds a sequence of feature blocks, read in order.
    """
    emissions = np.zeros((len(sent_features), len(model.labels)))
    for t, blocks in enumerate(sent_features):
        for name, value in itertools.chain.from_iterable(blocks):
            fid = model.feature_index.get(name)
            if fid is not None:
                emissions[t] += value * model.emissions[fid]
    return emissions
