"""Independent brute-force solvers used to pin expected test values.

These deliberately share no code paths with the package: the lasso oracle
enumerates supports and sign patterns, the CRF oracle enumerates every
label path, and gradients are checked by central finite differences.
"""

import itertools
import math

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


def viterbi_enumerate(emissions, transitions):
    """The best label path by scoring every sequence, ties broken as Viterbi breaks them.

    Viterbi takes the lower label index on every tie, from the last
    position backward, so among the best paths it returns the one whose
    labels, read from the last position back, are smallest.
    """
    n_pos, n_lab = np.shape(emissions)
    paths = itertools.product(range(n_lab), repeat=n_pos)
    return list(max(paths, key=lambda p: (path_score(emissions, transitions, p),
                                          [-y for y in reversed(p)])))


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

    Each position holds a sequence of feature blocks, read in order: a
    block's rows are added from zero, then the block sums from zero.
    """
    emissions = np.zeros((len(sent_features), len(model.labels)))
    for t, blocks in enumerate(sent_features):
        for block in blocks:
            block_sum = np.zeros(len(model.labels))
            for name, value in block:
                fid = model.feature_index.get(name)
                if fid is not None:
                    block_sum += value * model.emissions[fid]
            emissions[t] += block_sum
    return emissions


# every character int and float accept in the package's number texts
_NUMBER_CHARS = set("0123456789+-.eEinftyaINFTYA")


def load_codes_by_line(path, m=None):
    """A codes file read one line at a time: (words, entries, m).

    Entries are (index list, value list) pairs. Checks run in the order
    of the line-by-line reader: each line's decoding, word and entries,
    in line order, then each row's indices and values and its word's
    uniqueness, in row order. A bad file raises ValueError with the
    message ``load_codes`` must give.
    """
    def number(text, kind):
        if not text or not set(text) <= _NUMBER_CHARS:
            raise ValueError
        return kind(text)

    with open(path, "rb") as fh:
        raw_lines = fh.read().splitlines()  # at '\n', '\r\n' and '\r' only
    rows = []
    for lineno, raw in enumerate(raw_lines, 1):
        where = f"{path}:{lineno}"
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(
                f"{where}: not UTF-8 ({exc.reason} at byte {exc.start + 1})"
            ) from None
        word, *fields = line.split(" ")
        if not word:
            raise ValueError(f"{where}: missing word")
        if any(ch.isspace() for ch in word):
            raise ValueError(f"{where}: word {word!r} holds whitespace")
        parts = [field for field in fields if field]
        for part in parts:
            if part.count(":") != 1:
                raise ValueError(f"{where}: bad entry {part!r}, expected 'index:value'")
        pairs = [part.split(":") for part in parts]
        numbers = []
        for side, kind, what in ((0, int, "an integer"), (1, float, "a number")):
            numbers.append([])
            for text in (pair[side] for pair in pairs):
                try:
                    numbers[-1].append(number(text, kind))
                except ValueError:
                    raise ValueError(
                        f"{where}: bad entry: could not convert {text!r} to {what}"
                    ) from None
        idx, val = numbers
        if not all(-2**63 <= i < 2**63 for i in idx):
            raise ValueError(f"{where}: index out of range")
        rows.append((where, word, idx, val))
    if not rows:
        raise ValueError(f"{path}: no codes found")
    if m is None:
        m = max([i + 1 for _, _, idx, _ in rows for i in idx] + [1])
    seen = set()
    for where, word, idx, val in rows:
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError(f"{where}: indices not strictly increasing for {word!r}")
        if idx and (idx[0] < 0 or idx[-1] >= m):
            raise ValueError(f"{where}: index out of range for {word!r}")
        if not all(math.isfinite(v) and v != 0.0 for v in val):
            raise ValueError(f"{where}: zero or non-finite coefficient for {word!r}")
        if word in seen:
            raise ValueError(f"{where}: duplicate word {word!r}")
        seen.add(word)
    return [row[1] for row in rows], [(idx, val) for _, _, idx, val in rows], m


def load_embeddings_by_line(path, format="text"):
    """An embedding file read one line at a time: (words, vectors).

    ``vectors`` is a list of value lists. Checks run in the order of the
    line-by-line reader: each line's decoding, the header on line 1, each
    record's field count and values, in line order, then each word's
    uniqueness. A bad file raises ValueError with the message
    ``load_embeddings`` must give.
    """
    def number(text, kind):
        if not text or not set(text) <= _NUMBER_CHARS:
            raise ValueError
        return kind(text)

    def is_header(fields):
        try:
            [number(text, int) for text in fields]
        except ValueError:
            return False
        return len(fields) == 2

    with open(path, "rb") as fh:
        raw_lines = fh.read().splitlines()  # at '\n', '\r\n' and '\r' only
    words, vectors, wheres, dim = [], [], [], None
    for lineno, raw in enumerate(raw_lines, 1):
        where = f"{path}:{lineno}"
        try:
            fields = raw.decode("utf-8").split()
        except UnicodeDecodeError as exc:
            raise ValueError(
                f"{where}: not UTF-8 ({exc.reason} at byte {exc.start + 1})"
            ) from None
        if not fields:
            continue
        if lineno == 1 and format == "word2vec-text" and not is_header(fields):
            raise ValueError(f"{where}: word2vec-text requires a '|V| k' header line")
        if lineno == 1 and is_header(fields):
            continue
        if len(fields) < 2:
            raise ValueError(f"{where}: expected 'word v1 ... vk'")
        if dim is None:
            dim = len(fields) - 1
        if len(fields) - 1 != dim:
            raise ValueError(f"{where}: expected {dim} values, found {len(fields) - 1}")
        vector = []
        for text in fields[1:]:
            try:
                vector.append(number(text, float))
            except ValueError:
                raise ValueError(
                    f"{where}: non-numeric field (could not convert {text!r} to a number)"
                ) from None
        if not all(math.isfinite(value) for value in vector):
            raise ValueError(f"{where}: non-finite value")
        words.append(fields[0])
        vectors.append(vector)
        wheres.append(where)
    if not words:
        raise ValueError(f"{path}: no embedding records found")
    seen = set()
    for where, word in zip(wheres, words):
        if word in seen:
            raise ValueError(f"{where}: duplicate word in vocabulary: {word!r}")
        seen.add(word)
    return words, vectors


def load_model_by_line(path):
    """A model file read one line at a time, checking each line as it comes.

    Returns (labels, c1, c2, meta, meta_lines, transitions, emissions):
    transitions map (from, to) and emissions (feature, label) to the
    weight of the last line that names them, emissions in the order
    features first occur. Label checks follow all lines, transitions
    first. A bad file raises ValueError with the message ``load_model``
    must give.
    """
    forms = {"[transitions]": "'from_label to_label weight'",
             "[emissions]": "'feature label weight'"}

    def number(text, where, what):
        try:
            if not text or not set(text) <= _NUMBER_CHARS:
                raise ValueError
            value = float(text)
        except ValueError:
            raise ValueError(f"{where}: {text!r} is not a number") from None
        if not math.isfinite(value):
            raise ValueError(f"{where}: {what} {text!r} is not finite")
        return value

    with open(path, "rb") as fh:
        raw_lines = fh.read().splitlines()  # at '\n', '\r\n' and '\r' only
    section, labels, penalties, meta, meta_lines = None, None, {}, {}, {}
    weights = {"[transitions]": [], "[emissions]": []}
    for lineno, raw in enumerate(raw_lines, 1):
        where = f"{path}:{lineno}"
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(
                f"{where}: not UTF-8 ({exc.reason} at byte {exc.start + 1})"
            ) from None
        if lineno == 1:
            if line != "sparsetag-crf 1":
                raise ValueError(f"{path}: not a model file")
        elif not line:
            pass
        elif line in ("[meta]", "[transitions]", "[emissions]"):
            section = line
        elif section is None:
            raise ValueError(f"{where}: content outside any section")
        elif section == "[meta]":
            key, _, value = line.partition(" ")
            if key in ("c1", "c2"):
                penalties[key] = number(value, where, key)
                if penalties[key] < 0:
                    raise ValueError(f"{where}: {key} {value!r} is negative")
            elif key == "labels":
                labels = value.split(" ")
            else:
                meta[key] = value
                meta_lines[key] = lineno
        else:
            fields = line.split(" ")
            if len(fields) != 3:
                raise ValueError(
                    f"{where}: expected {forms[section]}, found {len(fields)} field(s)"
                )
            weights[section].append((where, fields[0], fields[1], number(fields[2], where, "weight")))
    if not raw_lines:
        raise ValueError(f"{path}: not a model file")
    if len(penalties) != 2 or labels is None:
        raise ValueError(f"{path}: incomplete [meta] section")
    tables = {}
    for section, label_fields in (("[transitions]", (1, 2)), ("[emissions]", (2,))):
        tables[section] = {}
        for entry in weights[section]:
            for field in label_fields:
                if entry[field] not in labels:
                    raise ValueError(
                        f"{entry[0]}: label {entry[field]!r} is not in the model's labels"
                    )
            tables[section][entry[1], entry[2]] = entry[3]
    return (labels, penalties["c1"], penalties["c2"], meta, meta_lines,
            tables["[transitions]"], tables["[emissions]"])
