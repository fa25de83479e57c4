"""Independent oracles used only by the tests.

Confusion counting, metric formulas, softmax, one document's fine and
coarse attention, per-row cross-entropy, the pairwise alignment loss, a
whole-array Adam update, vocabulary decoding and the unigram logistic
baseline are written from scratch in numpy, without the library under
test.  The fused graph nodes' references are graphs of the package's
generic autograd ops, whose rules then give the reference gradients: the
LSTM cell folded one position at a time, the TextCNN head one window at
a time, and the alignment loss and the cross-entropy as the graphs the
fused nodes replaced, which keep their float order, as does the TextCNN
head over full-width filters (checkpoint format 1), and the fine
attention's interaction and pooling as the generic-op graphs the two
fused nodes replaced, bit for bit in the forward.  The ops only these
graphs use (sigmoid, the clamped log, the sum, the max along an axis and
the transpose) live here too, and a backward sweep that keeps every
intermediate gradient, and a seeded training step's graph.
"""

from collections import namedtuple

import numpy as np

from faet import autograd as ag
from faet.attention import _masked, _pool, valid_mask
from faet.corpus import TokenizedDoc, build_vocab, make_batches
from faet.model import Model, TrainConfig


def recount_confusion(pairs):
    """Direct counting over (predicted, true) pairs; positive class is 1."""
    tp = fp = fn = tn = 0
    for pred, label in pairs:
        if pred == 1 and label == 1:
            tp += 1
        elif pred == 1 and label == 0:
            fp += 1
        elif pred == 0 and label == 1:
            fn += 1
        else:
            tn += 1
    return {"tp": tp, "fp": fp, "fn": fn, "tn": tn}


def prf_by_hand(tp, fp, fn):
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return precision, recall, f1


def accuracy_by_hand(counts):
    total = counts["tp"] + counts["fp"] + counts["fn"] + counts["tn"]
    return (counts["tp"] + counts["tn"]) / total


def softmax_direct(z):
    e = np.exp(np.asarray(z, dtype=np.float64))
    return e / e.sum()


def unigram_logistic_baseline(train_docs, test_docs, steps=800, lr=0.5,
                              l2=1e-4):
    """Bag-of-tokens logistic regression trained to convergence by
    full-batch gradient descent; returns test accuracy.

    Features are binary indicators over every text and emoji token seen in
    training; unseen test tokens contribute nothing.  Deterministic.
    """
    vocab = {}
    for doc in train_docs:
        for tok in list(doc.text_tokens) + list(doc.emoji_tokens):
            if tok not in vocab:
                vocab[tok] = len(vocab)

    def featurize(docs):
        x = np.zeros((len(docs), len(vocab) + 1))
        x[:, -1] = 1.0  # bias
        for row, doc in enumerate(docs):
            for tok in list(doc.text_tokens) + list(doc.emoji_tokens):
                col = vocab.get(tok)
                if col is not None:
                    x[row, col] = 1.0
        return x

    x_train = featurize(train_docs)
    y_train = np.array([doc.label for doc in train_docs], dtype=np.float64)
    w = np.zeros(x_train.shape[1])
    n = len(train_docs)
    for _ in range(steps):
        p = 1.0 / (1.0 + np.exp(-(x_train @ w)))
        grad = x_train.T @ (p - y_train) / n + l2 * w
        w -= lr * grad

    x_test = featurize(test_docs)
    preds = (x_test @ w > 0).astype(int)
    labels = np.array([doc.label for doc in test_docs])
    return float((preds == labels).mean())


# LSTM gate blocks, packed column-wise in this order
GATES = ("input", "forget", "output", "cell")


def gate_slice(name, d):
    k = GATES.index(name)
    return slice(k * d, (k + 1) * d)


LstmState = namedtuple("LstmState", "h c")  # (d,) graph values each


def initial_state(d):
    return LstmState(ag.constant(np.zeros(d)), ag.constant(np.zeros(d)))


def _sigmoid(z):
    # the two-branch form keeps exp() from overflowing either way
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def lstm_step(x, prev, w_in, w_rec, bias):
    """One cell update on graph values, one step at a time: sigmoid
    input/forget/output gates, tanh candidate, c' = f*c + i*g,
    h' = o*tanh(c').  `x` is (d_in,), the weights are one direction's."""
    d = w_rec.shape[0]
    z = ag.add(ag.add(ag.matmul(x, w_in), ag.matmul(prev.h, w_rec)), bias)
    i, f, o, g = (ag.narrow(z, 0, k * d, d) for k in range(len(GATES)))
    i, f, o, g = sigmoid(i), sigmoid(f), sigmoid(o), ag.tanh(g)
    c = ag.add(ag.mul(f, prev.c), ag.mul(i, g))
    return LstmState(ag.mul(o, ag.tanh(c)), c)


def bilstm_folded(seq, fwd, bwd, lengths):
    """(B, L, d_in) padded batch -> (B, L, 2d) [forward ; backward] hidden
    states: each row's first `lengths[b]` positions folded through
    `lstm_step` left to right with `fwd`'s weights and right to left with
    `bwd`'s, as a graph of generic ops; padding outputs are 0."""
    length, d = seq.shape[1], fwd.w_rec.shape[0]
    rows = []
    for b, n in enumerate(lengths):
        halves = []
        for p, steps in ((fwd, range(n)), (bwd, range(n - 1, -1, -1))):
            state, hidden = initial_state(d), [None] * n
            for t in steps:
                x = ag.reshape(ag.narrow(ag.narrow(seq, 0, b, 1), 1, t, 1),
                               seq.shape[2:])
                state = lstm_step(x, state, p.w_in, p.w_rec, p.bias)
                hidden[t] = ag.reshape(state.h, (1, d))
            halves.append(ag.concat(hidden))
        pad = ag.constant(np.zeros((length - n, 2 * d)))
        rows.append(ag.reshape(ag.concat([ag.concat(halves, axis=1), pad]),
                               (1, length, 2 * d)))
    return ag.concat(rows)


def full_width_filter(params, width):
    """Width `width`'s TextCNN filter over whole [state ; summary]
    positions, (F, width * channels): the state columns of
    `params.filters[width]` at every shift, and the width's block of
    `params.summary` at shift 0 with zeros at the later shifts, which a
    window sums to the same value."""
    f = params.n_filters
    k = params.widths.index(width)
    state = params.filters[width].data.reshape(f, width, -1)
    summary = np.zeros((f, width, params.summary.shape[1]))
    summary[:, 0] = params.summary.data[k * f:(k + 1) * f]
    return np.concatenate([state, summary], axis=2).reshape(f, -1)


def seeded_full_width_filters(seed, n_filters, channels, widths):
    """Width -> the (F, w * channels) TextCNN filter a model of `seed`
    draws, in the full-width layout where every shift has summary columns
    of its own: the sixth generator spawned from SeedSequence([seed, 0])
    draws them first, one width after the other (a repeated width keeps
    its last draw)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]).spawn(6)[5])
    filters = {}
    for w in widths:
        scale = 1.0 / np.sqrt(w * channels)
        filters[w] = rng.uniform(-scale, scale, (n_filters, w * channels))
    return filters


def conv_pool_full_width(states, summaries, widths, filters, biases, lengths):
    """(B, L, 2d) states + (B, 4d) summaries -> (B, widths * F) pooled
    TextCNN features from full-width filters (width -> (F, w * 6d), the
    summary columns repeated at every shift; checkpoint format 1) and
    biases (width -> (F,)).

    Not brute force: the reference for the float order the head keeps.
    Each width's summary copies are summed over the shifts (shift 0
    copied, every later shift added) into one per-row term.  The state
    products go per shift where pooling reads fewer than 3/4 of the
    (position, shift) products, else through one product of all
    positions with the shifts summed on its output.
    """
    batch, length, hidden = states.shape
    f = len(biases[widths[0]])
    banks = [filters[w].reshape(f, w, -1) for w in widths]
    summary_bank = np.empty((len(widths) * f, summaries.shape[1]))
    for k, bank in enumerate(banks):
        block = summary_bank[k * f:(k + 1) * f]
        np.copyto(block, bank[:, 0, hidden:])
        for i in range(1, bank.shape[1]):
            block += bank[:, i, hidden:]
    per_row = (summaries @ summary_bank.T
               + np.concatenate([biases[w] for w in widths]))
    steps = np.ascontiguousarray(states.transpose(1, 0, 2)).reshape(
        length * batch, hidden)
    feats = np.zeros((batch, len(widths) * f))
    for k, (w, bank) in enumerate(zip(widths, banks)):
        n_out = length - w + 1
        if n_out < 1:
            continue
        if 4 * n_out < 3 * length:
            conv = steps[:n_out * batch] @ bank[:, 0, :hidden].T
            for i in range(1, w):
                conv += steps[i * batch:(i + n_out) * batch] @ \
                    bank[:, i, :hidden].T
            conv = conv.reshape(n_out, batch, f)
        else:
            shifted = (steps @ bank[:, :, :hidden].reshape(f * w, hidden).T
                       ).reshape(length, batch, f, w)
            conv = shifted[:n_out, :, :, 0].copy()
            for i in range(1, w):
                conv += shifted[i:i + n_out, :, :, i]
        conv += per_row[:, k * f:(k + 1) * f]
        np.maximum(conv, 0.0, out=conv)
        conv *= (np.arange(n_out)[:, None]
                 < np.reshape(lengths, (1, -1)) - w + 1)[..., None]
        feats[:, k * f:(k + 1) * f] = conv.max(axis=0)
    return feats


def textcnn_windows(states, summaries, params, lengths):
    """(B, L, h) padded states + (B, s) summaries -> (B, 2) TextCNN
    logits, one window at a time, as a graph of generic ops.

    Window t of width w over row b is `filters[w]` times the row's
    positions t..t+w-1 flattened, plus the width's block of `summary`
    times the row's summary, plus the bias; a row pools the maximum over
    its windows and 0, which is max-over-time of the ReLU.  A width
    longer than the row pools to 0."""
    f, feats = params.n_filters, []
    for b, n in enumerate(lengths):
        row = ag.narrow(states, 0, b, 1)
        summary = ag.reshape(ag.narrow(summaries, 0, b, 1),
                             summaries.shape[1:])
        pooled = []
        for k, w in enumerate(params.widths):
            extra = ag.add(ag.matmul(ag.narrow(params.summary, 0, k * f, f),
                                     summary), params.filter_bias[w])
            windows = [ag.reshape(ag.add(ag.matmul(
                params.filters[w], ag.reshape(ag.narrow(row, 1, t, w), (-1,))),
                extra), (1, f)) for t in range(n - w + 1)]
            pooled.append(max_along(ag.concat(
                windows + [ag.constant(np.zeros((1, f)))]), 0))
        feats.append(ag.reshape(ag.concat(pooled), (1, -1)))
    return ag.add(ag.matmul(ag.concat(feats), params.out_w), params.out_b)


def adam_step(param, m, v, grad, t, lr, beta1=0.9, beta2=0.999,
              epsilon=1e-8):
    """Step `t` (from 1) of bias-corrected Adam on whole arrays, in place
    on `param`, `m` and `v`, in the element-wise order the optimizer
    keeps: the reference its blocked update must match bit for bit."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    scratch = np.asarray(grad * grad)  # 0-d products decay to scalars
    scratch *= 1.0 - beta2
    v += scratch
    np.sqrt(v, out=scratch)
    scratch /= np.sqrt(bc2)
    scratch += epsilon
    np.divide(m, scratch, out=scratch)
    scratch *= lr / bc1
    param -= scratch


def decode_text(vocab, ids):
    """Text tokens of `ids`, read straight off the vocabulary's list."""
    return [vocab.id_to_text[i] for i in ids]


def cross_entropy_rows(probs, labels, smoothing):
    """Each row's cross-entropy and its gradient, one row at a time.

    Row b's target puts 1 - s + s/2 on its label and s/2 on the other
    class; its loss is -sum_k target_k * log(max(p_k, 1e-12)), and the
    gradient with respect to p_k is -target_k / max(p_k, 1e-12).  Returns
    (losses (B,), gradients (B, 2)).
    """
    losses, grads = [], []
    for row, label in zip(probs, labels):
        target = np.array([smoothing / 2.0, smoothing / 2.0])
        target[label] += 1.0 - smoothing
        clamped = np.maximum(np.asarray(row, dtype=np.float64), 1e-12)
        losses.append(-(target[0] * np.log(clamped[0])
                        + target[1] * np.log(clamped[1])))
        grads.append(-target / clamped)
    return np.array(losses), np.array(grads)


def alignment_pairs(beta, text, w):
    """Alignment loss and its gradients, one unordered word pair at a time.

    Pair (i, o) weighs its squared attention difference by the mean of
    sigmoid(w . [t_i ; t_o]) and sigmoid(w . [t_o ; t_i]).  Returns
    (loss, d/d beta, d/d text, d/d w).
    """
    i, o = np.triu_indices(beta.shape[0], k=1)
    first = np.concatenate([text[i], text[o]], axis=1)   # (P, 2h)
    second = np.concatenate([text[o], text[i]], axis=1)
    s1, s2 = _sigmoid(first @ w), _sigmoid(second @ w)
    diff = beta[i] - beta[o]
    sq = (diff ** 2).sum(axis=1)
    loss = -(0.5 * (s1 + s2) * sq).sum()

    g_beta = np.zeros_like(beta)
    np.add.at(g_beta, i, -(s1 + s2)[:, None] * diff)
    np.add.at(g_beta, o, (s1 + s2)[:, None] * diff)
    g1 = -0.5 * sq * s1 * (1.0 - s1)   # d loss / d (w . first)
    g2 = -0.5 * sq * s2 * (1.0 - s2)
    g_w = g1 @ first + g2 @ second
    h = text.shape[1]
    g_text = np.zeros_like(text)
    np.add.at(g_text, i, np.outer(g1, w[:h]) + np.outer(g2, w[h:]))
    np.add.at(g_text, o, np.outer(g1, w[h:]) + np.outer(g2, w[:h]))
    return loss, g_beta, g_text, g_w


def backward_keeping_intermediates(loss: ag.Value) -> None:
    """`Value.backward` without its release: each intermediate starts the
    sweep without a gradient and keeps it after its rule has run, so the
    leaves' gradients are those of the plain chain rule over the same
    rules in the same order."""
    order = ag.topo_order(loss)
    for node in order:
        if node._prev:
            node._grad = None
    ag.accumulate(loss, np.ones_like(loss.data))
    for node in reversed(order):
        if node._backward is not None and node._grad is not None:
            node._backward()


def step_graph(variant):
    """A seeded `Model.batch_loss` graph of `variant` with dropout and the
    alignment term, and the model's parameters."""
    docs = [TokenizedDoc(["bad", "day", "here"], ["E_C", "E_S"], 0),
            TokenizedDoc(["fine", "enough", "today", "yes", "ugh"],
                         ["E_S", "E_C", "E_C"], 1),
            TokenizedDoc(["good"], ["E_S"], 1)]
    model = Model(TrainConfig(d=6, d_w=5, n_filters=3, widths=(2, 3), seed=0,
                              variant=variant), build_vocab(docs))
    (batch,) = make_batches(docs, model.vocab, batch_size=3, max_len=20,
                            shuffle=False)
    loss = model.batch_loss(batch, dropout_rng=np.random.default_rng(3))
    return loss, model.parameters()


def log(x: ag.Value) -> ag.Value:
    """Natural log with the input clamped at 1e-12 (keeps -inf out); the
    gradient is g / max(x, 1e-12), clamp or not."""
    ag._check("log", (x,))
    clamped = np.maximum(x.data, 1e-12)
    return ag._node(np.log(clamped), (x,), "log",
                    lambda: (lambda g: g / clamped,))


def sum_along(x: ag.Value, axis=None) -> ag.Value:
    """Sum along `axis`, or of every element when `axis` is None."""
    ag._check("sum_along", (x,))
    return ag._node(np.sum(x.data, axis=axis), (x,), "sum", lambda: (
        lambda g: np.broadcast_to(
            g if axis is None else np.expand_dims(g, axis), x.shape),))


def cross_entropy_composite(probs, labels, smoothing):
    """The cross-entropy of (B, 2) `probs` as the graph the fused node on
    the logits replaced, in its float order: the clamped `log`, a product
    with the negated smoothed target, and its sum.  Where a probability
    is below 1e-12 the clamp holds its gradient back; elsewhere it agrees
    with the fused node on `softmax`ed logits."""
    target = np.full(probs.shape, smoothing / 2.0)
    target[np.arange(len(target)), labels] += 1.0 - smoothing
    return sum_along(ag.mul(log(probs), ag.constant(-target)))


def sigmoid(x: ag.Value) -> ag.Value:
    """Logistic sigmoid as 0.5 * tanh(0.5 * x) + 0.5: no exp() to overflow
    for any input, and within 2.2e-16 of the two-branch exp() form."""
    ag._check("sigmoid", (x,))
    s = np.tanh(0.5 * x.data)
    s *= 0.5
    s += 0.5
    return ag._node(s, (x,), "sigmoid", lambda: (lambda g: g * s * (1.0 - s),))


def alignment_composite(word_emoji_weights, text, distance_w):
    """The alignment loss as a graph of generic autograd ops: (n, m)
    per-word emoji distributions + (n, 2d) text states -> scalar <= 0.
    The fused `objective.alignment_loss` runs the same ufunc sequence, so
    its value equals this one bit for bit."""
    n, m = word_emoji_weights.shape
    h = text.shape[1]
    a = ag.matmul(text, ag.narrow(distance_w, 0, 0, h))   # (n,) first slot
    c = ag.matmul(text, ag.narrow(distance_w, 0, h, h))   # (n,) second slot
    dist = sigmoid(ag.add(ag.reshape(a, (n, 1)), ag.reshape(c, (1, n))))
    diff = ag.add(ag.reshape(word_emoji_weights, (n, 1, m)),
                  ag.mul(ag.reshape(word_emoji_weights, (1, n, m)), -1.0))
    sq = sum_along(ag.mul(diff, diff), axis=2)            # (n, n)
    return ag.mul(sum_along(ag.mul(dist, sq)), -0.5)


def fine_attention_doc(text, emoji, w):
    """One document's fine attention from the pair-form score
    u_ij = w . [e_j ; t_i ; e_j * t_i], one (word, emoji) pair at a time.

    Returns (interaction (n, m), emoji weights (m,), text weights (n,),
    per-word emoji distributions (n, m), fused [text ; emoji summary]).
    Without emojis the text weights are uniform and the emoji summary is 0.
    """
    n, m = len(text), len(emoji)
    u = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            u[i, j] = w @ np.concatenate([emoji[j], text[i],
                                          emoji[j] * text[i]])
    if m:
        emoji_w = softmax_direct(u.max(axis=0))
        text_w = softmax_direct(u.max(axis=1))
    else:
        emoji_w, text_w = np.zeros(0), np.full(n, 1.0 / n)
    beta = np.array([softmax_direct(row) for row in u]).reshape(n, m)
    return u, emoji_w, text_w, beta, np.concatenate([text_w @ text,
                                                     emoji_w @ emoji])


def max_along(x: ag.Value, axis: int) -> ag.Value:
    """Max along `axis`; ties route the gradient to the first maximal
    index."""
    ag._check("max_along", (x,))

    def rules():
        sel = np.zeros(x.shape, dtype=bool)
        np.put_along_axis(sel, np.expand_dims(np.argmax(x.data, axis=axis),
                                              axis), True, axis=axis)
        return (lambda g: np.where(sel, np.expand_dims(g, axis), 0.0),)
    return ag._node(np.max(x.data, axis=axis), (x,), "max_along", rules)


def transpose(x: ag.Value) -> ag.Value:
    """Swap the last two axes, as a view."""
    ag._check("transpose", (x,))
    return ag._node(np.swapaxes(x.data, -1, -2), (x,), "transpose",
                    lambda: (lambda g: np.swapaxes(g, -1, -2),))


def interaction_composite(text, emoji, weights):
    """The fused `interaction` node's (B, n, m) scores as the graph of
    generic ops it replaced, in its float order: with w = [w_e ; w_t ; w_p],
    ((T * w_p) E^T + T w_t) + E w_e."""
    batch, n, feat = text.shape
    m = emoji.shape[1]
    w_e, w_t, w_p = (ag.narrow(weights, 0, k * feat, feat) for k in range(3))
    product = ag.matmul(ag.mul(text, w_p), transpose(emoji))
    return ag.add(ag.add(product, ag.reshape(ag.matmul(text, w_t),
                                             (batch, n, 1))),
                  ag.reshape(ag.matmul(emoji, w_e), (batch, 1, m)))


def fine_pool_composite(scores, text, emoji, text_lengths, emoji_lengths):
    """The fused `fine_pool` node as the graph of generic ops it replaced,
    in its float order -> (fused (B, 4d), emoji weights (B, m), text
    weights (B, n)), all graph values: column maxima over the valid words
    and row maxima over the valid emojis (each row's scores zeroed where
    it has no emoji), each softmaxed over its valid entries and pooled
    with its own states."""
    text_valid = valid_mask(text_lengths, text.shape[1])
    emoji_valid = valid_mask(emoji_lengths, emoji.shape[1])
    emoji_w = ag.mul(ag.softmax(_masked(max_along(
        _masked(scores, text_valid[..., None]), 1), emoji_valid), axis=1),
        ag.constant(emoji_valid))
    text_w = ag.softmax(_masked(ag.mul(
        max_along(_masked(scores, emoji_valid[:, None]), 2),
        ag.constant(emoji_valid.any(axis=1, keepdims=True))), text_valid),
        axis=1)
    return (ag.concat([_pool(text_w, text), _pool(emoji_w, emoji)], axis=-1),
            emoji_w, text_w)


def coarse_attention_doc(text, emoji, w, v):
    """One document's coarse attention: emoji j scores
    v . tanh([e_j ; mean(T)] @ W).  Returns (context, weights); without
    emojis both are zero."""
    sentence = text.mean(axis=0)
    scores = np.array([v @ np.tanh(np.concatenate([e, sentence]) @ w)
                       for e in emoji])
    weights = softmax_direct(scores) if len(emoji) else np.zeros(0)
    return weights @ emoji, weights
