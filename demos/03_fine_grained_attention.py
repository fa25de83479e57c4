"""The interaction matrix and both pooling directions, on a toy document.

Word-level cross-attention scores every (text word, emoji) pair, then
pools column-wise to rank emojis and row-wise to rank text words.  The
row-softmax of the same matrix gives each word its own distribution over
emojis; the alignment loss pushes those distributions apart for dissimilar
words.
"""

import numpy as np

from faet import autograd as ag
from faet.attention import FineAttentionParams, fine_attention
from faet.objective import alignment_loss

rng = np.random.default_rng(42)
WORDS = ["party", "was", "ruined"]
EMOJIS = ["confetti", "sob"]

# hand-crafted hidden states (2d = 4), one document as a batch of one:
# "party" resembles "confetti", "ruined" resembles "sob"
text_states = ag.constant(np.array([[
    [1.0, 0.2, 0.0, 0.1],    # party
    [0.1, 0.1, 0.1, 0.1],    # was
    [0.0, 0.1, 1.0, 0.3],    # ruined
]]))
emoji_states = ag.constant(np.array([[
    [0.9, 0.3, 0.0, 0.2],    # confetti
    [0.1, 0.0, 0.9, 0.4],    # sob
]]))

params = FineAttentionParams(hidden=4, rng=rng)
params.interaction_w.data[...] = 0.0
params.interaction_w.data[8:] = 2.0  # score the elementwise-product block

# per-row lengths: the document's 3 words and 2 emojis are all valid
out = fine_attention(text_states, emoji_states, params, [3], [2])

print("interaction matrix (rows = words, cols = emojis):")
for word, row in zip(WORDS, out.interaction.data[0]):
    print(f"  {word:7s} {np.round(row, 3)}")
print("emoji weights  :",
      dict(zip(EMOJIS, np.round(out.emoji_weights.data[0], 3))))
print("text weights   :",
      dict(zip(WORDS, np.round(out.text_weights.data[0], 3))))
print("per-word emoji distributions:")
for word, row in zip(WORDS, out.word_emoji_weights.data[0]):
    print(f"  {word:7s} {np.round(row, 3)}")
print("fused vector length:", out.fused.shape[1], "(= 4d)")

# the alignment loss reads one document's unpadded (n, m) and (n, 2d) slices
loss = alignment_loss(ag.reshape(out.word_emoji_weights, (3, 2)),
                      ag.reshape(text_states, (3, 4)), params.distance_w)
print("\nalignment loss:", round(float(loss.data), 4))
print("More negative is better here: distinct words already attend to "
      "different emojis,\nand training with this term pushes them further "
      "apart.")
