"""End to end on the XOR-contrastive corpus: why interaction matters.

Documents pair a polarity keyword with an emoji whose sense can flip the
label: matching pairs are positive, mismatched pairs negative.  No
additive unigram model can represent that rule, while any variant that
lets text and emoji interact (here: both the fine-grained model and its
coarse ablation) learns it.  The ablation harness trains both side by side
and prints conflict-style example rows.

Runs in well under a minute on a laptop core.
"""

import numpy as np

from faet import TrainConfig
from faet.synthetic import gen_xor
from faet.trainer import ablate

train_docs, test_docs = gen_xor(train_size=320, test_size=64, seed=3)
fit, val = train_docs[:288], train_docs[288:]

config = TrainConfig(d=32, d_w=32, n_filters=12, dropout=0.2, batch_size=32,
                     epochs=12, lr=2e-3, seed=3)
report = ablate(fit, val, test_docs, config)

print("test accuracy:")
for variant in ("fine", "coarse"):
    metrics = report["variants"][variant]["metrics"]
    print(f"  {variant:6s} acc={metrics['accuracy']:.3f} "
          f"f1(pos)={metrics['per_class']['1']['f1']:.3f}")
print("agreement:", report["agreement"])

print("\nsample predictions (1 = positive):")
print(f"  {'text':32s} {'emoji':8s} fine coarse label")
for ex in report["examples"][:6]:
    text = " ".join(ex["text"])[:32]
    print(f"  {text:32s} {ex['emojis'][0]:8s} {ex['fine']:4d} "
          f"{ex['coarse']:6d} {ex['label']:5d}")

baseline = np.mean([d.label for d in test_docs])
print(f"\n(majority class on test would score {max(baseline, 1-baseline):.3f};"
      " a unigram logistic model stays near 0.5 because the label lives in"
      " the keyword-emoji interaction)")
