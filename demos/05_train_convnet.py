"""Train the small convolutional network on synthetic frames.

Everything is float64 numpy with explicit backpropagation; a run is a
pure function of the architecture (whose seed draws the weights and the
epoch shuffles) and the data, so training twice gives bit-identical weights.
"""

import numpy as np

from podclass import convnet
from podclass.dataset import (
    SplitPolicy,
    SyntheticSpec,
    generate_synthetic,
    partition_arrays,
    split_dataset,
)

spec = SyntheticSpec(
    class_count=3, frames_per_class=48, image_side=16, intrinsic_rank=3,
    noise_level=0.1, seed=4,
)
samples = generate_synthetic(spec)
split = split_dataset(samples, SplitPolicy.for_samples(samples), seed=4)
train_images, train_labels = partition_arrays(split.train)
val = partition_arrays(split.validation)
print(f"training on {train_labels.size} frames, validating on {val[1].size}")

arch = convnet.Architecture(
    height=16, width=16, channels=(4, 8, 8), hidden=16,
    classes=len(split.metadata.classes), seed=0,
)
config = convnet.TrainConfig(epochs=12, batch_size=32, learning_rate=1e-3)
params, history = convnet.train(
    arch, train_images, train_labels, config, validation=val
)

for row in history[::3] + [history[-1]]:
    print(f"epoch {row['epoch']:2d}: "
          f"train loss {row['train_loss']:.3f} acc {row['train_accuracy']:.3f}  "
          f"val loss {row['validation_loss']:.3f} acc {row['validation_accuracy']:.3f}")

again, _ = convnet.train(arch, train_images, train_labels, config, validation=val)
identical = all(np.array_equal(a, b) for a, b in zip(params, again))
print(f"\nretraining with the same seeds is bit-identical: {identical}")

images, labels = partition_arrays(split.unseen)
predicted = convnet.predict(params, images)
print(f"unseen accuracy: {(predicted == labels).mean():.3f}")
