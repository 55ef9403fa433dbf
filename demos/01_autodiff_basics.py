"""Tour of the tensor layer: build a graph, run backward, check against
finite differences.

Run from the repo root after `pip install -e .`:

    python3 demos/01_autodiff_basics.py
"""

import numpy as np

import inkstone.tensor as T


def main():
    rng = np.random.default_rng(0)

    print("== forward/backward on a two-layer net ==")
    x = T.as_tensor(rng.normal(size=(4, 8)).astype(np.float32))
    w1 = T.parameter(rng.normal(scale=0.3, size=(8, 16)))
    b1 = T.parameter(np.zeros(16))
    w2 = T.parameter(rng.normal(scale=0.3, size=(16, 3)))

    h = T.gelu(T.linear(x, w1, b1))  # one node for x @ w1 + b1
    logits = T.matmul(h, w2)
    labels = np.array([0, 2, 1, 0])
    loss = T.cross_entropy_masked(logits, labels)
    print(f"loss = {float(loss.data):.6f}")

    T.backward(loss)
    for name, p in [("w1", w1), ("b1", b1), ("w2", w2)]:
        print(f"grad[{name}]: shape {p.grad.shape}, "
              f"|g|_max = {np.abs(p.grad).max():.4f}")
    # backward frees the graph as it walks it, so a second pass has nothing to walk
    try:
        T.backward(loss)
    except ValueError as e:
        print(f"second backward on the same loss: {e}")

    print()
    print("== the same loss, checked against central differences ==")

    def build_loss():
        h = T.gelu(T.linear(x, w1, b1))
        return T.cross_entropy_masked(T.matmul(h, w2), labels)

    err = T.grad_check(build_loss, [w1, b1, w2], eps=1e-4)
    print(f"max relative error over {w1.data.size + b1.data.size + w2.data.size} "
          f"coordinates: {err:.2e}")

    print()
    print("== no_grad suppresses graph recording ==")
    with T.no_grad():
        y = T.matmul(x, w1)
    print(f"inside no_grad: result requires_grad={y.requires_grad}, "
          f"parents recorded={len(y._parents)}")

    print()
    print("== softmax + layer_norm keep gradients stable ==")
    g = T.parameter(np.ones(8))
    be = T.parameter(np.zeros(8))
    z = T.parameter(rng.normal(scale=5.0, size=(2, 8)))  # deliberately large inputs
    out = T.softmax(T.layer_norm(z, g, be), axis=-1)
    T.backward(T.cross_entropy_masked(out, np.array([1, 5])))
    print(f"softmax rows sum to {out.data.sum(axis=-1)}")
    print(f"grad on z is finite: {np.isfinite(z.grad).all()}")


if __name__ == "__main__":
    main()
