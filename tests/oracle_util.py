"""FedMD written out plainly, as a whole-run oracle for ``run_experiment``.

Li & Wang, arXiv:1910.03581, Algorithm 1: transfer learning, then rounds of
communicate, aggregate, distribute, digest and revisit. Each party trains
alone, in id order, on its own named RNG streams, with the list-based
reference trainer (``reference_util``); no protocol loop, channel, codec,
phase call or lockstep group of fedmd's runs here. Every row but ``wall_ms``
must equal the run's.
"""

import numpy as np

from fedmd import nn
from fedmd.data import Dataset
from fedmd.experiments import build_task
from fedmd.protocol import rng_stream

from reference_util import reference_cross_entropy, reference_distill_loss, reference_forward, reference_run_epochs


def accuracy(net, data) -> float:
    return float(np.mean(np.argmax(reference_forward(net, data.features), axis=1) == data.labels, dtype=np.float64))


def converge(net, features, labels, val, rng, c) -> None:
    """Supervised epochs until ``val`` accuracy misses its best by ``min_improvement`` ``patience`` times running."""
    best, stall = -1.0, 0

    def stalled(_epoch, _loss):
        nonlocal best, stall
        acc = accuracy(net, val)
        if acc > best + c.min_improvement:
            best, stall = acc, 0
            return False
        stall += 1
        return stall >= c.patience

    reference_run_epochs(
        net, features, labels, reference_cross_entropy, c.max_epochs, c.transfer_batch_size, c.opt, rng, stalled
    )


def oracle_rows(cfg) -> list[tuple]:
    """(round, party, accuracy, digest loss, revisit loss) of each row ``run_experiment(cfg)`` makes, in its order."""
    c, task = cfg.collab, build_task(cfg)
    public, test = task.public, task.test
    nets, pretrained, rows = [], [], []
    for k, private in enumerate(task.privates):
        net = nn.build_network(public.dim, cfg.architectures[k], test.num_classes, rng_stream(c.seed, k, "init"))
        n_val, keep, val = int(public.n * c.val_fraction), np.arange(public.n), public
        if 0 < n_val < public.n:
            perm = rng_stream(c.seed, k, "holdout").permutation(public.n)
            keep, val = perm[n_val:], public.take(perm[:n_val])
        converge(net, public.features[keep], public.labels[keep], val, rng_stream(c.seed, k, "transfer-public"), c)
        pretrained.append(net.copy())
        converge(net, private.features, private.labels, private, rng_stream(c.seed, k, "transfer-private"), c)
        nets.append(net)
        rows.append(("baseline", k, accuracy(net, test), None, None))
    for j in range(1, c.rounds + 1):
        subset = rng_stream(c.seed, "subset", j).choice(public.n, size=min(c.subset_size, public.n), replace=False)
        x = public.features[subset]
        scores = [reference_forward(net, x) for net in nets]
        consensus = sum(w * s.astype(np.float64) for w, s in zip(c.weights, scores)).astype(np.float32)
        for k, (net, private) in enumerate(zip(nets, task.privates)):
            digest_loss = reference_distill_loss(scores[k], consensus)[0]
            reference_run_epochs(
                net, x, consensus, reference_distill_loss, c.digest_epochs, c.digest_batch_size, c.opt,
                rng_stream(c.seed, k, "digest", j),
            )
            revisit = reference_run_epochs(
                net, private.features, private.labels, reference_cross_entropy, c.revisit_epochs,
                c.revisit_batch_size, c.opt, rng_stream(c.seed, k, "revisit", j),
            )
            revisit_loss = revisit.epoch_losses[-1] if revisit.epoch_losses else None
            rows.append((j, k, accuracy(net, test), digest_loss, revisit_loss))
    if cfg.pooled:
        pooled = Dataset(
            np.concatenate([d.features for d in task.privates]),
            np.concatenate([d.labels for d in task.privates]),
            test.num_classes,
        )
        for k, net in enumerate(pretrained):
            converge(net, pooled.features, pooled.labels, pooled, rng_stream(c.seed, k, "transfer-private"), c)
            rows.append(("pooled", k, accuracy(net, test), None, None))
    return rows


def run_rows(log) -> list[tuple]:
    """A run's rows as ``oracle_rows`` gives them: every field but ``wall_ms``."""
    return [(r.round, r.party, r.accuracy, r.digest_loss, r.revisit_loss) for r in log.rows]
