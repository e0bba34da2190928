"""Mutation check: shows the tier-1 suite fails on each known estimator,
chain-noise, weight-step, trainer and classifier fault (among them the
stacked weight step's positive rows divided by the negative count or
added with the wrong sign, and an epoch's metrics taken on the params
from before its last update, taken only after the epoch callback, or on
a probe of rows redrawn each epoch), on a
discriminative stack's labelled top layer trained with the bottom
layer's unit kind or seed, on each way of making an oracle identity
vacuous (log Z taken over the visible states through the oracle's own -F
among them), on faults in the oracle's blocked finite difference, its
count of visited states and its one chain pool over the union of the
stationarity trials' models (the trials' start states joined in the
wrong order among them), on a stacked witness (finite difference, joint
table or brute -F) that reads the first trial's rows or model for every
trial in its group, on conditionals read from the joint -E table before
log_sum_exp leaves its shifted exponentials there, on a worst gap that
drops a NaN, on a log-sum-exp that holds a second copy of its
table or drops its max term, on a softmax normalized over the wrong axis
or shifted by the whole array's max, on a visible free-energy term with
the Gaussian half dropped or the binary sign flipped, on a visible draw
whose binary threshold is inverted, whose Gaussian mean gets no noise or
whose Gaussian noise is uniform, on exact negative statistics whose
P(h) drops the b.h term or is not normalized, and on random streams
keyed without their stream_id or by seed and stream_id joined into one
SeedSequence entropy list (where distinct keys can share a stream), on a
fine-tuning loss taken on every row or on a probe drawn from the shuffle's
stream, and on backprop labels taken unchecked.

Usage, from the repository root:

    python3 tools/mutants.py

Each mutant is one textual edit to one file of src/rbmkit. The script
copies src/ to a temporary directory, applies the edit there, and runs
tier-1 against the copy (PYTHONPATH points at it) without criterion 5,
whose fallback data scores every estimator alike and so cannot tell
these faults apart. The clean copy must pass first. A mutant counts as
killed when the run fails; an edit that no longer matches the source
exactly once is an error, so the list cannot go stale silently. Exit code
0 when every mutant is killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DESELECT = "tests/test_acceptance.py::test_criterion_5_desk_scale_estimator_comparison"
TIMEOUT_S = 900

# name -> (file under src/rbmkit, original text, replacement)
MUTANTS = {
    "fepcd-averages-every-chain": (
        "samplers.py",
        "neg = batch_stats(new_states[elite], new_q[elite])",
        "neg = batch_stats(new_states, new_q)"),
    "elite-ranked-by-pre-step-states": (
        "samplers.py",
        "select_elite(p, new_states, elite_fraction, new_input)",
        "select_elite(p, pool.states, elite_fraction)"),
    "elite-ranked-by-starting-hidden-input": (
        "samplers.py",
        "select_elite(p, new_states, elite_fraction, new_input)",
        "select_elite(p, new_states, elite_fraction, hidden_input(p, pool.states))"),
    "pool-rebuilt-every-minibatch": (
        "trainer.py",
        "if pool is None:",
        "if True:"),
    "elite-keeps-highest-free-energy": (
        "samplers.py",
        'order = np.argsort(f, kind="stable")',
        'order = np.argsort(-f, kind="stable")'),
    "gibbs-chain-one-sweep": (
        "samplers.py",
        "    for _ in range(k):\n        u_h, e_v = noise()",
        "    for _ in range(1):\n        u_h, e_v = noise()"),
    "noise-block-cursor-stuck": (
        "samplers.py",
        "self._cursor = start + width",
        "self._cursor = start"),
    "noise-refill-drops-leftover": (
        "samplers.py",
        "rest = self._block.shape[1] - self._cursor\n"
        "        block = np.empty((self.n_chains, rest + n))\n"
        "        block[:, :rest] = self._block[:, self._cursor:]\n",
        "rest = 0\n"
        "        block = np.empty((self.n_chains, rest + n))\n"),
    "noise-fill-from-neighbour-stream": (
        "samplers.py",
        "zip(block, self.streams)",
        "zip(block, self.streams[1:] + self.streams[:1])"),
    "metrics-on-pre-update-params": (
        "trainer.py",
        "                apply_update(p, pos, neg, hp, vel)\n"
        "            except ValueError as exc:\n"
        "                raise TrainingDivergedError(\n"
        "                    f\"non-finite parameters at epoch {epoch}, \"\n"
        "                    f\"batch offset {start} ({estimator}, seed {seed})\") from exc\n"
        "        x = hidden_input(p, probe)\n"
        "        recon = reconstruction_error(p, probe, eval_rng, x)\n"
        "        mean_fe = float(np.mean(free_energy(p, probe, x)))\n",
        "                before = p.copy()\n"
        "                apply_update(p, pos, neg, hp, vel)\n"
        "            except ValueError as exc:\n"
        "                raise TrainingDivergedError(\n"
        "                    f\"non-finite parameters at epoch {epoch}, \"\n"
        "                    f\"batch offset {start} ({estimator}, seed {seed})\") from exc\n"
        "        x = hidden_input(before, probe)\n"
        "        recon = reconstruction_error(before, probe, eval_rng, x)\n"
        "        mean_fe = float(np.mean(free_energy(before, probe, x)))\n"),
    "metrics-after-epoch-callback": (
        "trainer.py",
        "        x = hidden_input(p, probe)\n"
        "        recon = reconstruction_error(p, probe, eval_rng, x)\n"
        "        mean_fe = float(np.mean(free_energy(p, probe, x)))\n"
        "        metrics.append(EpochMetrics(epoch, recon, mean_fe,\n"
        "                                    time.perf_counter() - t0, estimator, seed))\n"
        "        if epoch_callback is not None:\n"
        "            epoch_callback(epoch, p.copy(), metrics[-1])\n",
        "        if epoch_callback is not None:\n"
        "            epoch_callback(epoch, p.copy(), metrics[-1] if metrics else None)\n"
        "        x = hidden_input(p, probe)\n"
        "        recon = reconstruction_error(p, probe, eval_rng, x)\n"
        "        mean_fe = float(np.mean(free_energy(p, probe, x)))\n"
        "        metrics.append(EpochMetrics(epoch, recon, mean_fe,\n"
        "                                    time.perf_counter() - t0, estimator, seed))\n"),
    "probe-redrawn-each-epoch": (
        "trainer.py",
        "        x = hidden_input(p, probe)\n",
        "        if m > EVAL_ROWS:\n"
        "            probe = feats[np.sort(eval_rng.permutation(m)[:EVAL_ROWS])]\n"
        "        x = hidden_input(p, probe)\n"),
    "fine-tune-loss-on-every-row": (
        "dbn.py",
        "losses.append(cross_entropy(net, feats[probe], labels[probe]))",
        "losses.append(cross_entropy(net, feats, labels))"),
    # a fresh copy of the shuffle stream: the weights stay as they are
    "fine-tune-probe-from-shuffle-stream": (
        "dbn.py",
        "probe_rows(m, RngStream(seed, STREAM_FINE_TUNE_EVAL))",
        "probe_rows(m, RngStream(seed, STREAM_FINE_TUNE))"),
    "net-labels-unchecked": (
        "dbn.py",
        "    raw = np.asarray(labels)\n",
        "    return np.asarray(labels, dtype=np.int64)\n"),
    "momentum-ignored": (
        "model.py",
        "vel *= hp.momentum",
        "vel *= 0.0"),
    "stacked-step-pos-divided-by-neg-count": (
        "model.py",
        "np.divide(h_pos, -pos.count, out=h[m_neg:])",
        "np.divide(h_pos, -neg.count, out=h[m_neg:])"),
    "stacked-step-pos-sign-flipped": (
        "model.py",
        "np.divide(h_pos, -pos.count, out=h[m_neg:])",
        "np.divide(h_pos, pos.count, out=h[m_neg:])"),
    # a lookup, not a comparison with GAUSSIAN, which a boundary test forbids
    "gaussian-classifier-drops-label-term": (
        "dbn.py",
        "label_term = visible_term(p.visible_kind, p.a[d:], np.eye(p.label_units))",
        "label_term = visible_term(p.visible_kind, p.a[d:], np.eye(p.label_units))"
        " * {'gaussian': 0.0}.get(p.visible_kind, 1.0)"),
    "gaussian-classifier-label-term-sign": (
        "dbn.py",
        "label_term = visible_term(p.visible_kind, p.a[d:], np.eye(p.label_units))",
        "label_term = visible_term(p.visible_kind, p.a[d:], np.eye(p.label_units))"
        " * {'gaussian': -1.0}.get(p.visible_kind, 1.0)"),
    "visible-draw-threshold-inverted": (
        "model.py",
        "return (e < mean).astype(np.float64)",
        "return (e > mean).astype(np.float64)"),
    "gaussian-draw-drops-noise": (
        "model.py",
        "    mean += e\n",
        "    pass\n"),
    "gaussian-noise-is-uniform": (
        "model.py",
        "return stream.normals(shape)",
        "return stream.uniforms(shape)"),
    "visible-term-gaussian-half-dropped": (
        "model.py",
        "return 0.5 * ((v - a) ** 2).sum(axis=-1)",
        "return ((v - a) ** 2).sum(axis=-1)"),
    "visible-term-binary-sign-flipped": (
        "model.py",
        "return -(v @ a)",
        "return v @ a"),
    "labelled-top-layer-bottom-visible-kind": (
        "dbn.py",
        "visible_kind if idx == 0 else BINARY,",
        "visible_kind if idx == 0 or top_block is not None and idx == n_rbms - 1 "
        "else BINARY,"),
    "labelled-top-layer-seed-without-idx": (
        "dbn.py",
        "seed + idx,",
        "seed + (0 if top_block is not None and idx == n_rbms - 1 else idx),"),
    "oracle-tv-forced-zero": (
        "oracle.py",
        "tv = 0.5 * np.abs(counts / counts.sum() - marg).sum()",
        "tv = 0.0"),
    "oracle-normalization-gap-zero": (
        "oracle.py",
        'note("marginal_normalization", abs(marg.sum() - 1.0))',
        'note("marginal_normalization", 0.0)'),
    "oracle-gradient-gap-zero": (
        "oracle.py",
        "np.abs(np.stack(grads) - fd)",
        "0.0"),
    "oracle-entropy-form-is-closed-form": (
        "oracle.py",
        "np.abs(free_energy_entropy_form(p, V) - f)",
        "np.abs(f - f)"),
    "oracle-conditional-from-hidden-probs": (
        "oracle.py",
        "cond = (table @ H) / table.sum(axis=2, keepdims=True)",
        "cond = np.stack(probs)"),
    "oracle-conditional-from-table-before-log-sum-exp": (
        "oracle.py",
        "brute_f = -log_sum_exp(table, axis=2)",
        "brute_f = -log_sum_exp(table.copy(), axis=2)"),
    # the table is still reduced, so the conditionals read what they should
    "oracle-brute-free-energy-from-closed-form": (
        "oracle.py",
        "brute_f = -log_sum_exp(table, axis=2)",
        "brute_f = np.stack(closed_f) + 0.0 * log_sum_exp(table, axis=2)"),
    "oracle-fd-every-trial-reads-first-trial-rows": (
        "oracle.py",
        "data[owner[m]]",
        "data[0 * owner[m]]"),
    "oracle-conditional-every-trial-from-first-joint-table": (
        "oracle.py",
        "cond = (table @ H) / table.sum(axis=2, keepdims=True)",
        "cond = (table[0] @ H) / table[0].sum(axis=1, keepdims=True)"),
    "oracle-brute-free-energy-every-trial-from-first": (
        "oracle.py",
        "brute_f = -log_sum_exp(table, axis=2)",
        "brute_f = -log_sum_exp(table, axis=2)[:1]"),
    "oracle-nan-gap-swallowed": (
        "oracle.py",
        "worst[name] = float(np.maximum(worst[name], np.max(gaps)))",
        "worst[name] = max(worst[name], float(np.max(gaps)))"),
    "oracle-fd-last-model-skipped": (
        "oracle.py",
        "for s in range(0, len(params), block):",
        "for s in range(0, len(params) - 1, block):"),
    "oracle-stationarity-counts-last-sweep": (
        "oracle.py",
        "np.bincount(ids[..., t].ravel()",
        "np.bincount(ids[-1, ..., t].ravel()"),
    "oracle-union-scores-every-block-against-first-marginal": (
        "oracle.py",
        "tv = 0.5 * np.abs(counts / counts.sum() - marg).sum()",
        "tv = 0.5 * np.abs(counts / counts.sum() - margs[0]).sum()"),
    "oracle-union-starts-in-reverse-model-order": (
        "oracle.py",
        "np.concatenate(starts, axis=1)",
        "np.concatenate(starts[::-1], axis=1)"),
    "oracle-logsumexp-out-of-place": (
        "core.py",
        "    x -= m\n",
        "    x = x - m\n"),
    "logsumexp-drops-max-term": (
        "core.py",
        "return m.squeeze(axis) + np.log(np.sum(x, axis=axis))",
        "return np.log(np.sum(x, axis=axis))"),
    "softmax-normalized-over-axis-0": (
        "core.py",
        "x /= np.sum(x, axis=axis, keepdims=True)",
        "x /= np.sum(x, axis=0, keepdims=True)"),
    "softmax-shifted-by-global-max": (
        "core.py",
        "x -= np.max(x, axis=axis, keepdims=True)",
        "x -= np.max(x)"),
    "stream-key-concatenated": (
        "core.py",
        "self.seed, spawn_key=(self.stream_id,))))",
        "[self.seed, self.stream_id])))"),
    "stream-id-ignored": (
        "core.py",
        "self.seed, spawn_key=(self.stream_id,))))",
        "self.seed)))"),
    "oracle-log-z-over-visible-states": (
        "oracle.py",
        "return log_sum_exp(_hidden_log_weights(x, a)[1], axis=1)",
        "return log_sum_exp(_neg_free_energies(w, a, b, enumerate_states(w.shape[1])),"
        " axis=1)"),
    "oracle-exact-p-h-drops-b-h": (
        "oracle.py",
        "_hidden_log_weights(_hidden_product(H, w, b), a)",
        "_hidden_log_weights(_hidden_product(H, w, 0.0 * b), a)"),
    "oracle-exact-p-h-unnormalized": (
        "oracle.py",
        "softmax(ph[0])  # P(h)",
        "np.exp(ph[0] - ph[0].max())  # P(h)"),
}


def apply(src_dir: str, name: str):
    fname, old, new = MUTANTS[name]
    path = os.path.join(src_dir, "rbmkit", fname)
    with open(path) as fh:
        text = fh.read()
    if text.count(old) != 1:
        raise SystemExit(f"mutant {name}: expected one match in {fname}, "
                         f"found {text.count(old)}")
    with open(path, "w") as fh:
        fh.write(text.replace(old, new))


def run_tier1(src_dir: str):
    """(passed, pytest summary line plus the first failing test ids) of
    tier-1 against src_dir."""
    env = dict(os.environ, PYTHONPATH=src_dir, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", "--deselect", DESELECT]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S}s"
    lines = proc.stdout.strip().splitlines()
    failed = [ln.split()[1] for ln in lines if ln.startswith("FAILED ")]
    summary = lines[-1] if lines else f"exit {proc.returncode}"
    if failed:
        summary += "; first failures: " + ", ".join(failed[:3])
    return proc.returncode == 0, summary


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="rbmkit-mutants-") as tmp:
        src_dir = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src_dir,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        t0 = time.perf_counter()
        ok, summary = run_tier1(src_dir)
        print(f"clean: {summary} ({time.perf_counter() - t0:.0f}s)", flush=True)
        if not ok:
            print("the clean copy already fails tier-1", flush=True)
            return 1
        survivors = []
        for name in MUTANTS:
            mutant_dir = os.path.join(tmp, name)
            shutil.copytree(src_dir, mutant_dir)
            apply(mutant_dir, name)
            t0 = time.perf_counter()
            ok, summary = run_tier1(mutant_dir)
            verdict = "SURVIVED" if ok else "killed"
            print(f"{name}: {verdict} - {summary} "
                  f"({time.perf_counter() - t0:.0f}s)", flush=True)
            if ok:
                survivors.append(name)
            shutil.rmtree(mutant_dir)
    print(f"{len(MUTANTS) - len(survivors)}/{len(MUTANTS)} mutants killed"
          + (f"; survivors: {', '.join(survivors)}" if survivors else ""), flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
