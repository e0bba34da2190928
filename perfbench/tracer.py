"""Outside-in spans around rbmkit's public functions.

The tracer rebinds each traced name in every rbmkit module namespace that
holds it, because modules call each other through their own bindings:
trainer binds pcd_step itself, and samplers, model and dbn each bind
sigmoid. Patching only the defining module would miss those calls.
restore() puts every original back.

Self time is a span's duration minus the time covered by its child
spans. Spans are aggregated per function as they close; nothing is kept
per call.
"""

from __future__ import annotations

import importlib
import time

# layer (rbmkit module) -> public functions traced in it
LAYERS = {
    "core": ("sigmoid", "log1p_exp"),
    "model": ("hidden_probs", "visible_probs", "free_energy", "batch_stats", "apply_update"),
    "samplers": ("cd_k", "gibbs_step", "pcd_step", "fepcd_step", "select_elite", "make_pool"),
    "trainer": ("train_rbm", "reconstruction_error"),
    "dbn": ("train_discriminative_rbm", "classify_free_energy", "pretrain_stack",
            "propagate_up", "unroll_to_network", "fine_tune", "net_forward",
            "net_gradients", "cross_entropy", "classify_net"),
    "oracle": ("enumerate_states", "partition_function", "visible_marginal", "joint_table",
               "exact_gradient", "mean_log_likelihood", "finite_diff_loglik_grad",
               "free_energy_entropy_form"),
    "dataio": ("load_mnist_idx", "minmax_normalize", "save_model", "load_model"),
    "cli": ("main", "run_oracle_checks"),
}
MODULES = ("rbmkit", "rbmkit.core", "rbmkit.errors", "rbmkit.model", "rbmkit.samplers",
           "rbmkit.trainer", "rbmkit.dbn", "rbmkit.oracle", "rbmkit.dataio", "rbmkit.cli")

COUNTERS = ("samplers.chain_steps", "samplers.fepcd.advanced", "samplers.fepcd.contributed")


def rebind(name: str, original, replacement) -> list:
    """Point every rbmkit binding of `original` under `name` at
    `replacement`; returns (module, name, original) triples to undo it."""
    undo = []
    for mod_name in MODULES:
        mod = importlib.import_module(mod_name)
        if getattr(mod, name, None) is original:
            setattr(mod, name, replacement)
            undo.append((mod, name, original))
    return undo


def unbind(undo: list):
    for mod, name, original in reversed(undo):
        setattr(mod, name, original)


def _rows(v) -> int:
    shape = getattr(v, "shape", ())
    return shape[0] if len(shape) == 2 else 1


class Tracer:
    """Per-function call counts and self time, plus sampler work counters."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._undo = []

    def reset(self):
        for key in self.calls:
            self.calls[key] = 0
            self.self_s[key] = 0.0
        self.counters = dict.fromkeys(COUNTERS, 0)

    def install(self):
        for layer, names in LAYERS.items():
            mod = importlib.import_module(f"rbmkit.{layer}")
            for name in names:
                key = f"{layer}.{name}"
                self.calls[key] = 0
                self.self_s[key] = 0.0
                original = getattr(mod, name)
                self._undo += rebind(name, original, self._wrap(key, original))

    def restore(self):
        unbind(self._undo)
        self._undo = []

    def _wrap(self, key, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s

        def count(args, result):
            # chain-steps requested at a public boundary: cd_k's steps are
            # counted by the gibbs_step calls it makes, and `rbmkit sample`
            # (which advances chains through a private helper) by its
            # --n and --steps arguments
            c = self.counters
            if key == "samplers.gibbs_step":
                c["samplers.chain_steps"] += _rows(args[1])
            elif key in ("samplers.pcd_step", "samplers.fepcd_step"):
                n_chains = result[1].n_chains
                c["samplers.chain_steps"] += n_chains * args[2]
                if key == "samplers.fepcd_step":
                    c["samplers.fepcd.advanced"] += n_chains
                    c["samplers.fepcd.contributed"] += result[0].count
            elif key == "cli.main" and args and args[0][0] == "sample":
                argv = args[0]
                c["samplers.chain_steps"] += int(argv[argv.index("--n") + 1]) * int(
                    argv[argv.index("--steps") + 1])

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                child = stack.pop()
                calls[key] += 1
                self_s[key] += span - child
                if stack:
                    stack[-1] += span
            count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def snapshot(self) -> dict:
        """Copy of the current counts: {name: value}."""
        snap = {f"{k}.calls": v for k, v in self.calls.items()}
        snap.update({f"{k}.self_ms": 1e3 * v for k, v in self.self_s.items()})
        snap.update(self.counters)
        return snap
