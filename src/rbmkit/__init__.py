"""RBM/DBN toolkit: contrastive-divergence variants with persistent
chains, free-energy elite chain selection, greedy stacking, and an exact
enumeration oracle for measuring estimator quality on small models."""

from .core import RngStream, log1p_exp, sigmoid
from .dataio import (Dataset, NormStats, load_isolet_csv, load_mnist_idx,
                     load_model, minmax_normalize, save_model)
from .dbn import (DbnModel, FeedforwardNet, classify_free_energy,
                  classify_net, fine_tune, one_hot, pretrain_stack,
                  propagate_up, train_discriminative_rbm, unroll_to_network)
from .errors import (CsvFormatError, DataFormatError, IdxCountMismatchError,
                     IdxMagicError, IdxTruncatedError, ModelFormatError,
                     TrainingDivergedError)
from .model import (BINARY, GAUSSIAN, GradientStats, Hyperparams, RbmParams,
                    UpdateState, apply_update, batch_stats, free_energy,
                    hidden_input, hidden_probs, init_params, momentum_step,
                    visible_probs)
from .oracle import (exact_gradient, finite_diff_loglik_grad,
                     free_energy_entropy_form, mean_log_likelihood,
                     partition_function, visible_marginal)
from .samplers import (ChainPool, cd_k, fepcd_step, gibbs_step, make_pool,
                       pcd_step, select_elite)
from .trainer import (CD, FEPCD, PCD, EpochMetrics, reconstruction_error,
                      train_rbm)

__version__ = "0.1.0"
