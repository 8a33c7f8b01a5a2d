"""Virtual relation matching: a self-contained knowledge-distillation
engine built on cross-view affinity edges, edge pruning, and a Huber
matching objective, with its own reverse-mode autodiff and a desk-scale
experiment harness."""

__version__ = "0.1.0"

from .autodiff import (
    Tensor,
    Tape,
    backward,
    cross_entropy,
    finite_diff_check,
    huber,
    kld,
    l2_normalize,
    no_grad,
    softmax,
)
from .baselines import angular_relations, gram_inter_class, gram_inter_sample
from .data import (
    AugmentSpec,
    Dataset,
    load_dataset,
    make_synthetic_dataset,
    save_dataset,
    virtual_view,
)
from .diagnostics import PilotSpec, gradient_diffusion_pilot
from .errors import (
    InputError,
    NumericError,
    ParameterError,
    TrainingError,
    UsageError,
)
from .graphs import (
    EdgeTensor,
    LogitBatch,
    brute_force_edges,
    build_icv_edges,
    build_inter_class_edges,
    build_inter_sample_edges,
    build_isv_edges,
    soften,
)
from .losses import (
    LossBreakdown,
    VRMWeights,
    loss_icv,
    loss_isv,
    total_loss,
)
from .models import MLP, MLPSpec, load_checkpoint, save_checkpoint
from .pruning import EdgeMask, apply_mask, joint_entropy_matrix, uep_mask
from .training import TrainConfig, distill_student, train_teacher
